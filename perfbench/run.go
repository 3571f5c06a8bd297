package main

import (
	"context"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"reopt"
)

// workloads are the named traffic mixes --workload selects.
var workloads = map[string]workload{
	"ott-session": {setup: setupOTT},
	"tmpl-http":   {setup: setupTmplHTTP},
	"tpch-http":   {setup: setupTPCHHTTP},
}

// workload sets up a target; its stream then comes from the run seed.
type workload struct {
	setup func(ctx context.Context) (target, setupTiming, error)
}

// setupTiming splits one set-up: catalog generation (with its samples)
// and the whole set-up up to the first ready response.
type setupTiming struct{ generate, total time.Duration }

// target is one set-up system under a workload's traffic.
type target interface {
	// stream generates the workload's SQL from the seed (untimed).
	stream(seed int64) error
	// pass drives the timed traffic; tr is nil on an untraced pass.
	pass(ctx context.Context, cfg runConfig, tr *tracer) (*pass, error)
	// check verifies p's outputs, returning how many were wrong.
	check(ctx context.Context, p *pass) (int, error)
	// quality re-optimizes the workload's quality set through the
	// target, untimed, checks every answer, and executes each final
	// plan once, count-only.
	quality(ctx context.Context) (qualityOut, error)
	// layers adds what only this kind of target can see to the
	// per-layer metrics of a traced pass.
	layers(ctx context.Context, tr *tracer, traced *pass, m map[string]metric) error
	// describe notes the workload's own end-to-end figures.
	describe(p *pass, rep *report)
	catalog() *reopt.Catalog
	sql() []string
	close()
}

// qualityOut is what the quality set gave: how many of its queries
// failed or were answered wrongly, and the mean Volcano tuples of the
// final plans of the rest.
type qualityOut struct {
	attempted, failed, wrong int
	tuples                   float64
}

// obs is one query of a pass as the benchmark saw it.
type obs struct {
	sql       int     // index into the target's SQL stream
	latMs     float64 // SQL in to final plan out; from the due time in open loop
	lagMs     float64 // how late the query was sent after it was due
	at        float64 // completion, seconds since its phase began
	failed    bool    // error, refusal or non-200
	status    int     // HTTP status; 0 for a transport failure and on the library path
	fp        string  // final plan fingerprint
	rounds    int
	plans     int
	converged bool
	reoptMs   float64
	optMs     float64 // Σ Round.OptimizeTime (library only)
	sampMs    float64 // Σ Round.SamplingTime (library only)
}

// pass is what one run of a workload's timed traffic observed.
type pass struct {
	obs []obs
	// latency holds the samples the end-to-end latency metrics use, in
	// completion order: every query of the closed loop.
	latency []float64
	// qps is closed-loop completions per second (median over blocks).
	qps  float64
	mem  memDelta
	exec map[int]execOut // library: final-plan execution by SQL index
	// HTTP only.
	rungs   []rung
	maxRate float64
	server  serverDelta
}

// execOut is one Volcano execution of a final plan.
type execOut struct {
	ms     float64
	tuples int64
	count  int64
}

// report is everything a run prints.
type report struct {
	attempted int
	failed    int
	wrong     int
	e2e       map[string]metric // gated end-to-end metrics
	reported  map[string]metric // end-to-end metrics reported, not gated
	layers    map[string]metric
	notes     []string // workload-specific end-to-end figures and sample counts
	spans     []span
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "  "+n)
	}
	for i, set := range []map[string]metric{r.e2e, r.reported, r.layers} {
		if i == 1 {
			fmt.Fprintln(w, "  reported, not gated:")
		}
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-34s %14.6g %s\n", n, set[n].Value, set[n].Unit)
		}
	}
}

// A run repeats set-up at least minSetups times, and until setupBudget
// or the run's own duration has passed (at most maxSetups times), so
// that setup_s is a median over enough samples to be steady.
const (
	minSetups   = 3
	setupBudget = 5 * time.Second
	maxSetups   = 25
)

// runWorkload sets the target up repeatedly (keeping the last),
// runs an untraced pass for the end-to-end metrics and checks its
// outputs, and, when traced, runs a traced pass for the per-layer ones.
func runWorkload(ctx context.Context, w workload, cfg runConfig, traced bool) (*report, error) {
	var tgt target
	var setups, walls, scales, gens []float64
	begin, budget := time.Now(), min(setupBudget, cfg.dur)
	for i := 0; i < maxSetups && (i < minSetups || time.Since(begin) < budget); i++ {
		if tgt != nil {
			tgt.close()
			tgt = nil
		}
		// Hand the previous set-up's memory back, so each set-up's
		// peak RSS stands alone.
		debug.FreeOSMemory()
		before := hostScale()
		cpu0 := processCPU()
		t, st, err := w.setup(ctx)
		cpu := processCPU() - cpu0
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		tgt = t
		runtime.GC()
		scale := (before + hostScale()) / 2
		setups = append(setups, cpu.Seconds()*scale)
		walls = append(walls, st.total.Seconds())
		scales = append(scales, scale)
		gens = append(gens, st.generate.Seconds())
	}
	defer tgt.close()
	if err := tgt.stream(cfg.seed); err != nil {
		return nil, fmt.Errorf("stream: %w", err)
	}
	runtime.GC()
	cpu0, cpuOK := markCPU()
	p, err := tgt.pass(ctx, cfg, nil)
	if err != nil {
		return nil, err
	}
	cpu1, _ := markCPU()
	steal := 100 * stealShare(cpu0, cpu1)
	wrong, err := tgt.check(ctx, p)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	qual, err := tgt.quality(ctx)
	if err != nil {
		return nil, fmt.Errorf("quality set: %w", err)
	}
	rep := &report{wrong: wrong + qual.wrong}
	rep.attempted, rep.failed = len(p.obs)+qual.attempted, countFailed(p.obs)+qual.failed
	rep.e2e, rep.reported = endToEnd(p, median(setups), qual.tuples)
	tgt.describe(p, rep)
	sp, _ := spread(setups)
	rep.note("set-up: %d times; wall time median %.4g s; host speed median %.4g of nominal; setup_s = median of CPU time x speed = %.4g s, quartile spread %.3g%%",
		len(setups), median(walls), median(scales), median(setups), 100*sp)
	if cpuOK {
		rep.note("host steal during the untraced pass: %.2f%% of CPU time (/proc/stat)", steal)
	}
	rep.note("quality set: %d queries, %d failed, %d wrong; final plans process %.6g tuples per query",
		qual.attempted, qual.failed, qual.wrong, qual.tuples)
	rep.note("queries=%d failed=%d wrong=%d error_rate=%.6g ratio (failed+refused+wrong)/attempted",
		rep.attempted, rep.failed, rep.wrong, float64(rep.failed+rep.wrong)/float64(max(rep.attempted, 1)))
	var p50s, p99s string
	for _, b := range splitBlocks(p.latency, tailSamples) {
		p50s += fmt.Sprintf(" %.4g", quantile(b, 0.5))
		p99s += fmt.Sprintf(" %.4g", quantile(b, 0.99))
	}
	all := sortedCopy(p.latency)
	q := tailQuantile(len(all))
	rep.note("latency: %d samples; per block p50%s ms, p99%s ms (the metrics are medians over blocks); all samples: p99 = %.4g ms with %d beyond, highest percentile with >=%d beyond p%g = %.4g ms",
		len(all), p50s, p99s, quantile(all, 0.99), beyond(len(all), 0.99), minBeyond, 100*q, quantile(all, q))
	if !traced {
		return rep, nil
	}
	tr := newTracer()
	runtime.GC()
	tp, err := tgt.pass(ctx, cfg, tr)
	if err != nil {
		return nil, fmt.Errorf("traced pass: %w", err)
	}
	twrong, err := tgt.check(ctx, tp)
	if err != nil {
		return nil, fmt.Errorf("check traced pass: %w", err)
	}
	rep.wrong += twrong
	rep.attempted += len(tp.obs)
	rep.failed += countFailed(tp.obs)
	rep.layers = commonLayers(p, tp, gens)
	rep.layers["host.steal_pct"] = metric{steal, "%"}
	rep.layers["host.speed"] = metric{median(scales), "ratio"}
	rep.layers["setup.wall_s"] = metric{median(walls), "s"}
	// The traced run's result line also records the ungated
	// end-to-end figures of its untraced pass.
	for name, m := range rep.reported {
		rep.layers["e2e."+name] = m
	}
	if err := probeLayers(ctx, tgt, tr, rep.layers); err != nil {
		return nil, fmt.Errorf("probe: %w", err)
	}
	if err := tgt.layers(ctx, tr, tp, rep.layers); err != nil {
		return nil, err
	}
	rep.spans = tr.snapshot()
	spanLayers(rep.spans, rep.layers)
	lat := rep.reported["latency_p50_ms"].Value
	rep.note("predicted contrasts: http share of p50 = (wire+handler)/latency_p50 = %.4g; skeleton share = skeleton_ms_p50/latency_p50 = %.4g",
		(rep.layers["server.wire_ms_p50"].Value+rep.layers["server.handler_ms_p50"].Value)/lat,
		rep.layers["executor.skeleton_ms_p50"].Value/lat)
	return rep, nil
}

// countNon2xx counts the HTTP responses whose status is not 2xx.
func countNon2xx(seen []obs) int {
	n := 0
	for _, o := range seen {
		if o.status != 0 && (o.status < 200 || o.status > 299) {
			n++
		}
	}
	return n
}

func countFailed(seen []obs) int {
	n := 0
	for _, o := range seen {
		if o.failed {
			n++
		}
	}
	return n
}

// endToEnd computes the metrics a user of the system sees. The gated
// ones go into the result line: set-up time, plan quality on the
// quality set, and what a query costs in memory. Latency, throughput, CPU time per query and
// the figures built on them are reported only: on a shared host whose
// CPU speed and stolen share change from minute to minute, they follow
// the host more than the program (see README.md). A figure a workload
// does not have reads 0: exec_plus_reopt_ms needs the library path's
// final-plan executions, max_rate_qps the open-loop ladder.
func endToEnd(p *pass, setupS, tuples float64) (gated, reported map[string]metric) {
	p50 := func(s []float64) float64 { return quantile(s, 0.5) }
	p99 := func(s []float64) float64 { return quantile(s, 0.99) }
	// Per-query figures are over the queries answered; any failure
	// fails the run.
	n := float64(max(len(p.obs)-countFailed(p.obs), 1))
	gated = map[string]metric{
		"setup_s":            {setupS, "s"},
		"final_plan_tuples":  {tuples, "count"},
		"alloc_kb_per_query": {float64(p.mem.allocBytes) / 1024 / n, "KiB"},
		"peak_rss_mb":        {peakRSSMiB(), "MiB"},
	}
	epr := 0.0
	if p.exec != nil {
		epr = execPlusReoptMs(p)
	}
	reported = map[string]metric{
		"latency_p50_ms":     {blockMedian(p.latency, tailSamples, p50), "ms"},
		"latency_p99_ms":     {blockMedian(p.latency, tailSamples, p99), "ms"},
		"throughput_qps":     {p.qps, "1/s"},
		"cpu_ms_per_query":   {ms(p.mem.cpu) / n, "ms"},
		"exec_plus_reopt_ms": {epr, "ms"},
		"max_rate_qps":       {p.maxRate, "1/s"},
	}
	return gated, reported
}

// commonLayers computes the per-layer metrics every target exposes the
// same way: Algorithm 1's counters from the traced pass, the runtime
// and load-generator figures from the untraced one.
func commonLayers(p, tp *pass, gens []float64) map[string]metric {
	var rounds, plans, conv float64
	reopt := make([]float64, 0, len(tp.obs))
	n := 0
	for _, o := range tp.obs {
		if o.failed {
			continue
		}
		n++
		rounds += float64(o.rounds)
		plans += float64(o.plans)
		if o.converged {
			conv++
		}
		reopt = append(reopt, o.reoptMs)
	}
	per := func(x float64) float64 { return x / float64(max(n, 1)) }
	// The generator's lag matters where it paces the traffic: on an
	// open-loop ladder when there is one.
	paced := p.obs
	if len(p.rungs) > 0 {
		paced = nil
		for _, r := range p.rungs {
			paced = append(paced, r.obs...)
		}
	}
	lags := make([]float64, len(paced))
	for i, o := range paced {
		lags[i] = o.lagMs
	}
	overhead := 0.0
	if p.qps > 0 {
		overhead = 100 * (p.qps - tp.qps) / p.qps
	}
	kq := float64(max(len(p.obs), 1)) / 1000
	return map[string]metric{
		"optimizer.calls_per_query": {per(rounds + float64(n)), "count"},
		"core.rounds_per_query":     {per(rounds), "count"},
		"core.plans_per_query":      {per(plans), "count"},
		"core.converged_share":      {per(conv), "ratio"},
		"core.reopt_ms_p50":         {median(reopt), "ms"},
		"workload.generate_s":       {median(gens), "s"},
		"runtime.gc_cycles_per_kq":  {float64(p.mem.gcCycles) / kq, "count"},
		"runtime.gc_pause_ms_total": {float64(p.mem.gcPauseNs) / 1e6, "ms"},
		"loadgen.lag_ms_p99":        {quantile(sortedCopy(lags), 0.99), "ms"},
		"trace.overhead_pct":        {overhead, "%"},
	}
}

// spanLayers derives the span-measured per-layer metrics.
func spanLayers(spans []span, m map[string]metric) {
	self := selfTimes(spans)
	m["server.handler_ms_p50"] = metric{median(self["server.handler"]), "ms"}
	m["server.wire_ms_p50"] = metric{median(self["client.reoptimize"]), "ms"}
	m["sql.parse_us_p50"] = metric{1000 * median(self["sql.parse"]), "us"}
	m["optimizer.dp_ms_p50"] = metric{median(self["optimizer.optimize"]), "ms"}
	m["executor.skeleton_ms_p50"] = metric{median(self["executor.skeleton"]), "ms"}
}

// probeLimit bounds how many distinct SQL texts the per-layer probes
// visit.
const probeLimit = 300

// probeLayers times single calls into the parser, the optimizer's DP
// and the skeleton executor on a fresh cache-less session, over the
// first distinct texts of the stream: Parse per text, one Optimize
// under an empty Γ, and Validate of that round-1 plan, run serially so
// each Validate's allocation can be read off the runtime.
func probeLayers(ctx context.Context, tgt target, tr *tracer, m map[string]metric) error {
	s, err := reopt.Open(tgt.catalog())
	if err != nil {
		return err
	}
	defer s.Close()
	var allocs, rows []float64
	for _, src := range firstDistinct(tgt.sql(), probeLimit) {
		sp := tr.begin("sql.parse", 0, 0)
		q, err := s.Parse(src)
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("optimizer.optimize", 0, 0)
		p, err := s.Optimize(q)
		sp.end()
		if err != nil {
			return err
		}
		before := markMem()
		sp = tr.begin("executor.skeleton", 0, 0)
		ests, err := s.Validate(ctx, p)
		sp.end()
		allocs = append(allocs, float64(markMem().since(before).allocBytes)/1024)
		if err != nil {
			return err
		}
		var n int64
		for _, r := range ests[0].SampleRows {
			n += r
		}
		rows = append(rows, float64(n))
	}
	m["executor.skeleton_alloc_kb_p50"] = metric{median(allocs), "KiB"}
	m["executor.sample_rows_per_plan"] = metric{mean(rows), "count"}
	return nil
}

// firstDistinct returns up to n distinct texts of sqls in stream order.
func firstDistinct(sqls []string, n int) []string {
	seen := make(map[string]bool)
	var out []string
	for _, s := range sqls {
		if len(out) == n {
			break
		}
		if !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// enough reports whether a closed loop that began at start and has
// completed n queries may stop. A loop with no duration is a warm-up:
// it stops after minSamples queries, however long they take. A timed
// loop stops once dur has passed and p99 has minBeyond samples above it
// — or three times dur has passed regardless.
func enough(n int, start time.Time, cfg runConfig) bool {
	el := time.Since(start)
	switch {
	case cfg.dur == 0:
		return n >= cfg.minSamples
	case cfg.minSamples == 0:
		return el >= cfg.dur
	}
	return (el >= cfg.dur && n >= cfg.minSamples) || el >= 3*cfg.dur
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
