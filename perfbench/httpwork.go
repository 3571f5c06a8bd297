package main

import (
	"context"
	"fmt"
	"sync"
	"time"

	"reopt"
)

// httpTarget is the daemon path: reoptd's default config over one
// catalog, fed one workload's SQL stream by traffic. Every pass runs on
// a freshly started daemon, so each begins with a cold cache.
type httpTarget struct {
	cat     *reopt.Catalog
	d       *daemon
	used    bool // the set-up's daemon has served a pass
	sqls    []string
	qual    []string // the quality set
	gen     func(cat *reopt.Catalog, seed int64) ([]string, error)
	genQual func(cat *reopt.Catalog) ([]string, error)
	traffic func(ctx context.Context, d *daemon, tr *tracer, sqls []string, cfg runConfig) (*pass, error)
	// refs holds, per SQL text, what a cache-less library Session
	// computes for it: the reference every response must match.
	refs map[string]refResult
	log  func(format string, args ...any)
}

// refResult is one cache-less reference re-optimization.
type refResult struct {
	fp            string
	optMs, sampMs float64
	final         *reopt.Plan
}

func startHTTP(ctx context.Context, gencat func() (*reopt.Catalog, error)) (*httpTarget, setupTiming, error) {
	start := time.Now()
	cat, err := gencat()
	if err != nil {
		return nil, setupTiming{}, err
	}
	gen := time.Since(start)
	d, err := startDaemon(ctx, cat, nil)
	if err != nil {
		return nil, setupTiming{}, err
	}
	return &httpTarget{cat: cat, d: d, refs: make(map[string]refResult)}, setupTiming{gen, time.Since(start)}, nil
}

func (t *httpTarget) stream(seed int64) (err error) {
	if t.qual, err = t.genQual(t.cat); err != nil {
		return err
	}
	t.sqls, err = t.gen(t.cat, seed)
	return err
}

func (t *httpTarget) catalog() *reopt.Catalog { return t.cat }
func (t *httpTarget) sql() []string           { return t.sqls }

func (t *httpTarget) close() {
	if t.d != nil {
		t.d.stop()
		t.d = nil
	}
}

func (t *httpTarget) pass(ctx context.Context, cfg runConfig, tr *tracer) (*pass, error) {
	if t.used || tr != nil {
		t.close()
		d, err := startDaemon(ctx, t.cat, tr)
		if err != nil {
			return nil, err
		}
		t.d = d
	}
	t.used = true
	t.log = func(format string, args ...any) { fmt.Fprintf(cfg.log, format, args...) }
	return t.traffic(ctx, t.d, tr, t.sqls, cfg)
}

// timed brackets a pass's timed region with /metrics scrapes and
// runtime memory marks.
func timed(ctx context.Context, d *daemon, p *pass, body func()) error {
	before, err := scrape(ctx, d.hc, d.base)
	if err != nil {
		return err
	}
	m0 := markMem()
	body()
	p.mem = markMem().since(m0)
	after, err := scrape(ctx, d.hc, d.base)
	if err != nil {
		return err
	}
	p.server = promDelta(before, after)
	return nil
}

// check re-optimizes every distinct SQL text answered with a 200 on a
// cache-less library Session, outside the timed region, and counts the
// responses whose fingerprint differs: results must not depend on cache
// state, scheduling or concurrency.
func (t *httpTarget) check(ctx context.Context, p *pass) (int, error) {
	var todo []string
	seen := make(map[string]bool)
	for _, o := range p.obs {
		src := t.sqls[o.sql]
		if _, done := t.refs[src]; !done && !o.failed && !seen[src] {
			seen[src] = true
			todo = append(todo, src)
		}
	}
	if err := t.reference(ctx, todo, false); err != nil {
		return 0, err
	}
	wrong := 0
	for _, o := range p.obs {
		if !o.failed && o.fp != t.refs[t.sqls[o.sql]].fp {
			wrong++
			if wrong <= 3 {
				t.log("perfbench: fingerprint mismatch for %q\n", t.sqls[o.sql])
			}
		}
	}
	if p.server.non200 != float64(countNon2xx(p.obs)) {
		t.log("perfbench: client saw %d non-2xx responses, /metrics counted %g\n", countNon2xx(p.obs), p.server.non200)
	}
	return wrong, nil
}

// quality sends the quality set to the daemon after the timed region,
// checks each answer's fingerprint against a cache-less reference
// re-optimization, and executes the reference final plans — the plans
// the daemon answered with, where the fingerprints match.
func (t *httpTarget) quality(ctx context.Context) (qualityOut, error) {
	q := qualityOut{attempted: len(t.qual)}
	served := make([]obs, len(t.qual))
	for i, src := range t.qual {
		served[i] = t.d.send(ctx, nil, src)
	}
	var todo []string
	for _, src := range t.qual {
		if t.refs[src].final == nil {
			todo = append(todo, src)
		}
	}
	if err := t.reference(ctx, todo, true); err != nil {
		return q, err
	}
	var ok []string
	for i, src := range t.qual {
		switch {
		case served[i].failed:
			q.failed++
		case served[i].fp != t.refs[src].fp:
			q.wrong++
			t.log("perfbench: fingerprint mismatch for %q\n", src)
		default:
			ok = append(ok, src)
		}
	}
	execs, err := t.execFinals(ctx, nil, ok)
	if err != nil {
		return q, err
	}
	for _, e := range execs {
		q.tuples += float64(e.tuples)
	}
	q.tuples /= float64(max(len(execs), 1))
	return q, nil
}

// execFinals executes the reference final plans of srcs once each,
// count-only, on a cache-less session.
func (t *httpTarget) execFinals(ctx context.Context, tr *tracer, srcs []string) ([]execOut, error) {
	s, err := reopt.Open(t.cat)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	out := make([]execOut, 0, len(srcs))
	for _, src := range srcs {
		r := t.refs[src]
		if r.final == nil {
			return nil, fmt.Errorf("no reference final plan for %q", src)
		}
		sp := tr.begin("executor.volcano", 0, 0)
		start := time.Now()
		res, err := s.Execute(ctx, r.final, reopt.ExecOptions{CountOnly: true})
		d := time.Since(start)
		sp.end()
		if err != nil {
			return nil, err
		}
		out = append(out, execOut{ms: ms(d), tuples: res.Counters.Tuples, count: res.Count})
	}
	return out, nil
}

// reference fills t.refs for srcs over conns goroutines, keeping the
// final plans when keep is set.
func (t *httpTarget) reference(ctx context.Context, srcs []string, keep bool) error {
	s, err := reopt.Open(t.cat)
	if err != nil {
		return err
	}
	defer s.Close()
	out := make([]refResult, len(srcs))
	errs := make([]error, conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(srcs); i += conns {
				q, err := s.Parse(srcs[i])
				if err != nil {
					errs[c] = err
					return
				}
				res, err := s.Reoptimize(ctx, q)
				if err != nil {
					errs[c] = fmt.Errorf("reference %q: %w", srcs[i], err)
					return
				}
				r := refResult{fp: res.Final.Fingerprint()}
				for _, rd := range res.Rounds {
					r.optMs += ms(rd.OptimizeTime)
					r.sampMs += ms(rd.SamplingTime)
				}
				if keep {
					r.final = res.Final
				}
				out[i] = r
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, src := range srcs {
		t.refs[src] = out[i]
	}
	return nil
}

// layers reads the cache and scheduler counters off /metrics, and takes
// the optimize/sampling split — which the HTTP response does not carry —
// from the cold reference re-optimizations of the same texts.
func (t *httpTarget) layers(ctx context.Context, tr *tracer, tp *pass, m map[string]metric) error {
	sd := tp.server
	t.log("perfbench: /metrics over the traced pass: %g requests, %g non-200, cache hits %g misses %g, scheduler waves %g requests %g\n",
		sd.requests, sd.non200, sd.hits, sd.misses, sd.waves, sd.reqs)
	var opt, samp float64
	for _, o := range tp.obs {
		r := t.refs[t.sqls[o.sql]]
		opt += r.optMs
		samp += r.sampMs
	}
	n := float64(max(len(tp.obs), 1))
	m["server.non2xx_total"] = metric{float64(countNon2xx(tp.obs)), "count"}
	m["sampling.cache_hit_ratio"] = metric{ratio(sd.hits, sd.hits+sd.misses), "ratio"}
	m["sampling.cache_lookups_per_query"] = metric{(sd.hits + sd.misses) / n, "count"}
	m["sampling.req_per_wave"] = metric{ratio(sd.reqs, sd.waves), "count"}
	m["core.optimize_share"] = metric{ratio(opt, opt+samp), "ratio"}
	m["sampling.validate_ms_per_query"] = metric{samp / n, "ms"}
	execs, err := t.execFinals(ctx, tr, t.qual)
	if err != nil {
		return err
	}
	volcano := make([]float64, len(execs))
	for i, e := range execs {
		volcano[i] = e.ms
	}
	m["executor.volcano_ms_per_query"] = metric{mean(volcano), "ms"}
	return nil
}

// --- tpch-http: the daemon with its cache and scheduler used the other way.

// tpchPerTemplate is how many instances of each of the 21 TPC-H
// templates the stream holds; a pass wraps around if it outruns them.
const tpchPerTemplate = 1000

func setupTPCHHTTP(ctx context.Context) (target, setupTiming, error) {
	t, st, err := startHTTP(ctx, tpchCatalog)
	if err != nil {
		return nil, st, err
	}
	t.gen = func(cat *reopt.Catalog, seed int64) ([]string, error) {
		return tpchStream(cat, seed, tpchPerTemplate)
	}
	t.genQual = tpchQuality
	t.traffic = closedTraffic
	return t, st, nil
}

// closedTraffic is conns callers in a closed loop over the stream.
func closedTraffic(ctx context.Context, d *daemon, tr *tracer, sqls []string, cfg runConfig) (*pass, error) {
	p := &pass{}
	err := timed(ctx, d, p, func() {
		p.obs = d.closedLoop(ctx, tr, sqls, 0, cfg)
		p.qps = blockRate(completions(p.obs))
	})
	for _, o := range p.obs {
		p.latency = append(p.latency, o.latMs)
	}
	return p, err
}

// --- tmpl-http: parametrized serving traffic in an open loop.

const (
	// tmplStreamLen covers warm-up, the closed loop and the ladder.
	tmplStreamLen = 40000
	// tmplWarmup queries run untimed first, so the cache holds the hot
	// texts before anything is measured.
	tmplWarmup = 300
	// tmplLimitMs is the workload's latency limit on p99.
	tmplLimitMs = 20.0
)

// tmplLadder is the fixed offered-rate ladder, lowest first; each rung
// offers 50 queries per second of run time.
var tmplLadder = []float64{250, 500, 1000, 1500, 2000, 2500}

func setupTmplHTTP(ctx context.Context) (target, setupTiming, error) {
	t, st, err := startHTTP(ctx, denseOTTCatalog)
	if err != nil {
		return nil, st, err
	}
	t.gen = func(_ *reopt.Catalog, seed int64) ([]string, error) { return tmplStream(seed, tmplStreamLen), nil }
	t.genQual = tmplQuality
	t.traffic = ladderTraffic
	return t, st, nil
}

// ladderTraffic warms the cache, runs the closed loop for half the run
// time — the end-to-end latency and throughput — then climbs the
// offered-rate ladder and stops after the first rung that misses the
// latency limit or builds a backlog. Open-loop latency counts every host
// stall against every query queued behind it, so it swings with the
// machine more than with the program; it is reported per rung, and
// gives max_rate_qps, rather than gating.
func ladderTraffic(ctx context.Context, d *daemon, tr *tracer, sqls []string, cfg runConfig) (*pass, error) {
	d.closedLoop(ctx, nil, sqls, 0, warmup(cfg))
	p := &pass{}
	err := timed(ctx, d, p, func() {
		closed := cfg
		closed.dur = cfg.dur / 2
		p.obs = d.closedLoop(ctx, tr, sqls, tmplWarmup, closed)
		p.qps = blockRate(completions(p.obs))
		for _, o := range p.obs {
			p.latency = append(p.latency, o.latMs)
		}
		from := tmplWarmup + len(p.obs)
		n := max(100, int(50*cfg.dur.Seconds()))
		for _, rate := range tmplLadder {
			r := d.openLoop(ctx, tr, sqls, from, rate, n)
			from += n
			p.rungs = append(p.rungs, r)
			p.obs = append(p.obs, r.obs...)
			if !r.meets() {
				break
			}
			p.maxRate = rate
		}
	})
	return p, err
}

// warmup is cfg as the untimed warm-up of tmplWarmup queries.
func warmup(cfg runConfig) runConfig {
	cfg.dur, cfg.minSamples = 0, tmplWarmup
	return cfg
}

// meets reports whether the rung kept p99 within the limit with every
// query answered and no backlog it could not drain within the limit.
func (r rung) meets() bool {
	return countFailed(r.obs) == 0 &&
		quantile(sortedCopy(r.lat), 0.99) <= tmplLimitMs &&
		float64(r.backlog) <= r.rate*tmplLimitMs/1000
}

func (t *httpTarget) describe(p *pass, rep *report) {
	sd := p.server
	rep.note("/metrics over the timed region: %g requests, %g non-200, cache hits %g misses %g (hit ratio %.4g), scheduler %g requests in %g waves",
		sd.requests, sd.non200, sd.hits, sd.misses, ratio(sd.hits, sd.hits+sd.misses), sd.reqs, sd.waves)
	if len(p.rungs) == 0 {
		return
	}
	rep.note("closed-loop capacity (%d callers): %.6g 1/s", conns, p.qps)
	for _, r := range p.rungs {
		lat := sortedCopy(r.lat)
		rep.note("rung %6g 1/s: n=%d p50=%.4g ms p99=%.4g ms (%d beyond) backlog=%d meets=%v",
			r.rate, len(lat), quantile(lat, 0.5), quantile(lat, 0.99), beyond(len(lat), 0.99), r.backlog, r.meets())
	}
	rep.note("max_rate_qps = %g 1/s (highest rung with p99 <= %g ms and no backlog)", p.maxRate, tmplLimitMs)
}
