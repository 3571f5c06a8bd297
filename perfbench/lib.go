package main

import (
	"context"
	"fmt"
	"time"

	"reopt"
)

// ottTarget is the library path: one Session opened with no options,
// driven by one caller in a closed loop. Validation runs cold — the
// session has no shared cache — so the skeleton executor, the
// optimizer's DP and the Algorithm 1 loop do nearly all the work.
type ottTarget struct {
	cat  *reopt.Catalog
	sess *reopt.Session
	sqls []string
	qual []string // the quality set
}

// ottStreamLen is how many OTT instances the stream draws before
// dropping repeats; a pass cycles through the distinct ones.
const ottStreamLen = 4096

func setupOTT(ctx context.Context) (target, setupTiming, error) {
	start := time.Now()
	cat, err := ottCatalog()
	if err != nil {
		return nil, setupTiming{}, err
	}
	gen := time.Since(start)
	sess, err := reopt.Open(cat)
	if err != nil {
		return nil, setupTiming{}, err
	}
	return &ottTarget{cat: cat, sess: sess}, setupTiming{gen, time.Since(start)}, nil
}

func (t *ottTarget) stream(seed int64) (err error) {
	if t.qual, err = ottStream(t.cat, qualitySeed, ottQualityLen); err != nil {
		return err
	}
	t.sqls, err = ottStream(t.cat, seed, ottStreamLen)
	return err
}

func (t *ottTarget) catalog() *reopt.Catalog { return t.cat }
func (t *ottTarget) sql() []string           { return t.sqls }
func (t *ottTarget) close()                  { t.sess.Close() }

// pass re-optimizes the stream one query at a time — Session.Parse plus
// Session.Reoptimize is the timed unit — then, outside the timed
// region, executes each distinct final plan once, count-only.
func (t *ottTarget) pass(ctx context.Context, cfg runConfig, tr *tracer) (*pass, error) {
	p := &pass{obs: make([]obs, 0, 8192)}
	finals := make(map[int]*reopt.Plan)
	startMem := markMem()
	start := time.Now()
	prev := start
	for i := 0; !enough(i, start, cfg); i++ {
		o := obs{sql: i % len(t.sqls)}
		req := int64(i + 1)
		due := time.Now()
		root := tr.begin("query", 0, req)
		sp := tr.begin("sql.parse", root.id(), req)
		q, err := t.sess.Parse(t.sqls[o.sql])
		sp.end()
		var res *reopt.ReoptResult
		if err == nil {
			sp = tr.begin("core.reoptimize", root.id(), req)
			res, err = t.sess.Reoptimize(ctx, q)
			sp.end()
		}
		root.end()
		done := time.Now()
		o.latMs, o.lagMs, o.at = ms(done.Sub(due)), ms(due.Sub(prev)), done.Sub(start).Seconds()
		prev = done
		if err != nil {
			fmt.Fprintf(cfg.log, "perfbench: query %d: %v\n", i, err)
			o.failed = true
			p.obs = append(p.obs, o)
			continue
		}
		o.fp = res.Final.Fingerprint()
		o.rounds, o.plans, o.converged = len(res.Rounds), res.NumPlans, res.Converged
		o.reoptMs = ms(res.ReoptTime)
		for _, r := range res.Rounds {
			o.optMs += ms(r.OptimizeTime)
			o.sampMs += ms(r.SamplingTime)
		}
		if _, ok := finals[o.sql]; !ok {
			finals[o.sql] = res.Final
		}
		p.obs = append(p.obs, o)
	}
	p.mem = markMem().since(startMem)
	p.qps = blockRate(completions(p.obs))
	for _, o := range p.obs {
		p.latency = append(p.latency, o.latMs)
	}
	p.exec = make(map[int]execOut, len(finals))
	for i := range t.sqls {
		f, ok := finals[i]
		if !ok {
			continue
		}
		sp := tr.begin("executor.volcano", 0, 0)
		t0 := time.Now()
		res, err := t.sess.Execute(ctx, f, reopt.ExecOptions{CountOnly: true})
		d := time.Since(t0)
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("execute final plan of %q: %w", t.sqls[i], err)
		}
		p.exec[i] = execOut{ms: ms(d), tuples: res.Counters.Tuples, count: res.Count}
	}
	return p, nil
}

// check requires every final plan to return COUNT 0: an OTT instance
// with m < n is empty by construction, so a non-zero count is a wrong
// plan.
func (t *ottTarget) check(ctx context.Context, p *pass) (int, error) {
	wrong := 0
	for _, o := range p.obs {
		if e, ok := p.exec[o.sql]; ok && e.count != 0 {
			wrong++
		}
	}
	return wrong, nil
}

// layers adds the Fig. 6 overhead split from ReoptResult, the
// final-plan executions, and the cache and server layers this path
// bypasses (zero: the session has neither).
func (t *ottTarget) layers(ctx context.Context, tr *tracer, tp *pass, m map[string]metric) error {
	var opt, samp, volcano float64
	for _, o := range tp.obs {
		opt += o.optMs
		samp += o.sampMs
		volcano += tp.exec[o.sql].ms
	}
	n := float64(max(len(tp.obs), 1))
	share := 0.0
	if opt+samp > 0 {
		share = opt / (opt + samp)
	}
	hits, misses := t.sess.CacheStats()
	m["core.optimize_share"] = metric{share, "ratio"}
	m["sampling.validate_ms_per_query"] = metric{samp / n, "ms"}
	m["executor.volcano_ms_per_query"] = metric{volcano / n, "ms"}
	m["sampling.cache_hit_ratio"] = metric{ratio(float64(hits), float64(hits+misses)), "ratio"}
	m["sampling.cache_lookups_per_query"] = metric{float64(hits+misses) / n, "count"}
	m["sampling.req_per_wave"] = metric{0, "count"}
	m["server.non2xx_total"] = metric{0, "count"}
	return nil
}

// quality re-optimizes the quality set on the session under test and
// executes each final plan; every one must return COUNT 0, as in check.
func (t *ottTarget) quality(ctx context.Context) (qualityOut, error) {
	q := qualityOut{attempted: len(t.qual)}
	for _, src := range t.qual {
		pq, err := t.sess.Parse(src)
		var res *reopt.ReoptResult
		if err == nil {
			res, err = t.sess.Reoptimize(ctx, pq)
		}
		if err != nil {
			q.failed++
			continue
		}
		ex, err := t.sess.Execute(ctx, res.Final, reopt.ExecOptions{CountOnly: true})
		if err != nil {
			return q, fmt.Errorf("execute final plan of %q: %w", src, err)
		}
		if ex.Count != 0 {
			q.wrong++
		}
		q.tuples += float64(ex.Counters.Tuples)
	}
	q.tuples /= float64(max(q.attempted-q.failed, 1))
	return q, nil
}

// execPlusReoptMs is the paper's metric for a pass: execution time of
// the final plan plus re-optimization overhead, per query.
func execPlusReoptMs(p *pass) float64 {
	var sum float64
	for _, o := range p.obs {
		sum += p.exec[o.sql].ms + o.reoptMs
	}
	return sum / float64(max(len(p.obs), 1))
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (t *ottTarget) describe(p *pass, rep *report) {
	rep.note("%d distinct final plans executed, count-only", len(p.exec))
}
