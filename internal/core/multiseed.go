package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sampling"
	"reopt/internal/sql"
)

// ReoptimizeMultiSeed implements the §7 future-work variant: "rather
// than just returning one plan, the optimizer could return several
// candidates and let the re-optimization procedure work on each of
// them." It seeds the procedure with up to seeds distinct initial plans
// — the DP optimum plus randomized left-deep plans from different random
// seeds — runs Algorithm 1 from each, and returns the run whose final
// plan has the lowest sampled cost under its own validated statistics.
func (r *Reoptimizer) ReoptimizeMultiSeed(q *sql.Query, seeds int) (*Result, error) {
	return r.ReoptimizeMultiSeedCtx(context.Background(), q, seeds)
}

// ReoptimizeMultiSeedCtx is ReoptimizeMultiSeed with cancellation and
// the unified time budget of ReoptimizeCtx: one budget (Options.Timeout
// or the caller's deadline, whichever is earlier) covers the whole
// multi-seed procedure. Cancellation aborts with ctx.Err(); a deadline
// stops starting new seeded runs and returns the best result so far.
// Each started run's round-1 validation is shielded from the internal
// budget deadline, so every started run yields a result.
func (r *Reoptimizer) ReoptimizeMultiSeedCtx(ctx context.Context, q *sql.Query, seeds int) (*Result, error) {
	if seeds < 1 {
		seeds = 1
	}
	run, cancel := r.budgetCtx(ctx)
	defer cancel()
	if err := ctx.Err(); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return nil, fmt.Errorf("core: %w", ErrBudgetExceeded)
		}
		return nil, err
	}
	initials, err := r.initialPlans(q, seeds)
	if err != nil {
		return nil, err
	}
	// All seeded runs validate the same query over the same samples, so
	// one validation cache serves every run: subtrees validated while
	// re-optimizing one seed are reused by the others (a configured
	// workload cache extends that reuse across queries).
	cache := r.runCache()

	// Batched round 1: every seed's initial candidate is validated in
	// one shared-scan pass. The candidates are join-order permutations
	// of one query, so their subtrees overlap heavily — the batch
	// executes each distinct subtree once and partitions the combined
	// work across Options.Workers, where the per-seed loop below would
	// run them one at a time on samples too small to fan out. Each
	// run's round-1 validation then replays from the cache,
	// byte-identical to having computed it itself; the batch's cost is
	// charged back to the runs in equal shares below. Under an explicit
	// Options.Timeout the batch is skipped — a tight budget should stop
	// after the first seed, not validate *all* candidates up front. A
	// deadline on the caller's own context does NOT skip it (a routine
	// server deadline must not silently disable the shared-scan
	// optimization): the batch runs under `run`, so the deadline aborts
	// it in flight, and the procedure falls back to the lazy per-seed
	// path, which still yields a best-so-far result.
	var warmShare time.Duration
	if len(initials) > 1 && r.Opts.Timeout == 0 {
		t0 := time.Now()
		if _, err := r.validatePlans(run, initials, cache); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				return nil, err
			}
		} else {
			warmShare = time.Since(t0) / time.Duration(len(initials))
		}
	}

	var best *Result
	var bestCost float64
	for _, p := range initials {
		res, err := r.reoptimizeSeeded(ctx, run, q, p, cache)
		if err != nil {
			return nil, err
		}
		res.ReoptTime += warmShare
		rp, rerr := r.Opt.Recost(q, res.Final, res.Gamma)
		switch {
		case rerr == nil && (best == nil || rp.Cost() < bestCost):
			best, bestCost = res, rp.Cost()
		case rerr != nil && best == nil:
			// Recost failed but the run itself completed: keep it at the
			// worst possible cost (any re-costable later seed replaces
			// it) so a result always exists and the budget check below
			// can stop the seeds loop even when every Recost fails.
			best, bestCost = res, math.Inf(1)
		}
		if err := run.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			break
		}
	}
	if best == nil {
		// Reachable only when the budget stopped the seeds loop before
		// the first seed completed, so classify it as such.
		return nil, fmt.Errorf("core: multi-seed re-optimization produced no result: %w", ErrBudgetExceeded)
	}
	return best, nil
}

// initialPlans generates up to n distinct starting plans.
func (r *Reoptimizer) initialPlans(q *sql.Query, n int) ([]*plan.Plan, error) {
	var out []*plan.Plan
	seen := map[string]bool{}
	add := func(p *plan.Plan) {
		fp := p.Fingerprint()
		if !seen[fp] {
			seen[fp] = true
			out = append(out, p)
		}
	}
	p, err := r.Opt.Optimize(q, nil)
	if err != nil {
		return nil, err
	}
	add(p)
	cfg := r.Opt.Config()
	for s := int64(1); len(out) < n && s <= int64(4*n); s++ {
		altCfg := cfg
		altCfg.Seed = cfg.Seed + s
		altCfg.DPThreshold = 1 // force the randomized search
		alt := optimizer.New(r.Opt.Catalog(), altCfg)
		ap, err := alt.Optimize(q, nil)
		if err != nil {
			continue
		}
		add(ap)
	}
	return out, nil
}

// reoptimizeSeeded is Reoptimize with an externally supplied P_1: P_1
// is validated, its Δ is merged into Γ, and the loop proceeds normally
// from round 2. outer is the caller's context (P_1's validation runs
// under it, shielded from the internal budget); run carries the shared
// multi-seed budget deadline for everything else.
func (r *Reoptimizer) reoptimizeSeeded(outer, run context.Context, q *sql.Query, p1 *plan.Plan, cache sampling.Cache) (*Result, error) {
	if !r.Cat.HasSamples() {
		return nil, fmt.Errorf("core: %w; call BuildSamples before re-optimizing", sampling.ErrNoSamples)
	}
	if cache == nil {
		cache = sampling.NewValidationCache()
	}
	gamma := optimizer.NewGamma()
	res := &Result{Gamma: gamma}

	// Round 1: validate the seed plan. There is no optimizer call to
	// charge — P_1 was handed in — matching Reoptimize, which never
	// counts round 1's optimization as overhead. The validation is
	// shielded from the budget deadline so every started run produces a
	// result; only the caller's own termination aborts it.
	ch := chain{seen: map[string]bool{}}
	if err := r.validateRound(outer, q, &ch, p1, p1.Fingerprint(), gamma, res, cache, 0); err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			// The caller's own deadline fired mid-validation: the
			// un-validated seed is still the best answer this run has.
			res.Final = p1
			res.NumPlans = 1
			return res, nil
		}
		return nil, err
	}

	for i := 2; ; i++ {
		t0 := time.Now()
		p, err := r.Opt.Optimize(q, gamma)
		if err != nil {
			return nil, fmt.Errorf("core: seeded round %d: %w", i, err)
		}
		optTime := time.Since(t0)
		// Every optimizer call in this loop is a round >= 2 (including
		// the terminal one that merely re-produces P_n), so all of them
		// count toward the overhead, exactly as in Reoptimize.
		res.ReoptTime += optTime
		fp := p.Fingerprint()
		if fp == ch.fp {
			res.Converged = true
			break
		}
		if err := r.validateRound(run, q, &ch, p, fp, gamma, res, cache, optTime); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			if errors.Is(err, context.DeadlineExceeded) {
				break
			}
			return nil, err
		}
		if r.Opts.MaxRounds > 0 && i >= r.Opts.MaxRounds {
			break
		}
		if err := run.Err(); err != nil {
			if errors.Is(err, context.Canceled) {
				return nil, err
			}
			break
		}
	}
	res.Final = r.pickFinal(q, res, ch.prev)
	return res, nil
}
