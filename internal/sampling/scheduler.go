package sampling

// Scheduler: workload-level coalescing of validation work.
//
// The batch estimator amortizes shared scans *within* one call — one
// multi-seed run's round-1 candidates. A workload re-optimized
// concurrently leaves the bigger win on the table: at any instant
// several queries sit in their Algorithm-1 round loops, each about to
// run a skeleton pass over the same samples, and those passes overlap
// heavily on a workload of similar queries. The Scheduler turns each
// such pass into a *request*: the round loop submits its candidate
// plans and blocks on a future, and the scheduler gathers requests
// across the in-flight queries into one EstimatePlanGroupsCfg wave —
// subtrees deduplicated across queries, the combined work list
// partitioned across the validation workers, and each sub-result
// charged back to every requester's cache.
//
// Flush triggers, in priority order:
//
//  1. all-waiting: every registered in-flight query is blocked on a
//     submitted request. Nobody can contribute more work, so the wave
//     flushes immediately — in particular, a single query (workload
//     parallelism 1, or a lone Reoptimize) never waits at all, which is
//     what keeps scheduled latency from regressing on serial traffic.
//  2. gather window: a request has been queued for the window without
//     trigger 1 firing (some query is inside its optimizer call). The
//     window bounds the latency any request can pay to coalesce.
//  3. drain: a registered query finishes (or abandons a queued request
//     on cancellation), which can newly satisfy trigger 1 for the rest.
//
// Cancellation is per-requester: a cancelled query's ValidatePlans
// returns its ctx error immediately, while the wave — which runs under
// a context that cancels only when EVERY requester in it is done —
// carries the remaining requesters' shares to completion. Nothing a
// cancelled requester contributed poisons the wave: its tasks are
// content-addressed work other requesters may share, and completed
// waves store only fully computed sub-results.
//
// Results are byte-identical to the serial path at every parallelism:
// batching never changes counts (executor.CountSkeletonBatchPlansCtx),
// and cache reuse never changes estimates, only when they are computed.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"reopt/internal/catalog"
	"reopt/internal/executor"
	"reopt/internal/faultinject"
	"reopt/internal/plan"
)

// DefaultGatherWindow bounds how long a validation request waits for
// concurrent queries to contribute theirs. It only applies while some
// registered query is NOT yet waiting (trigger 1 flushes immediately
// otherwise), so it is sized against the optimizer's per-round planning
// time — a few hundred microseconds on the paper's workloads — not
// against validation time. The adaptive window (window <= 0) uses it
// as the fallback until both EWMAs have observations.
const DefaultGatherWindow = 200 * time.Microsecond

// Adaptive-window bounds: the window never shrinks below the cost of a
// wasted flush (minGatherWindow) and never holds a request hostage past
// maxGatherWindow however slow validation gets. Submission gaps above
// maxOptGap are idle time between workload bursts, not optimizer
// rounds, and are excluded from the optimizer-time EWMA.
const (
	minGatherWindow = 50 * time.Microsecond
	maxGatherWindow = 5 * time.Millisecond
	maxOptGap       = 10 * time.Millisecond
)

// Scheduler coalesces the validation requests of concurrently
// re-optimizing queries into shared skeleton-batch waves. Create one
// per Session with NewScheduler; it is safe for concurrent use.
type Scheduler struct {
	cat       *catalog.Catalog
	workers   int
	window    time.Duration // fixed gather window; <= 0 selects adaptive
	memBudget atomic.Int64  // per-plan value budget for waves; 0 = unlimited
	shards    atomic.Int64  // sample shard count for waves; <= 1 = monolithic
	templates atomic.Bool   // template-shared scans for waves

	// Adaptive gather window state: EWMAs (alpha 1/8) of the observed
	// optimizer round time (gap between a wave finishing and the next
	// submission) and of wave validation time, in nanoseconds. Both
	// zero until first observation. The window trades the two off:
	// long enough to catch the next optimizer round's submission,
	// short relative to the validation it delays.
	optEWMA     atomic.Int64
	valEWMA     atomic.Int64
	lastWaveEnd atomic.Int64 // UnixNano of the last wave completion

	mu     sync.Mutex
	active int // registered in-flight queries
	queue  []*schedRequest
	gen    uint64 // flush generation; guards stale gather timers
	timer  *time.Timer

	waves     int64
	requests  int64
	coalesced int64
}

// NewScheduler returns a scheduler validating against cat with the
// given worker budget (<= 0 selects GOMAXPROCS) and gather window. A
// window <= 0 selects the adaptive window: sized from the observed
// optimizer-round / validation-time ratio, starting from
// DefaultGatherWindow until both have been observed. The window only
// affects how requests batch, never their results.
func NewScheduler(cat *catalog.Catalog, workers int, window time.Duration) *Scheduler {
	if window < 0 {
		window = 0
	}
	return &Scheduler{cat: cat, workers: workers, window: window}
}

// SetMemBudget caps the values any single plan validated through the
// scheduler may materialize (boundary-column cells plus hash-table
// entries); values <= 0 means unlimited. A breaching plan's requester
// gets an error matching executor.ErrMemoryBudget; co-scheduled
// requesters in the same wave are unaffected. Safe to call while waves
// are in flight (new waves pick up the new budget).
func (s *Scheduler) SetMemBudget(values int64) {
	s.memBudget.Store(values)
}

// SetShards sets the sample shard count the scheduler's waves validate
// with (<= 1 means the monolithic layout): shards of one wave fan out
// across the validation workers as independent spans whose partial
// results merge in shard order. Estimates are byte-identical at every
// setting. Safe to call while waves are in flight (new waves pick up
// the new count).
func (s *Scheduler) SetShards(n int) {
	s.shards.Store(int64(n))
}

// SetTemplates turns template-shared scans on or off for subsequent
// waves: tasks sharing a constant-stripped template execute one union
// scan refined per constant, and cached scans are indexed by template
// for near-miss constant reuse. Estimates are byte-identical at either
// setting. Safe to call while waves are in flight.
func (s *Scheduler) SetTemplates(on bool) {
	s.templates.Store(on)
}

// cfg snapshots the scheduler's validation config for one wave.
func (s *Scheduler) cfg() ValidateConfig {
	return ValidateConfig{
		Workers:   s.workers,
		Shards:    int(s.shards.Load()),
		MemBudget: s.memBudget.Load(),
		Templates: s.templates.Load(),
	}
}

// observeEWMA folds one sample into an exponentially weighted moving
// average with alpha 1/8; the first sample seeds the average directly.
func observeEWMA(a *atomic.Int64, x int64) {
	for {
		old := a.Load()
		nw := x
		if old != 0 {
			nw = old + (x-old)/8
		}
		if a.CompareAndSwap(old, nw) {
			return
		}
	}
}

// gatherWindow returns the window the next gather timer should use:
// the fixed window when one was configured, otherwise the adaptive
// window min(2·optimizer-round, validation/4) clamped to
// [minGatherWindow, maxGatherWindow] — wide enough to catch the next
// optimizer round's submission (the coalescing win), narrow relative
// to the validation work it delays (the latency cost). Until both
// EWMAs have observations it falls back to DefaultGatherWindow.
func (s *Scheduler) gatherWindow() time.Duration {
	if s.window > 0 {
		return s.window
	}
	opt, val := s.optEWMA.Load(), s.valEWMA.Load()
	if opt == 0 || val == 0 {
		return DefaultGatherWindow
	}
	w := 2 * time.Duration(opt)
	if v := time.Duration(val) / 4; v < w {
		w = v
	}
	if w < minGatherWindow {
		w = minGatherWindow
	}
	if w > maxGatherWindow {
		w = maxGatherWindow
	}
	return w
}

// SchedulerStats reports what the scheduler has coalesced so far.
type SchedulerStats struct {
	// Waves is the number of batch flushes executed.
	Waves int64
	// Requests is the number of validation requests submitted.
	Requests int64
	// Coalesced counts the requests that shared their wave with at
	// least one other request — the shared-scan wins the scheduler
	// exists for. Requests - Coalesced ran in single-request waves.
	Coalesced int64
}

// Stats returns a snapshot of the scheduler's counters.
func (s *Scheduler) Stats() SchedulerStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SchedulerStats{Waves: s.waves, Requests: s.requests, Coalesced: s.coalesced}
}

// schedRequest is one blocked validation with its result future.
type schedRequest struct {
	ctx   context.Context
	plans []*plan.Plan
	cache Cache
	done  chan schedResult // buffered: the wave never blocks delivering
}

type schedResult struct {
	ests []*Estimate
	err  error
}

// SchedulerClient is one in-flight query's handle on the scheduler.
// Register one per query entering its round loop and Close it when the
// query finishes: the scheduler flushes a gathered wave the moment
// every registered client is waiting, so an un-Closed client would hold
// later waves to the gather window, and Close itself can complete a
// wave for the clients still running. The client satisfies core's
// Validator interface.
type SchedulerClient struct {
	s      *Scheduler
	closed bool
	mu     sync.Mutex
}

// Register adds one in-flight query and returns its client.
func (s *Scheduler) Register() *SchedulerClient {
	s.mu.Lock()
	s.active++
	s.mu.Unlock()
	return &SchedulerClient{s: s}
}

// Close releases the client's registration. Idempotent.
func (c *SchedulerClient) Close() {
	c.mu.Lock()
	wasClosed := c.closed
	c.closed = true
	c.mu.Unlock()
	if wasClosed {
		return
	}
	s := c.s
	s.mu.Lock()
	s.active--
	batch := s.readyLocked()
	s.mu.Unlock()
	if batch != nil {
		go s.run(batch)
	}
}

// ValidatePlans submits the plans for validation against cache and
// blocks until the wave containing them flushes (or ctx is done, in
// which case it returns ctx's error immediately and the wave proceeds
// without waiting on — or aborting for — this requester). Estimates are
// positional and byte-identical to EstimatePlansCtx over the same
// cache.
func (c *SchedulerClient) ValidatePlans(ctx context.Context, plans []*plan.Plan, cache Cache) ([]*Estimate, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	s := c.s
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		// Defensive: a closed client has no registration to coalesce
		// under, so validate directly rather than deadlock a wave.
		return EstimatePlansCfg(ctx, plans, s.cat, cache, s.cfg())
	}
	// The gap between the last wave finishing and this submission is
	// (approximately) one optimizer round: the requester was inside its
	// planning call. Gaps beyond maxOptGap are idle workload time, not
	// planning, and would inflate the adaptive window; skip them.
	if le := s.lastWaveEnd.Load(); le != 0 {
		if gap := time.Now().UnixNano() - le; gap > 0 && gap <= int64(maxOptGap) {
			observeEWMA(&s.optEWMA, gap)
		}
	}
	req := &schedRequest{ctx: ctx, plans: plans, cache: cache, done: make(chan schedResult, 1)}
	s.mu.Lock()
	s.queue = append(s.queue, req)
	s.requests++
	batch := s.readyLocked()
	if batch == nil {
		s.armTimerLocked()
	}
	s.mu.Unlock()
	if batch != nil {
		// Run on a fresh goroutine so a requester cancelled mid-wave
		// returns promptly instead of carrying the wave to completion.
		go s.run(batch)
	}
	select {
	case r := <-req.done:
		return r.ests, r.err
	case <-ctx.Done():
		s.abandon(req)
		// The wave may have delivered between cancellation and abandon;
		// prefer the computed result, it is already paid for.
		select {
		case r := <-req.done:
			return r.ests, r.err
		default:
		}
		return nil, ctx.Err()
	}
}

// readyLocked takes the queued batch when the all-waiting trigger
// holds: at least one request is queued and no registered query is
// still running toward its own submission.
func (s *Scheduler) readyLocked() []*schedRequest {
	if len(s.queue) == 0 || len(s.queue) < s.active {
		return nil
	}
	return s.takeLocked()
}

// takeLocked removes and returns the queued batch, advancing the flush
// generation (which invalidates any armed gather timer).
func (s *Scheduler) takeLocked() []*schedRequest {
	batch := s.queue
	s.queue = nil
	s.gen++
	if s.timer != nil {
		s.timer.Stop()
		s.timer = nil
	}
	s.waves++
	if len(batch) > 1 {
		s.coalesced += int64(len(batch))
	}
	return batch
}

// armTimerLocked schedules the gather-window flush for the current
// batch generation, if none is pending.
func (s *Scheduler) armTimerLocked() {
	if s.timer != nil {
		return
	}
	gen := s.gen
	s.timer = time.AfterFunc(s.gatherWindow(), func() {
		s.mu.Lock()
		if s.gen != gen {
			// A flush already took this generation's batch; the timer
			// field now belongs to a newer generation (or is nil).
			s.mu.Unlock()
			return
		}
		if len(s.queue) == 0 {
			// Every queued request was abandoned; retire the timer so
			// the next submission arms a fresh window.
			s.timer = nil
			s.mu.Unlock()
			return
		}
		batch := s.takeLocked()
		s.mu.Unlock()
		s.run(batch)
	})
}

// abandon removes a cancelled request from the queue (when still
// queued) and flushes the remaining batch if the all-waiting trigger
// now holds for the others.
func (s *Scheduler) abandon(req *schedRequest) {
	s.mu.Lock()
	for i, r := range s.queue {
		if r == req {
			s.queue = append(s.queue[:i], s.queue[i+1:]...)
			break
		}
	}
	batch := s.readyLocked()
	s.mu.Unlock()
	if batch != nil {
		go s.run(batch)
	}
}

// run executes one wave: all queued requests as one deduplicated
// skeleton batch, each request's estimates delivered to its future.
// Failures are contained at two granularities: a plan that panics or
// breaches the memory budget inside the batch fails only its
// requester's perGroup slot, and a panic at the wave boundary itself —
// which no single requester can be blamed for — is recovered by
// runWave and delivered to every requester as a *PanicError rather
// than crashing the process (waves often run on scheduler-owned
// goroutines with no caller underneath).
func (s *Scheduler) run(batch []*schedRequest) {
	// Boundary recover for the scheduler-owned goroutine (§5): a panic
	// outside runWave — group assembly, merged-context plumbing, result
	// delivery — must fail this wave's requesters, not the process.
	// done channels are buffered(1), so the non-blocking send skips any
	// requester already answered before the panic.
	defer func() {
		if r := recover(); r != nil {
			err := executor.NewPanicError(r)
			for _, req := range batch {
				select {
				case req.done <- schedResult{err: err}:
				default:
				}
			}
		}
	}()
	if len(batch) == 0 {
		return
	}
	groups := make([]PlanGroup, len(batch))
	for i, r := range batch {
		groups[i] = PlanGroup{Plans: r.plans, Cache: r.cache}
	}
	wctx, stop := mergedContext(batch)
	start := time.Now()
	ests, perGroup, err := s.runWave(wctx, groups, len(batch))
	stop()
	observeEWMA(&s.valEWMA, int64(time.Since(start)))
	s.lastWaveEnd.Store(time.Now().UnixNano())
	for i, r := range batch {
		var res schedResult
		switch {
		case err != nil:
			// Batch-level failure. A wave abort (every requester done)
			// surfaces as the merged context's Canceled; translate it to
			// each requester's own termination cause — a deadline
			// requester must see DeadlineExceeded to keep core's
			// best-so-far budget semantics.
			if ctxErr := r.ctx.Err(); ctxErr != nil && errors.Is(err, context.Canceled) {
				res.err = ctxErr
			} else {
				res.err = err
			}
		case perGroup[i] != nil:
			res.err = perGroup[i]
		default:
			res.ests = ests[i]
		}
		r.done <- res
	}
}

// runWave executes one wave's estimation with a boundary recover: a
// panic escaping the batch machinery (or injected at the wave seam)
// becomes a batch-level *PanicError instead of unwinding into run's
// goroutine and killing the process.
func (s *Scheduler) runWave(wctx context.Context, groups []PlanGroup, requests int) (ests [][]*Estimate, perGroup []error, err error) {
	defer func() {
		if r := recover(); r != nil {
			ests, perGroup, err = nil, nil, executor.NewPanicError(r)
		}
	}()
	if faultinject.Active() {
		faultinject.Fire(faultinject.SchedulerWave, fmt.Sprintf("requests=%d", requests))
	}
	return estimateGroupsFn(wctx, groups, s.cat, s.cfg())
}

// estimateGroupsFn indirects the wave executor for tests that need to
// observe or stall a wave in flight.
var estimateGroupsFn = EstimatePlanGroupsCfg

// mergedContext returns the context a wave runs under: done only when
// EVERY requester's context is done, so one query's cancellation never
// aborts another's share of the wave, while a wave nobody is left to
// consume stops promptly. A single requester with a non-cancellable
// context pins the wave to completion. The returned stop func releases
// the watcher goroutines; call it as soon as the wave returns.
func mergedContext(batch []*schedRequest) (context.Context, func()) {
	dones := make([]<-chan struct{}, 0, len(batch))
	for _, r := range batch {
		d := r.ctx.Done()
		if d == nil {
			return context.Background(), func() {}
		}
		dones = append(dones, d)
	}
	wctx, cancel := context.WithCancel(context.Background())
	stop := make(chan struct{})
	var left atomic.Int32
	left.Store(int32(len(dones)))
	for _, d := range dones {
		go func(d <-chan struct{}) {
			// Contained per the §5 goroutine contract. The body is
			// select+atomic and cannot panic short of runtime
			// corruption; if it somehow does, cancelling the wave is
			// the fail-safe direction (the wave aborts, requesters get
			// their own termination causes) — crashing the process is
			// not.
			defer func() {
				if r := recover(); r != nil {
					cancel()
				}
			}()
			select {
			case <-d:
				if left.Add(-1) == 0 {
					cancel()
				}
			case <-stop:
			}
		}(d)
	}
	return wctx, func() {
		close(stop)
		cancel()
	}
}
