package executor

// Batched multi-plan count-skeleton execution.
//
// CountSkeletonBatch evaluates several plans' count-only skeletons as
// one job. Validating plans one at a time leaves two kinds of work on
// the table: subtrees shared *between* the submitted plans are executed
// once per plan (the cross-round cache only helps the plans validated
// after the first), and the partitioned loops of each individual plan
// rarely fan out, because per-table samples are a few hundred rows —
// below the single-plan engine's fixed per-pass fan-out threshold.
//
// The batch engine fixes both. Every subtree of every plan becomes one
// *task*, deduplicated across plans by canonical signature plus
// boundary-column set (the same key the cache uses), so a subtree
// shared by five candidate plans is executed once. Tasks are grouped
// into waves by join depth — all leaf scans, then joins whose inputs
// are done, and so on — and each wave's work (every task's filter
// passes, selection materializations, gathers, hash-table builds, and
// probes) forms one combined work list, partitioned into contiguous
// spans whose size derives from the wave's *total* rows divided by the
// worker count (adaptiveChunk). A worker pool drains the list, so
// Options.Workers pays off even when each individual sample is far
// below the single-plan fan-out threshold: parallelism comes from the
// batch, not from any one scan.
//
// Determinism: every parallel unit writes private state (a span of a
// task's bitmap or selection vector, a span's private row-id pairs, a
// disjoint range of an output column), spans land at prefix-sum offsets
// in ascending row order, and NULL bitmap words are set sequentially
// after each gather — so counts and materialized columns are
// byte-identical to running the single-plan engine over the same plans
// sequentially, at every worker count and cache state.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"reopt/internal/faultinject"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// CountSkeletonBatch computes the per-node output counts of several
// count-only skeletons in one deduplicated, partitioned pass. It
// returns one counts map per plan, positionally. A plan outside the
// engine's contract yields a nil map and an ErrSkeletonUnsupported
// error in its perPlan slot while the remaining plans still execute
// (callers fall back to the general executor for just that plan); a
// runtime failure (e.g. the binder cannot resolve a table) aborts the
// whole batch via err. cache may be nil; workers <= 0 selects
// GOMAXPROCS. Counts are byte-identical to sequential CountSkeleton
// runs over the same cache at every worker count.
func CountSkeletonBatch(plans []*plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, workers int) (counts []map[plan.Node]int64, perPlan []error, err error) {
	return CountSkeletonBatchCtx(context.Background(), plans, binder, cache, workers)
}

// CountSkeletonBatchCtx is CountSkeletonBatch with cancellation: ctx is
// checked between waves, between a wave's phases, and before each span
// of a phase's combined work list, so a cancelled context aborts the
// batch with ctx.Err() after at most one in-flight span per worker.
// Results are only written to the cache when their wave completed fully,
// so an abort never leaves partial sub-results behind — the cache stays
// exactly as valid as before the call. Uncancelled runs are
// byte-identical to CountSkeletonBatch.
func CountSkeletonBatchCtx(ctx context.Context, plans []*plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, workers int) (counts []map[plan.Node]int64, perPlan []error, err error) {
	bplans := make([]BatchPlan, len(plans))
	for i, p := range plans {
		bplans[i] = BatchPlan{Plan: p, Cache: cache}
	}
	return CountSkeletonBatchPlansCtx(ctx, bplans, binder, workers)
}

// BatchPlan pairs one plan of a cross-query batch with the cache its
// requester validates through. Plans of one requester share a cache;
// plans of different requesters may carry different caches (or none),
// and the batch still deduplicates their common subtrees — a sub-result
// computed once is charged to every requester's cache.
type BatchPlan struct {
	Plan  *plan.Plan
	Cache *SkeletonCache // may be nil (uncached requester)
}

// CountSkeletonBatchPlansCtx is the cross-query generalization of
// CountSkeletonBatchCtx: each submitted plan carries its own cache, so
// validations of *different* queries — each holding a private per-run
// cache, or distinct views of one workload cache — execute as one
// deduplicated, partitioned pass. Subtrees shared across requesters run
// once; the sub-result (and any build-side hash table) is then stored
// under every requester's cache, and a hit in any one requester's cache
// is propagated to the others, so per-requester caches stay exactly as
// warm as if each requester had run alone. Counts are byte-identical to
// sequential CountSkeleton runs per plan over its own cache, at every
// worker count and cache mixture.
func CountSkeletonBatchPlansCtx(ctx context.Context, bplans []BatchPlan, binder func(string) (*storage.Table, error), workers int) (counts []map[plan.Node]int64, perPlan []error, err error) {
	return CountSkeletonBatchBudgetCtx(ctx, bplans, binder, workers, 0)
}

// CountSkeletonBatchBudgetCtx is CountSkeletonBatchPlansCtx with
// failure containment and a per-plan soft memory budget. memBudget (<=
// 0 unlimited) caps the values EACH submitted plan may materialize; the
// batch charges every plan for every node of its own tree — shared
// tasks charge each sharer, and cache hits charge like computed
// results — so a plan's verdict is identical to a solo
// CountSkeletonBudgetCtx run. A breaching plan gets ErrMemoryBudget in
// its perPlan slot; its co-batched plans are unaffected. A panic inside
// a work unit fails only the plans whose trees contain that unit's
// task, as a *PanicError in their perPlan slots, while the wave
// completes for everyone else; panics outside any unit abort the batch
// via err (never by unwinding into the caller). Failed tasks store
// nothing in any cache.
func CountSkeletonBatchBudgetCtx(ctx context.Context, bplans []BatchPlan, binder func(string) (*storage.Table, error), workers int, memBudget int64) (counts []map[plan.Node]int64, perPlan []error, err error) {
	return CountSkeletonBatchCfg(ctx, bplans, binder, SkelConfig{Workers: workers, MemBudget: memBudget})
}

// CountSkeletonBatchCfg is CountSkeletonBatchBudgetCtx with the full
// config struct. With cfg.Shards > 1, every sample scan and hash-table
// build splits into that many contiguous word-aligned partitions whose
// partial results merge in shard order — so one wave's work fans out
// across the worker pool even when a single sample would be too small
// to split — with counts, cached sub-results, budget verdicts, and
// cache keys byte-identical to the monolithic layout.
func CountSkeletonBatchCfg(ctx context.Context, bplans []BatchPlan, binder func(string) (*storage.Table, error), cfg SkelConfig) (counts []map[plan.Node]int64, perPlan []error, err error) {
	defer func() {
		if r := recover(); r != nil {
			counts, perPlan, err = nil, nil, NewPanicError(r)
		}
	}()
	cfg = cfg.norm()
	workers := cfg.Workers
	if workers == 1 {
		// One worker means the combined work list cannot fan out, so the
		// batch machinery (task graph, span closures, per-task bitmaps)
		// would be pure overhead. The single-plan engine over each plan's
		// cache computes identical counts — cross-plan reuse still comes
		// from shared caches — with reusable per-engine scratch.
		counts = make([]map[plan.Node]int64, len(bplans))
		perPlan = make([]error, len(bplans))
		for i, bp := range bplans {
			c, cerr := CountSkeletonCfg(ctx, bp.Plan, binder, bp.Cache,
				SkelConfig{Workers: 1, Shards: cfg.Shards, MemBudget: cfg.MemBudget, Templates: cfg.Templates})
			if cerr != nil {
				if errors.Is(cerr, ErrSkeletonUnsupported) ||
					errors.Is(cerr, ErrMemoryBudget) ||
					errors.Is(cerr, ErrValidationPanic) {
					perPlan[i] = cerr
					continue
				}
				return nil, nil, cerr
			}
			counts[i] = c
		}
		return counts, perPlan, nil
	}
	b := &batchBuilder{tasks: map[string]*batchTask{}}
	nodeTasks := make([]map[plan.Node]*batchTask, len(bplans))
	perPlan = make([]error, len(bplans))
	for i, bp := range bplans {
		m := map[plan.Node]*batchTask{}
		if _, berr := b.taskFor(bp.Plan.Root, bp.Plan.Query, bp.Cache, m); berr != nil {
			// Tasks already created for this plan's subtrees stay in the
			// batch: they are valid work, and other plans may share them.
			perPlan[i] = berr
			continue
		}
		nodeTasks[i] = m
	}

	// Invert node→task into task→plans, with multiplicity: a plan whose
	// tree contains the same logical subtree twice charges its budget
	// twice for it, exactly as the single-plan engine would.
	users := map[*batchTask][]int{}
	for i := range bplans {
		if perPlan[i] != nil {
			continue
		}
		for _, t := range nodeTasks[i] {
			users[t] = append(users[t], i)
		}
	}
	accounts := make([]memAccount, len(bplans))
	for i := range accounts {
		accounts[i].budget = cfg.MemBudget
	}

	// Group tasks into waves by join depth; creation order within a
	// wave keeps scheduling and merging deterministic.
	maxWave := 0
	for _, t := range b.order {
		if t.wave > maxWave {
			maxWave = t.wave
		}
	}
	waves := make([][]*batchTask, maxWave+1)
	for _, t := range b.order {
		waves[t.wave] = append(waves[t.wave], t)
	}
	for w, wave := range waves {
		// Drop tasks whose every user plan has already failed (budget
		// breach, panic, or build-time rejection): a join task is only
		// live when some user plan survives, and that plan keeps every
		// child of the join live too (a plan's node set is closed under
		// subtrees), so live tasks never reference dropped inputs.
		live := wave[:0:0]
		for _, t := range wave {
			for _, pi := range users[t] {
				if perPlan[pi] == nil {
					live = append(live, t)
					break
				}
			}
		}
		if len(live) == 0 {
			continue
		}
		if err = ctx.Err(); err != nil {
			return nil, nil, err
		}
		if faultinject.Active() {
			tag := "scan"
			if w > 0 {
				tag = fmt.Sprintf("join:%d", w)
			}
			faultinject.Fire(faultinject.Wave, tag)
		}
		if w == 0 {
			err = runScanWave(ctx, live, binder, workers, cfg.Shards, cfg.Templates)
		} else {
			err = runJoinWave(ctx, live, workers, cfg.Shards)
		}
		if err != nil {
			return nil, nil, err
		}
		settleWave(live, users, accounts, perPlan)
	}

	counts = make([]map[plan.Node]int64, len(bplans))
	for i := range bplans {
		if perPlan[i] != nil {
			continue
		}
		m := make(map[plan.Node]int64, len(nodeTasks[i]))
		for n, t := range nodeTasks[i] {
			m[n] = int64(t.sub.count)
		}
		counts[i] = m
	}
	return counts, perPlan, nil
}

// settleWave attributes a completed wave's outcomes to the submitted
// plans: a failed task delivers its captured panic to every plan whose
// tree contains it, and every completed task charges each of its user
// plans' memory accounts (per occurrence in that plan's tree). Plans
// already failed neither charge nor re-fail. Charges are non-negative
// and the breach verdict is "total exceeds budget", so settling after
// the wave is equivalent to the single-plan engine's charge-as-you-go.
func settleWave(wave []*batchTask, users map[*batchTask][]int, accounts []memAccount, perPlan []error) {
	for _, t := range wave {
		if cp := t.failedPanic(); cp != nil {
			for _, pi := range users[t] {
				if perPlan[pi] == nil {
					perPlan[pi] = NewPanicError(cp)
				}
			}
			continue
		}
		charge := subCharge(t.sub)
		if t.join != nil {
			charge += int64(t.right.sub.count) // hash-table entries
		}
		for _, pi := range users[t] {
			if perPlan[pi] != nil {
				continue
			}
			if accounts[pi].charge(charge) {
				perPlan[pi] = ErrMemoryBudget
			}
		}
	}
}

// cacheRef is one requester cache a task serves: the (prefix-qualified)
// key of the task's sub-result under that cache, and — for joins,
// resolved during the wave — the key and cached value of the build-side
// hash table. A task shared by requesters holding different caches
// carries one ref per distinct cache, so the sub-result computed (or
// found) once lands in every requester's cache.
type cacheRef struct {
	cache *SkeletonCache
	key   string     // sub-result key under cache
	tkey  string     // hash-table key under cache (join waves)
	table *hashTable // cached table found under cache, if any
}

// batchTask is one deduplicated logical subtree of the batch. Exactly
// one of scan/join is set; left/right are set for joins.
type batchTask struct {
	seq   int    // creation order
	key   string // dedupe key: signature + boundary refs
	sig   string // canonical subtree signature (cache-independent)
	crefs []cacheRef
	q     *sql.Query
	refs  []sql.ColRef
	wave  int

	scan        *plan.ScanNode
	join        *plan.JoinNode
	left, right *batchTask

	// Build-time resolution (also the per-plan unsupported check).
	filterPos []int // scan: schema position of each filter column
	boundPos  []int // scan: schema position of each boundary column
	preds     []sql.JoinPred
	lkey      []int
	rkey      []int
	gather    []gatherSrc

	// Template sharing (scan tasks, SkelConfig.Templates only): the
	// constant-stripped template of the scan, and the shared-scan group
	// the task rides in its wave, if any (nil = solo execution).
	tmpl   scanTemplate
	tmplOK bool
	group  *scanGroup

	sub *subResult // the result, once the task's wave has run

	// failed is set (first capture wins) when a work unit serving this
	// task panics; the task then computes no sub-result, stores nothing,
	// and settleWave fails every plan whose tree contains it.
	failed atomic.Pointer[capturedPanic]

	// Wave-execution scratch, released in the wave's final stage. A
	// scan task holds one scanShard per sample shard (exactly one with
	// the monolithic layout); shard outputs land in shard order in
	// cols/selTotal before the final stage. A join task's probe spans
	// fill parts, which place their pairs in cols at prefix-sum offsets.
	shards   []scanShard
	selTotal int
	cols     []*storage.ColData
	table    *hashTable
	parts    []probePart
	pspans   []span
}

// shardScan is the filter state of one sample shard, shared by solo
// scan tasks and template groups: the shard's column store view, its
// compiled filter passes (passes close over the shard's column slices,
// so compilation is per shard), its bitmaps, per-span survivor counts,
// and the selection vector they materialize into.
type shardScan struct {
	cs     *storage.ColStore
	nrows  int
	passes []scanPass
	bm, fb *vec.Bitmap
	spans  []span
	cnts   []int
	sel    []int32
}

// scanShard is one scan task's shardScan plus the shard's destination
// offset in the task's output columns — the precomputed form of the
// shard-order merge.
type scanShard struct {
	shardScan
	off int
}

// filterUnits appends one unit per span of the shard: it evaluates the
// filter passes into the shard's bitmap and counts the span's
// survivors, or — without filters — writes the identity selection.
// Every unit first fires fault point p (tagged sig) and the shard unit
// (tagged sig#shard=si).
func (sh *shardScan) filterUnits(units []workUnit, chunk int, fail func(*capturedPanic), p faultinject.Point, sig string, si int) []workUnit {
	sh.spans = chunkSpans(sh.nrows, chunk)
	if len(sh.passes) == 0 {
		sh.sel = make([]int32, sh.nrows)
	} else {
		sh.bm = vec.NewBitmap(sh.nrows)
		if len(sh.passes) > 1 {
			sh.fb = vec.NewBitmap(sh.nrows)
		}
		sh.cnts = make([]int, len(sh.spans))
	}
	for spi := range sh.spans {
		spi := spi
		units = append(units, workUnit{fail: fail, run: func() {
			if faultinject.Active() {
				faultinject.Fire(p, sig)
				faultinject.Fire(faultinject.ShardUnit, fmt.Sprintf("%s#shard=%d", sig, si))
			}
			s := sh.spans[spi]
			if len(sh.passes) == 0 {
				for i := s.lo; i < s.hi; i++ {
					sh.sel[i] = int32(i)
				}
				return
			}
			sh.passes[0](sh.bm, s.lo, s.hi)
			for _, pass := range sh.passes[1:] {
				pass(sh.fb, s.lo, s.hi)
				sh.bm.And(sh.fb, s.lo, s.hi)
			}
			sh.cnts[spi] = sh.bm.Count(s.lo, s.hi)
		}})
	}
	return units
}

// selUnits allocates a filtered shard's selection vector and appends
// one unit per non-empty span materializing its survivors at the span's
// prefix-sum offset, so the selection ascends regardless of completion
// order. Identity shards already hold their selection.
func (sh *shardScan) selUnits(units []workUnit, fail func(*capturedPanic)) []workUnit {
	if len(sh.passes) == 0 {
		return units
	}
	total := 0
	for _, c := range sh.cnts {
		total += c
	}
	sh.sel = make([]int32, total)
	off := 0
	for spi, cnt := range sh.cnts {
		if cnt > 0 {
			s, dst := sh.spans[spi], sh.sel[off:off:off+cnt]
			units = append(units, workUnit{fail: fail, run: func() {
				sh.bm.AppendIndices(dst, s.lo, s.hi)
			}})
		}
		off += cnt
	}
	return units
}

// addCache registers one more requester cache on the task (and,
// transitively via taskFor's recursion, on every task of that
// requester's subtree). Distinct views of one store with the same
// prefix resolve to the same key, so they collapse into one ref.
func (t *batchTask) addCache(c *SkeletonCache) {
	if c == nil {
		return
	}
	for i := range t.crefs {
		if t.crefs[i].cache.store == c.store && t.crefs[i].cache.prefix == c.prefix {
			return
		}
	}
	t.crefs = append(t.crefs, cacheRef{cache: c, key: c.subKey(t.sig, t.refs)})
}

// primaryKey is the sig a freshly computed sub-result carries: the
// first registered cache's key, or "" for a fully uncached task —
// exactly what the single-cache engine would have stored.
func (t *batchTask) primaryKey() string {
	if len(t.crefs) == 0 {
		return ""
	}
	return t.crefs[0].key
}

// keyFor returns the task's sub-result key under the given cache's
// namespace, or "" when the task does not serve that cache.
func (t *batchTask) keyFor(c *SkeletonCache) string {
	for i := range t.crefs {
		if t.crefs[i].cache.store == c.store && t.crefs[i].cache.prefix == c.prefix {
			return t.crefs[i].key
		}
	}
	return ""
}

// lookupSub probes the task's caches in registration order and, on a
// hit, propagates the sub-result into the caches that missed — exactly
// what each of those requesters would have stored had it validated the
// subtree alone. Cached sub-results are content-addressed, so whichever
// cache answers, the counts are the ones a fresh execution would
// produce, byte for byte.
func (t *batchTask) lookupSub() *subResult {
	for i := range t.crefs {
		if sub, ok := t.crefs[i].cache.getSub(t.crefs[i].key); ok {
			t.storeSub(sub, i)
			return sub
		}
	}
	return nil
}

// storeSub writes a sub-result into every registered cache except the
// one at index skip (-1 stores everywhere). Each cache receives a view
// carrying its own key as sig, so hash-table keying against that cache
// stays consistent for later single-plan runs; the materialized columns
// are shared, never copied.
func (t *batchTask) storeSub(sub *subResult, skip int) {
	for i := range t.crefs {
		if i == skip {
			continue
		}
		cr := &t.crefs[i]
		s := sub
		if s.sig != cr.key {
			s = &subResult{sig: cr.key, count: sub.count, refs: sub.refs, cols: sub.cols}
		}
		cr.cache.putSub(cr.key, s)
	}
}

// failWith records a captured panic on the task; the first capture
// wins when several spans of one task fail concurrently.
func (t *batchTask) failWith(cp *capturedPanic) {
	t.failed.CompareAndSwap(nil, cp)
}

// failedPanic returns the task's captured panic, if any.
func (t *batchTask) failedPanic() *capturedPanic {
	return t.failed.Load()
}

// probePart is one probe span's private output: its match count, its
// matches as row-id pairs (empty for count-only joins), and its offset
// in the task's output columns.
type probePart struct {
	count int
	off   int
	pairs pairBuf
}

// batchBuilder deduplicates subtrees across the submitted plans.
type batchBuilder struct {
	tasks map[string]*batchTask
	order []*batchTask
}

// refsSuffix renders a boundary-column set for dedupe keys, sharing
// the cache key's serialization (appendRefs) so the two never diverge.
func refsSuffix(refs []sql.ColRef) string {
	return string(appendRefs(nil, refs))
}

// taskFor returns the (possibly shared) task computing node n of query
// q, creating it — and recursively its children — on first encounter,
// and registers cache (the submitting plan's) on the task either way.
// All unsupported-shape detection happens here, before any execution,
// so one bad plan never aborts the batch. m records the node→task
// mapping for the plan being built.
func (b *batchBuilder) taskFor(n plan.Node, q *sql.Query, cache *SkeletonCache, m map[plan.Node]*batchTask) (*batchTask, error) {
	switch t := n.(type) {
	case *plan.ScanNode:
		refs := boundaryColumns(q, []string{t.Alias})
		sig := subtreeSig(t)
		key := sig + refsSuffix(refs)
		if bt, ok := b.tasks[key]; ok {
			bt.addCache(cache)
			m[n] = bt
			return bt, nil
		}
		bt := &batchTask{seq: len(b.order), key: key, sig: sig, q: q, refs: refs, scan: t}
		bt.addCache(cache)
		bt.filterPos = make([]int, len(t.Filters))
		for fi, f := range t.Filters {
			pos, err := t.OutSchema.IndexOf(f.Col.Table, f.Col.Column)
			if err != nil {
				return nil, fmt.Errorf("executor: skeleton scan %s: filter column %s: %v: %w",
					t.Alias, f.Col, err, ErrSkeletonUnsupported)
			}
			bt.filterPos[fi] = pos
		}
		bt.boundPos = make([]int, len(refs))
		for k, ref := range refs {
			pos, err := t.OutSchema.IndexOf(ref.Table, ref.Column)
			if err != nil {
				return nil, fmt.Errorf("executor: skeleton scan %s: boundary column %s.%s: %v: %w",
					t.Alias, ref.Table, ref.Column, err, ErrSkeletonUnsupported)
			}
			bt.boundPos[k] = pos
		}
		b.tasks[key] = bt
		b.order = append(b.order, bt)
		m[n] = bt
		return bt, nil

	case *plan.JoinNode:
		l, err := b.taskFor(t.Left, q, cache, m)
		if err != nil {
			return nil, err
		}
		r, err := b.taskFor(t.Right, q, cache, m)
		if err != nil {
			return nil, err
		}
		refs := boundaryColumns(q, t.Aliases())
		sig := subtreeSig(t)
		key := sig + refsSuffix(refs)
		if bt, ok := b.tasks[key]; ok {
			bt.addCache(cache)
			m[n] = bt
			return bt, nil
		}
		bt := &batchTask{
			seq: len(b.order), key: key, sig: sig, q: q, refs: refs,
			join: t, left: l, right: r,
		}
		bt.wave = l.wave + 1
		if r.wave >= l.wave {
			bt.wave = r.wave + 1
		}
		bt.addCache(cache)
		bt.preds, bt.lkey, bt.rkey, err = joinKeys(t.Preds, l.refs, r.refs)
		if err != nil {
			return nil, err
		}
		bt.gather, err = gatherPlan(refs, l.refs, r.refs)
		if err != nil {
			return nil, err
		}
		b.tasks[key] = bt
		b.order = append(b.order, bt)
		m[n] = bt
		return bt, nil

	default:
		return nil, fmt.Errorf("executor: cannot evaluate %T: %w", n, ErrSkeletonUnsupported)
	}
}

// --- Combined work-list scheduling ---

// maxChunkRows bounds a batch span from above: beyond it, larger spans
// only worsen load balancing across heterogeneous tasks.
const maxChunkRows = 4096

// adaptiveChunk sizes the spans of one wave's combined work list from
// the wave's total row count: a quarter of the per-worker share (the
// oversubscription smooths out tasks of uneven size), clamped to
// [vec.WordBits, maxChunkRows] and rounded up to a bitmap-word
// multiple so concurrent spans of one bitmap never share a word. This
// replaces the single-plan engine's fixed per-pass minChunkRows: a
// 300-row sample that never fans out alone still splits across workers
// when it is the only work, and packs with its batch peers otherwise.
func adaptiveChunk(total, workers int) int {
	c := total / (workers * 4)
	if c > maxChunkRows {
		c = maxChunkRows
	}
	if c < vec.WordBits {
		c = vec.WordBits
	}
	return (c + vec.WordBits - 1) &^ (vec.WordBits - 1)
}

// chunkSpans splits [0, n) into contiguous spans of the given chunk
// size (the last may be short). chunk must be a bitmap-word multiple.
func chunkSpans(n, chunk int) []span {
	if n <= 0 {
		return nil
	}
	out := make([]span, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, span{lo, hi})
	}
	return out
}

// workUnit is one span-sized piece of a wave phase: the work itself
// plus where a panic inside it is attributed. fail must be safe to call
// from any worker goroutine (it CASes a task's failure slot); a failed
// unit counts as complete, so the phase still finishes for every other
// unit and the pool never unwinds.
type workUnit struct {
	run  func()
	fail func(*capturedPanic)
}

// exec runs the unit, converting a panic into its failure attribution.
func (u workUnit) exec() {
	defer func() {
		if r := recover(); r != nil {
			u.fail(capturePanic(r))
		}
	}()
	u.run()
}

// runPool drains units across up to workers goroutines. Units must
// write disjoint state; completion order is irrelevant to the result.
// A cancelled ctx stops workers from claiming further units (in-flight
// units finish — they are span-sized, so the abort latency is bounded)
// and runPool returns ctx.Err(); the caller must then discard the
// phase's partial outputs instead of finalizing them. A unit that
// panics fails only its own task (workUnit.exec); the pool completes.
func runPool(ctx context.Context, workers int, units []workUnit) error {
	if len(units) == 0 {
		return nil
	}
	if workers > len(units) {
		workers = len(units)
	}
	if workers <= 1 {
		for i, u := range units {
			// Amortize the ctx check for micro-units; i&7 keeps the
			// abort latency within 8 spans.
			if i&7 == 0 {
				if err := ctx.Err(); err != nil {
					return err
				}
			}
			u.exec()
		}
		return ctx.Err()
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			// Poll on every claim: units are span-sized (dozens to
			// thousands of rows of real work), so the ctx check is noise
			// next to the unit, and each worker stops after at most its
			// one in-flight unit — the latency bound the API documents.
			for {
				i := int(next.Add(1)) - 1
				if i >= len(units) || ctx.Err() != nil {
					return
				}
				units[i].exec()
			}
		}()
	}
	wg.Wait()
	return ctx.Err()
}

// --- Scan wave ---

// passCacheKey identifies one compiled filter conjunct: compiling is
// per (table, predicate, shard), so the batch compiles each table's
// union of scan filters exactly once per shard no matter how many plans
// scan it. The shard index is part of the key because passes close over
// the shard's column slices.
type passCacheKey struct {
	table  string
	filter string
	shard  int
}

// scanGroup is one wave's shared scan over the instances of one
// template (SkelConfig.Templates): the members' constant vectors union
// into the loosest instance, the group scans the sample once with that
// union selection, and each member refines per-constant over the
// materialized rows — cheap bitmap passes over gathered filter columns
// instead of per-member sample scans. Containment per conjunct
// guarantees every member's rows survive the union scan, so refined
// results are byte-identical to solo execution.
type scanGroup struct {
	tmpl    scanTemplate // first member's template (canonical bookkeeping)
	consts  []rel.Value  // union (loosest) constant vector across members
	members []*batchTask
	shards  []groupShard
	ok      bool // union fold has succeeded so far
}

// groupShard is the per-shard scratch of one shared template scan:
// the union filter's shardScan (its sel is the union selection) plus
// the filter columns gathered there, which member refinement evaluates.
type groupShard struct {
	shardScan
	fcols []*storage.ColData
}

// failAll attributes a shared-scan failure to every member: the union
// scan is joint work no single member can be blamed for, so a panic in
// it fails exactly the queries riding the template — and nothing else.
func (g *scanGroup) failAll(cp *capturedPanic) {
	for _, t := range g.members {
		t.failWith(cp)
	}
}

// failed reports whether the group's shared scan failed. Group units
// fail every member, and members run no other units before refinement,
// so the first member's state is the group's.
func (g *scanGroup) failed() bool { return g.members[0].failedPanic() != nil }

// formScanGroups groups a wave's templated cache-missed tasks by
// template — fingerprint-bucketed, every bucket hit collision-checked
// against the full signature — and folds each group's constants into
// the union instance, in task creation order (deterministic at every
// worker and shard count). Only groups of two or more instances whose
// EVERY conjunct unions execute a shared scan: an un-unionable conjunct
// (equality templates with distinct constants) would widen the shared
// scan toward the whole sample, so those members stay solo.
func formScanGroups(work []*batchTask) []*scanGroup {
	buckets := map[uint64][]*scanGroup{}
	var groups []*scanGroup
	for _, t := range work {
		if !t.tmplOK {
			continue
		}
		var g *scanGroup
		for _, c := range buckets[t.tmpl.fp] {
			if c.tmpl.sig == t.tmpl.sig {
				g = c
				break
			}
		}
		if g == nil {
			g = &scanGroup{tmpl: t.tmpl, consts: t.tmpl.consts, members: []*batchTask{t}, ok: true}
			buckets[t.tmpl.fp] = append(buckets[t.tmpl.fp], g)
			groups = append(groups, g)
			continue
		}
		g.members = append(g.members, t)
		if g.ok {
			g.consts, g.ok = unionConsts(g.tmpl.ops, g.consts, t.tmpl.consts)
		}
	}
	live := groups[:0]
	for _, g := range groups {
		if !g.ok || len(g.members) < 2 {
			continue
		}
		for _, t := range g.members {
			t.group = g
		}
		live = append(live, g)
	}
	return live
}

// templateLookup probes every requester cache's template index for a
// containing instance of the task's template and, on a hit, serves the
// task by refinement: the derived sub-result is stored under every
// requester's exact key (repeats of this constant then hit outright),
// exactly as if the task had been computed fresh.
func (t *batchTask) templateLookup() bool {
	for i := range t.crefs {
		tc, ok := t.crefs[i].cache.getTemplate(t.tmpl)
		if !ok {
			continue
		}
		sub := refineCachedTemplate(tc, t.tmpl, t.scan.Filters, t.primaryKey(), t.refs)
		if sub == nil {
			continue
		}
		t.sub = sub
		t.storeSub(sub, -1)
		return true
	}
	return false
}

// storeTemplate registers the task's computed scan in every requester
// cache's template index: the filter columns are gathered once at the
// final selection (per shard, at the merged offsets — the same bytes a
// monolithic gather would produce) and shared across the caches.
func (t *batchTask) storeTemplate() {
	if len(t.crefs) == 0 {
		return
	}
	fcols := make([]*storage.ColData, len(t.tmpl.fpos))
	for j, pos := range t.tmpl.fpos {
		dst := newColLike(t.shards[0].cs.Col(pos), t.selTotal)
		for si := range t.shards {
			sh := &t.shards[si]
			gatherCol(dst, sh.cs.Col(pos), sh.sel, 0, len(sh.sel), sh.off)
		}
		markNulls(dst, 0, t.selTotal)
		fcols[j] = dst
	}
	for i := range t.crefs {
		cr := &t.crefs[i]
		cr.cache.putTemplate(cr.key, t.tmpl, t.sub, fcols)
	}
}

// runScanWave executes all leaf-scan tasks of the batch: sequential
// setup (cache probes, binding, one-time filter compilation, template
// grouping), then the combined parallel phases — filter bitmaps,
// selection-vector materialization, then (for template groups) filter-
// column gathers and per-member refinement, and finally boundary-column
// gathers — each a single span list over every pending task's shards.
// With shards > 1 each sample scan becomes per-shard work items whose
// outputs land at precomputed offsets of the merged columns (the
// shard-order merge, done in place), so the wave fans out across
// workers even when one sample alone is too small to split; shard
// identity never reaches sub-results or cache keys. With templates on,
// tasks sharing a template run one union scan per group and refine
// per-constant (scanGroup); results are byte-identical either way. A
// ctx abort between or during phases returns before the final stage,
// so nothing partial reaches any cache.
func runScanWave(ctx context.Context, tasks []*batchTask, binder func(string) (*storage.Table, error), workers, shards int, templates bool) error {
	passCache := map[passCacheKey][]scanPass{}
	var pending []*batchTask
	for _, t := range tasks {
		if sub := t.lookupSub(); sub != nil {
			t.sub = sub
			continue
		}
		if templates {
			t.tmpl, t.tmplOK = scanTemplateOf(t.scan, t.refs, t.filterPos)
			if t.tmplOK && t.templateLookup() {
				continue
			}
		}
		tab, err := binder(t.scan.Table)
		if err != nil {
			return err
		}
		var stores []*storage.ColStore
		if shards > 1 {
			stores = tab.ColDataShards(shards)
		} else {
			stores = []*storage.ColStore{tab.ColData()}
		}
		t.shards = make([]scanShard, len(stores))
		for si, cs := range stores {
			sh := &t.shards[si]
			sh.cs = cs
			sh.nrows = cs.NumRows()
		}
		pending = append(pending, t)
	}
	if len(pending) == 0 {
		return nil
	}
	var groups []*scanGroup
	if templates {
		groups = formScanGroups(pending)
	}

	// Compile filter passes: per solo task (each conjunct cached per
	// (table, predicate, shard) across the batch) and per group (the
	// union conjuncts, canonical order). Group members compile nothing
	// here — their conjuncts run in refinement, over gathered columns.
	total := 0
	for _, t := range pending {
		if t.group != nil {
			continue
		}
		for si := range t.shards {
			sh := &t.shards[si]
			for fi, f := range t.scan.Filters {
				pk := passCacheKey{t.scan.Table, f.String(), si}
				ps, ok := passCache[pk]
				if !ok {
					ps = appendFilterPasses(nil, sh.cs.Col(t.filterPos[fi]), f)
					passCache[pk] = ps
				}
				sh.passes = append(sh.passes, ps...)
			}
			total += sh.nrows
		}
	}
	for _, g := range groups {
		m0 := g.members[0]
		ufilters := g.tmpl.instanceFilters(m0.scan.Filters, g.consts)
		g.shards = make([]groupShard, len(m0.shards))
		for si := range m0.shards {
			gsh := &g.shards[si]
			gsh.cs = m0.shards[si].cs
			gsh.nrows = m0.shards[si].nrows
			for ci, f := range ufilters {
				pk := passCacheKey{m0.scan.Table, f.String(), si}
				ps, ok := passCache[pk]
				if !ok {
					ps = appendFilterPasses(nil, gsh.cs.Col(g.tmpl.fpos[g.tmpl.fcol[ci]]), f)
					passCache[pk] = ps
				}
				gsh.passes = append(gsh.passes, ps...)
			}
			total += gsh.nrows
		}
	}
	chunk := adaptiveChunk(total, workers)

	// Phase 1: filter passes over every shard's rows, one combined span
	// list. Identity scans (no filters) fill their selection vector
	// directly; template groups run their union passes as shared units
	// whose failure fails every member. Per-span counts feed the offsets
	// below.
	var units []workUnit
	for _, t := range pending {
		if t.group != nil {
			continue
		}
		for si := range t.shards {
			units = t.shards[si].filterUnits(units, chunk, t.failWith, faultinject.ScanUnit, t.sig, si)
		}
	}
	for _, g := range groups {
		for si := range g.shards {
			units = g.shards[si].filterUnits(units, chunk, g.failAll, faultinject.TemplateUnit, g.tmpl.sig, si)
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Phase 2: materialize surviving row ids per shard. Tasks failed in
	// phase 1 are skipped: their bitmaps may be partial. Groups
	// materialize the union selection the same way.
	units = units[:0]
	for _, t := range pending {
		if t.failedPanic() != nil || t.group != nil {
			continue
		}
		for si := range t.shards {
			units = t.shards[si].selUnits(units, t.failWith)
		}
	}
	for _, g := range groups {
		if g.failed() {
			continue
		}
		for si := range g.shards {
			units = g.shards[si].selUnits(units, g.failAll)
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Gather each live group's filter columns at the union selection —
	// the rows member refinement re-evaluates. Destination columns are
	// allocated sequentially; each unit fills one whole column, so
	// concurrent units write disjoint memory.
	units = units[:0]
	for _, g := range groups {
		if g.failed() {
			continue
		}
		g := g
		for si := range g.shards {
			gsh := &g.shards[si]
			gsh.fcols = make([]*storage.ColData, len(g.tmpl.fpos))
			for j, pos := range g.tmpl.fpos {
				j, src := j, gsh.cs.Col(pos)
				gsh.fcols[j] = newColLike(src, len(gsh.sel))
				units = append(units, workUnit{fail: g.failAll, run: func() {
					gatherCol(gsh.fcols[j], src, gsh.sel, 0, len(gsh.sel), 0)
					markNulls(gsh.fcols[j], 0, len(gsh.sel))
				}})
			}
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Refine each member over the gathered columns — its own constants,
	// evaluated on the union rows — then map surviving positions back to
	// sample row ids. Containment makes this exact: every row a member's
	// solo scan would select survives the looser union scan, and both
	// walks ascend, so the refined selection is byte-identical to solo.
	// Refinement failures are the member's own (failWith, not failAll).
	units = units[:0]
	for _, g := range groups {
		if g.failed() {
			continue
		}
		for _, t := range g.members {
			t, g := t, g
			for si := range t.shards {
				si := si
				units = append(units, workUnit{fail: t.failWith, run: func() {
					gsh := &g.shards[si]
					sel := refineTemplate(t.tmpl, t.scan.Filters, gsh.fcols, len(gsh.sel))
					for i, p := range sel {
						sel[i] = gsh.sel[p]
					}
					t.shards[si].sel = sel
				}})
			}
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Phase 3: gather boundary columns for the surviving rows. Each
	// shard writes its slice of the output columns at the shard's
	// cumulative offset, so shard outputs concatenate in shard order
	// without a merge step; NULL bitmap words are set in the final stage.
	units = units[:0]
	for _, t := range pending {
		if t.failedPanic() != nil {
			continue
		}
		t := t
		count := 0
		for si := range t.shards {
			t.shards[si].off = count
			count += len(t.shards[si].sel)
		}
		t.selTotal = count
		t.cols = make([]*storage.ColData, len(t.refs))
		for k, pos := range t.boundPos {
			t.cols[k] = newColLike(t.shards[0].cs.Col(pos), count)
		}
		if len(t.refs) == 0 || count == 0 {
			continue
		}
		for si := range t.shards {
			sh := &t.shards[si]
			if len(sh.sel) == 0 {
				continue
			}
			for _, s := range chunkSpans(len(sh.sel), chunk) {
				s, sh := s, sh
				units = append(units, workUnit{fail: t.failWith, run: func() {
					for k, pos := range t.boundPos {
						gatherCol(t.cols[k], sh.cs.Col(pos), sh.sel, s.lo, s.hi, sh.off)
					}
				}})
			}
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	for _, t := range pending {
		if t.failedPanic() != nil {
			// A failed task computes no sub-result and must not poison
			// any cache; settleWave attributes the failure to its plans.
			t.shards, t.cols, t.group = nil, nil, nil
			continue
		}
		for _, c := range t.cols {
			markNulls(c, 0, t.selTotal)
		}
		t.sub = &subResult{sig: t.primaryKey(), count: t.selTotal, refs: t.refs, cols: t.cols}
		t.storeSub(t.sub, -1)
		if t.tmplOK {
			t.storeTemplate()
		}
		t.shards, t.cols, t.group = nil, nil, nil
	}
	return nil
}

// --- Join waves ---

// tableBuildKey identifies one build-side hash table: the build input
// and the key columns over it. Distinct joins probing the same build
// side share one build even when their predicates differ textually.
type tableBuildKey struct {
	r    *subResult
	keys string
}

// tableBuild is one deduplicated hash-table construction and the tasks
// awaiting it. Sharded builds hash one segment per word-aligned build
// partition (storage.ShardBounds over the build rows) in its own unit;
// once every segment is done the rows are linked in one sequential
// pass, which yields the same table as an unsharded build.
type tableBuild struct {
	r     *subResult
	rkey  []int
	ht    *hashTable
	segs  []span
	done  atomic.Int32 // segments hashed
	users []*batchTask
}

func intsKey(xs []int) string {
	b := make([]byte, 0, len(xs)*3)
	for _, x := range xs {
		b = append(b, byte(x), byte(x>>8), ',')
	}
	return string(b)
}

// runJoinWave executes one depth level of join tasks: sequential cache
// probes and key resolution, parallel deduplicated hash-table builds
// (hashed per segment when sharding is on, linked sequentially), one
// combined probe span list emitting row-id pairs, then one combined
// gather span list writing each span's matches at its prefix-sum
// offset. A ctx abort returns before any result or hash table reaches
// any cache.
func runJoinWave(ctx context.Context, tasks []*batchTask, workers, shards int) error {
	var pending []*batchTask
	total := 0
	for _, t := range tasks {
		if sub := t.lookupSub(); sub != nil {
			t.sub = sub
			continue
		}
		// Resolve the hash-table key per cache: each cache knows the
		// build side under its own namespace (the right child's key
		// there), and the first cache holding the table supplies it.
		for i := range t.crefs {
			cr := &t.crefs[i]
			rkey := t.right.keyFor(cr.cache)
			if rkey == "" {
				continue
			}
			cr.tkey = hashTableKey(rkey, t.preds)
			cr.table = cr.cache.getTable(cr.tkey)
			if t.table == nil {
				t.table = cr.table
			}
		}
		pending = append(pending, t)
		total += t.left.sub.count
	}
	if len(pending) == 0 {
		return nil
	}
	chunk := adaptiveChunk(total, workers)

	// Phase 1: build the missing hash tables, deduplicated by (build
	// input, key columns) and run in parallel across tasks — each build
	// itself stays sequential for deterministic bucket order.
	builds := map[tableBuildKey]*tableBuild{}
	var buildOrder []*tableBuild
	for _, t := range pending {
		if t.table != nil {
			continue
		}
		bk := tableBuildKey{t.right.sub, intsKey(t.rkey)}
		tb, ok := builds[bk]
		if !ok {
			tb = &tableBuild{r: t.right.sub, rkey: t.rkey}
			builds[bk] = tb
			buildOrder = append(buildOrder, tb)
		}
		tb.users = append(tb.users, t)
	}
	units := make([]workUnit, 0, len(buildOrder))
	for _, tb := range buildOrder {
		tb := tb
		// A failed build fails every task awaiting the table: they have
		// nothing to probe.
		fail := func(cp *capturedPanic) {
			for _, t := range tb.users {
				t.failWith(cp)
			}
		}
		bounds := storage.ShardBounds(tb.r.count, shards)
		tb.ht = newHashTable(tb.r.count)
		tb.segs = make([]span, len(bounds)-1)
		for segi := range tb.segs {
			segi := segi
			tb.segs[segi] = span{bounds[segi], bounds[segi+1]}
			units = append(units, workUnit{fail: fail, run: func() {
				if faultinject.Active() {
					faultinject.Fire(faultinject.BuildUnit, tb.users[0].sig)
					if len(tb.segs) > 1 {
						faultinject.Fire(faultinject.ShardUnit, fmt.Sprintf("%s#shard=%d", tb.users[0].sig, segi))
					}
				}
				s := tb.segs[segi]
				tb.ht.hashRows(tb.r, tb.rkey, s.lo, s.hi)
				tb.done.Add(1)
			}})
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}
	for _, tb := range buildOrder {
		// A panicked segment leaves the build incomplete; its users are
		// already failed, so nothing is linked or stored anywhere.
		if int(tb.done.Load()) < len(tb.segs) {
			continue
		}
		tb.ht.link()
		for _, t := range tb.users {
			t.table = tb.ht
		}
	}
	// Store each task's table — freshly built, or found in only some of
	// its caches — under every registered cache, so each requester's
	// cache is as warm as a solo run would have left it.
	for _, t := range pending {
		t.storeTable(t.table)
	}

	// Phase 2: one combined probe span list over every pending task's
	// left rows; each span counts its matches and, when the task has
	// output columns, records them as row-id pairs in its private part.
	// Tasks whose build failed are skipped — there is no table to probe.
	units = units[:0]
	for _, t := range pending {
		if t.failedPanic() != nil {
			continue
		}
		t := t
		t.pspans = chunkSpans(t.left.sub.count, chunk)
		t.parts = make([]probePart, len(t.pspans))
		for si := range t.pspans {
			si := si
			units = append(units, workUnit{fail: t.failWith, run: func() {
				if faultinject.Active() {
					faultinject.Fire(faultinject.ProbeUnit, t.sig)
				}
				s := t.pspans[si]
				part := &t.parts[si]
				var pb *pairBuf
				if len(t.gather) > 0 {
					pb = &part.pairs
				}
				part.count = probeRange(t.left.sub, t.right.sub, t.table,
					t.lkey, t.rkey, pb, s.lo, s.hi)
			}})
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	// Phase 3: place every span's matches at its prefix-sum offset and
	// gather the output columns from the children, one combined span
	// list; output columns are allocated exactly count rows long.
	units = units[:0]
	for _, t := range pending {
		if t.failedPanic() != nil {
			continue
		}
		t := t
		count := 0
		for pi := range t.parts {
			t.parts[pi].off = count
			count += t.parts[pi].count
		}
		t.selTotal = count
		t.cols = newJoinCols(t.gather, t.left.sub, t.right.sub, count)
		if len(t.gather) == 0 || count == 0 {
			continue
		}
		for pi := range t.parts {
			if t.parts[pi].count == 0 {
				continue
			}
			part := &t.parts[pi]
			units = append(units, workUnit{fail: t.failWith, run: func() {
				gatherPairs(t.cols, t.gather, t.left.sub, t.right.sub, &part.pairs, part.off)
			}})
		}
	}
	if err := runPool(ctx, workers, units); err != nil {
		return err
	}

	for _, t := range pending {
		if t.failedPanic() == nil {
			for _, c := range t.cols {
				markNulls(c, 0, t.selTotal)
			}
			t.sub = &subResult{sig: t.primaryKey(), count: t.selTotal, refs: t.refs, cols: t.cols}
			t.storeSub(t.sub, -1)
		}
		t.table, t.parts, t.pspans, t.cols = nil, nil, nil, nil
	}
	return nil
}

// storeTable caches a build-side hash table under every cache the task
// serves whose namespace resolved (cacheRef.tkey set in the wave's
// probe stage). putTable skips caches that no longer retain the build
// input's sub-result (possible under a tight value budget).
func (t *batchTask) storeTable(table *hashTable) {
	if table == nil {
		return
	}
	for i := range t.crefs {
		cr := &t.crefs[i]
		if cr.tkey == "" || cr.table != nil {
			continue
		}
		if rkey := t.right.keyFor(cr.cache); rkey != "" {
			cr.cache.putTable(rkey, cr.tkey, table)
		}
	}
}
