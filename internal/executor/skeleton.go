package executor

// Count-only fast path for sample-skeleton validation.
//
// The sampling estimator (Algorithm 1's GetCardinalityEstimatesBySampling)
// only needs the output *count* of every node of a skeleton made of
// sequential scans and hash joins. Running that through the general
// Volcano executor pays for work the counts never use: a full Concat row
// allocation per join output, string-concatenated join keys, and a
// NodeRows map increment per tuple. CountSkeleton instead evaluates the
// skeleton bottom-up over column-major sub-results that carry only each
// subtree's *boundary columns* — the columns referenced by query join
// predicates that cross the subtree's relation set, i.e. exactly what any
// ancestor join can ever probe — and joins them with collision-checked
// 64-bit hashes. Boundary columns are typed storage.ColData (mixed-kind
// columns fall back to ColData.Vals), and joins are late-materialized:
// a probe emits matched (left row, right row) id pairs, and each output
// column is then gathered once, exactly count long, from the child that
// owns it.
//
// The inner loops are vectorized and parallel. Scan filters compile to
// typed branch-free kernels (internal/vec) that evaluate each predicate
// over the whole column into a selection bitmap; conjunctive filters
// fuse by AND-ing bitmaps, and only the final bitmap is materialized
// into a selection vector. Filter evaluation, boundary-column gathers,
// and join probe loops are partitioned into contiguous row ranges run
// across up to GOMAXPROCS goroutines: sub-results and build-side hash
// tables are read-only by then, workers keep private counters and
// private row-id pairs, and each partition's output lands at its prefix-
// sum offset — so counts and column contents are byte-identical at
// every worker count.
//
// Because boundary columns are derived from the query rather than the
// plan, a sub-result is valid for every join order that contains the same
// logical subtree. SkeletonCache exploits that across validation rounds:
// Algorithm 1's successive plans overwhelmingly share join subtrees
// (local transformations change only operators; global ones still keep
// most of the tree), so later rounds reuse earlier rounds' sub-results
// and build-side hash tables instead of re-executing them.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"reopt/internal/faultinject"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// ErrUnsupportedPlan is the base sentinel for every "this engine cannot
// run that plan shape" failure in the package: the count-only skeleton
// engine's contract violations wrap it via ErrSkeletonUnsupported, and
// the general executor's unknown-node error wraps it directly. Callers
// (and the root package, which re-exports it as reopt.ErrUnsupportedPlan)
// test with errors.Is instead of string-matching.
var ErrUnsupportedPlan = errors.New("plan not supported by this engine")

// ErrSkeletonUnsupported marks a plan shape outside the count-only
// engine's contract (a node that is not a scan/equi-join, join
// predicates not drawn from the query's join list, or scan schemas that
// do not resolve the query's columns, as hand-built test plans sometimes
// have). Callers fall back to the general executor on this error — and
// only on this error, so genuine engine failures stay visible instead of
// silently degrading every validation to the slow path. It wraps
// ErrUnsupportedPlan, so errors.Is works against either sentinel.
var ErrSkeletonUnsupported = fmt.Errorf("plan shape unsupported by count skeleton: %w", ErrUnsupportedPlan)

// subResult is a materialized subtree: its output count and the boundary
// columns, stored column-major. sig is the cache key the sub-result was
// stored under (empty when the engine runs uncached).
type subResult struct {
	sig   string
	count int
	refs  []sql.ColRef
	cols  []*storage.ColData // one per ref, each count rows long
}

// CountSkeleton computes the per-node output counts of a count-only
// skeleton (sequential scans and equi-joins; any other node shape is an
// error, and callers fall back to the general executor). binder resolves
// a catalog table name to the table to scan — the sampling layer binds
// samples. cache may be nil. Execution parallelism defaults to
// GOMAXPROCS; use CountSkeletonWorkers to pin it.
func CountSkeleton(p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache) (map[plan.Node]int64, error) {
	return CountSkeletonCtx(context.Background(), p, binder, cache, 0)
}

// CountSkeletonWorkers is CountSkeleton with an explicit worker count
// for the partitioned scan/probe loops; workers <= 0 selects
// runtime.GOMAXPROCS(0). Counts and cached sub-results are
// deterministic and byte-identical across worker counts: partitions are
// contiguous row ranges whose private outputs merge in partition order.
func CountSkeletonWorkers(p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, workers int) (map[plan.Node]int64, error) {
	return CountSkeletonCtx(context.Background(), p, binder, cache, workers)
}

// CountSkeletonCtx is CountSkeletonWorkers with cancellation: ctx is
// checked before each node evaluates, so a cancelled context aborts the
// run between subtrees with ctx.Err(). Only fully evaluated subtrees are
// ever written to the cache, so an abort never leaves partial results
// behind; uncancelled runs are byte-identical to CountSkeletonWorkers.
func CountSkeletonCtx(ctx context.Context, p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, workers int) (map[plan.Node]int64, error) {
	return CountSkeletonBudgetCtx(ctx, p, binder, cache, workers, 0)
}

// CountSkeletonBudgetCtx is CountSkeletonCtx with failure containment
// and a soft memory budget. memBudget caps the values this one plan may
// materialize (boundary-column cells plus hash-table entries, cache
// hits included — see memAccount); <= 0 means unlimited. On breach the
// run aborts with ErrMemoryBudget; nothing partial is cached. A panic
// anywhere inside evaluation — worker goroutines included — is
// recovered here and returned as a *PanicError instead of unwinding
// into the caller.
func CountSkeletonBudgetCtx(ctx context.Context, p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, workers int, memBudget int64) (map[plan.Node]int64, error) {
	return CountSkeletonCfg(ctx, p, binder, cache, SkelConfig{Workers: workers, MemBudget: memBudget})
}

// SkelConfig carries the execution knobs of the skeleton engines. The
// zero value means: GOMAXPROCS workers, monolithic (unsharded) samples,
// no memory budget. Every knob is performance-only — counts, cached
// sub-results, and budget verdicts are byte-identical at every setting.
type SkelConfig struct {
	// Workers caps the parallelism of the partitioned loops; <= 0
	// selects runtime.GOMAXPROCS(0), 1 runs sequentially.
	Workers int
	// Shards splits every sample scan and hash-table build into that
	// many contiguous word-aligned partitions (storage.ShardBounds)
	// whose partial results merge associatively in shard order: counts
	// sum, boundary columns and hash buckets concatenate. <= 1 keeps
	// the monolithic layout bit-for-bit. Memory-budget charges and
	// cache keys never mention the shard count, so verdicts and
	// warm-cache behavior are shard-count-independent.
	Shards int
	// MemBudget softly caps the values one plan may materialize;
	// <= 0 means unlimited (see CountSkeletonBudgetCtx).
	MemBudget int64
	// Templates enables template-aware scan sharing (DESIGN.md §9):
	// filtered scans are canonicalized into constant-stripped templates;
	// within a batch wave, instances of one template execute a single
	// shared scan with the union (loosest) selection and refine
	// per-constant over the materialized rows, and the cache keeps a
	// (template, constant-vector) index so a near-miss constant refines
	// a cached containing instance instead of rescanning. Counts and
	// estimates stay byte-identical at either setting — sharing changes
	// how sub-results are computed, never their contents. Off by
	// default: the index retains gathered filter columns, a memory cost
	// only parametrized workloads buy anything with.
	Templates bool
}

// norm returns the config with defaults resolved.
func (c SkelConfig) norm() SkelConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	return c
}

// CountSkeletonCfg is CountSkeletonBudgetCtx with the full config
// struct, including the sample shard count.
func CountSkeletonCfg(ctx context.Context, p *plan.Plan, binder func(string) (*storage.Table, error), cache *SkeletonCache, cfg SkelConfig) (counts map[plan.Node]int64, err error) {
	defer func() {
		if r := recover(); r != nil {
			counts, err = nil, NewPanicError(r)
		}
	}()
	cfg = cfg.norm()
	e := &skelEngine{
		ctx:       ctx,
		q:         p.Query,
		binder:    binder,
		cache:     cache,
		workers:   cfg.Workers,
		shards:    cfg.Shards,
		templates: cfg.Templates,
		minChunk:  minChunkRows,
		counts:    make(map[plan.Node]int64),
		mem:       memAccount{budget: cfg.MemBudget},
	}
	if _, err := e.eval(p.Root); err != nil {
		return nil, err
	}
	return e.counts, nil
}

type skelEngine struct {
	ctx       context.Context
	q         *sql.Query
	binder    func(string) (*storage.Table, error)
	cache     *SkeletonCache
	workers   int
	shards    int
	templates bool
	// minChunk is the smallest per-worker slice of rows worth a
	// goroutine for this engine's partitioned loops. The single-plan
	// entry points use the fixed minChunkRows; the batch engine derives
	// it from the batch's total work instead (see adaptiveChunk), so
	// samples too small to fan out alone still do inside a batch.
	minChunk int
	counts   map[plan.Node]int64
	mem      memAccount

	// Scratch reused across the nodes of one CountSkeleton call. Nodes
	// evaluate strictly one at a time (parallelism lives *inside* a
	// node's partitioned loops, which all finish before the node
	// returns), so a single set of buffers serves the whole tree and
	// per-scan setup costs zero steady-state allocations.
	bm, fb  *vec.Bitmap
	selBuf  []int32
	passBuf []scanPass
	posBuf  []int
	spanBuf []span
	cntBuf  []int
	offBuf  []int
	pairBuf []pairBuf
}

// bitmap returns the engine's primary scratch bitmap resized to n rows.
func (e *skelEngine) bitmap(n int) *vec.Bitmap {
	if e.bm == nil {
		e.bm = vec.NewBitmap(n)
	} else {
		e.bm.Reset(n)
	}
	return e.bm
}

// scratch returns the secondary bitmap (for non-first conjuncts).
func (e *skelEngine) scratch(n int) *vec.Bitmap {
	if e.fb == nil {
		e.fb = vec.NewBitmap(n)
	} else {
		e.fb.Reset(n)
	}
	return e.fb
}

// sel returns the reusable selection buffer with length n. The buffer
// is only valid until the next scan is evaluated; retained results copy
// out of it (boundary columns hold values, never row ids).
func (e *skelEngine) sel(n int) []int32 {
	if cap(e.selBuf) < n {
		e.selBuf = make([]int32, n)
	}
	return e.selBuf[:n]
}

func intsBuf(buf *[]int, n int) []int {
	if cap(*buf) < n {
		*buf = make([]int, n)
	}
	return (*buf)[:n]
}

func (e *skelEngine) eval(n plan.Node) (*subResult, error) {
	// Cancellation point: once per node. Nodes are bounded by the sample
	// sizes, so the latency between checks is one subtree's scan or probe.
	if e.ctx != nil {
		if err := e.ctx.Err(); err != nil {
			return nil, err
		}
	}
	if faultinject.Active() {
		faultinject.Fire(faultinject.SkelNode, subtreeSig(n))
	}
	var sub *subResult
	var err error
	switch t := n.(type) {
	case *plan.ScanNode:
		sub, err = e.evalScan(t)
	case *plan.JoinNode:
		sub, err = e.evalJoin(t)
	default:
		err = fmt.Errorf("executor: cannot evaluate %T: %w", n, ErrSkeletonUnsupported)
	}
	if err != nil {
		return nil, err
	}
	e.counts[n] = int64(sub.count)
	return sub, nil
}

// subtreeSig canonically identifies the logical sub-result a subtree
// computes: its relation set plus every predicate applied within it
// (scan filters and join predicates), order-insensitively. Join-order
// permutations of the same logical subtree produce the same signature,
// because each query predicate is applied exactly once inside it.
func subtreeSig(n plan.Node) string {
	var toks []string
	plan.Walk(n, func(m plan.Node) {
		switch t := m.(type) {
		case *plan.ScanNode:
			toks = append(toks, "T:"+t.Alias+"="+t.Table)
			for _, f := range t.Filters {
				toks = append(toks, "F:"+f.String())
			}
		case *plan.JoinNode:
			for _, p := range t.Preds {
				toks = append(toks, "J:"+p.Canonical().String())
			}
		}
	})
	sort.Strings(toks)
	return plan.CanonicalSet(n.Aliases()) + "||" + strings.Join(toks, "&")
}

// boundaryColumns returns, for a relation set, the columns any ancestor
// join can reference: the set-side columns of query join predicates
// with exactly one endpoint inside the set. The result depends only on
// the query, never on the plan, which is what makes sub-results
// reusable across join orders (and lets the batch engine mix tasks of
// different queries).
func boundaryColumns(q *sql.Query, aliases []string) []sql.ColRef {
	in := make(map[string]bool, len(aliases))
	for _, a := range aliases {
		in[a] = true
	}
	seen := map[sql.ColRef]bool{}
	var out []sql.ColRef
	for _, p := range q.Joins {
		li, ri := in[p.Left.Table], in[p.Right.Table]
		if li == ri {
			continue // internal or fully external predicate
		}
		c := p.Left
		if ri {
			c = p.Right
		}
		if !seen[c] {
			seen[c] = true
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		return out[i].Column < out[j].Column
	})
	return out
}

func findRef(refs []sql.ColRef, c sql.ColRef) int {
	for i, r := range refs {
		if r == c {
			return i
		}
	}
	return -1
}

// --- Partitioned execution ---

// minChunkRows is the smallest per-worker slice of rows worth a
// goroutine; inputs below 2*minChunkRows run inline on the caller.
const minChunkRows = 256

// span is one contiguous partition of a row range.
type span struct{ lo, hi int }

// rowSpans splits [0, n) into at most `workers` contiguous spans of at
// least minChunkRows rows each (a single span when the input is too
// small to be worth fanning out). The returned slice aliases the
// engine's span scratch and is valid until the next rowSpans call —
// callers finish all span work (including goroutines) before returning.
func (e *skelEngine) rowSpans(n int) []span {
	out := e.spanBuf[:0]
	if n <= 0 {
		e.spanBuf = append(out, span{0, 0})
		return e.spanBuf
	}
	// Floor division: an input below 2*minChunk stays a single span
	// (run inline), and no span is ever smaller than minChunk.
	parts := e.workers
	if m := n / e.minChunk; parts > m {
		parts = m
	}
	if parts < 1 {
		parts = 1
	}
	step := (n + parts - 1) / parts
	for lo := 0; lo < n; lo += step {
		hi := lo + step
		if hi > n {
			hi = n
		}
		out = append(out, span{lo, hi})
	}
	e.spanBuf = out
	return out
}

// wordSpans is rowSpans with boundaries rounded down to bitmap-word
// multiples, so workers filling one shared bitmap never touch the same
// word. Spans stay non-empty because minChunkRows exceeds the word size.
func (e *skelEngine) wordSpans(n int) []span {
	spans := e.rowSpans(n)
	for i := 1; i < len(spans); i++ {
		aligned := spans[i].lo &^ (vec.WordBits - 1)
		spans[i-1].hi = aligned
		spans[i].lo = aligned
	}
	return spans
}

// runSpans executes fn over every span, inline for a single span and on
// one goroutine per span otherwise. A panic on any span goroutine is
// captured with its stack, the remaining spans are allowed to finish
// (they share output buffers with the caller, so they must not be
// abandoned mid-write), and the first capture is re-panicked on the
// calling goroutine for the engine-boundary recover to convert.
func runSpans(spans []span, fn func(part int, s span)) {
	if len(spans) == 1 {
		fn(0, spans[0])
		return
	}
	var wg sync.WaitGroup
	var pan atomic.Pointer[capturedPanic]
	wg.Add(len(spans))
	for p := range spans {
		go func(p int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					pan.CompareAndSwap(nil, capturePanic(r))
				}
			}()
			fn(p, spans[p])
		}(p)
	}
	wg.Wait()
	if cp := pan.Load(); cp != nil {
		panic(cp)
	}
}

// --- Leaf scans ---

func (e *skelEngine) evalScan(t *plan.ScanNode) (*subResult, error) {
	refs := boundaryColumns(e.q, []string{t.Alias})
	var key string
	if e.cache != nil {
		key = e.cache.subKey(subtreeSig(t), refs)
		if sub, ok := e.cache.getSub(key); ok {
			// Budget accounting is cache-independent: a hit charges what
			// computing the sub-result would have.
			if e.mem.charge(subCharge(sub)) {
				return nil, ErrMemoryBudget
			}
			return sub, nil
		}
	}
	tab, err := e.binder(t.Table)
	if err != nil {
		return nil, err
	}

	// Resolve filter and boundary columns against the scan schema up
	// front, so schema-resolution failures surface before any scan work
	// — wrapped as unsupported, because a scan schema that cannot
	// resolve its own columns is a hand-built shape the general
	// executor may still know how to run. Positions are shared by every
	// shard: shards are row partitions of one schema.
	filterPos := make([]int, len(t.Filters))
	for fi, f := range t.Filters {
		pos, err := t.OutSchema.IndexOf(f.Col.Table, f.Col.Column)
		if err != nil {
			return nil, fmt.Errorf("executor: skeleton scan %s: filter column %s: %v: %w",
				t.Alias, f.Col, err, ErrSkeletonUnsupported)
		}
		filterPos[fi] = pos
	}
	poss := intsBuf(&e.posBuf, len(refs))
	for k, ref := range refs {
		pos, err := t.OutSchema.IndexOf(ref.Table, ref.Column)
		if err != nil {
			return nil, fmt.Errorf("executor: skeleton scan %s: boundary column %s.%s: %v: %w",
				t.Alias, ref.Table, ref.Column, err, ErrSkeletonUnsupported)
		}
		poss[k] = pos
	}

	// Template probe (DESIGN.md §9): on an exact-key miss, a cached
	// instance of the same template whose constants contain this scan's
	// can serve it by refinement — the instance's conjuncts re-evaluated
	// over the entry's gathered filter columns — instead of a sample
	// rescan. The refined sub-result is byte-identical to a fresh scan
	// (see refineCachedTemplate) and is stored under the exact key, so
	// repeats of this constant hit outright.
	var tmpl scanTemplate
	tmplOK := false
	if e.cache != nil && e.templates {
		if tm, ok := scanTemplateOf(t, refs, filterPos); ok {
			tmpl, tmplOK = tm, true
			if tc, hit := e.cache.getTemplate(tm); hit {
				if sub := refineCachedTemplate(tc, tm, t.Filters, key, refs); sub != nil {
					// Same charge as computing or an exact hit: budget
					// verdicts stay independent of how the result arrived.
					if e.mem.charge(subCharge(sub)) {
						return nil, ErrMemoryBudget
					}
					e.cache.putSub(key, sub)
					return sub, nil
				}
			}
		}
	}

	// Every scan runs per shard — the monolithic layout is the single
	// shard — and the shards' selections concatenate in shard order,
	// which is global ascending row order: each output column is
	// gathered once, at the preceding shards' offset. The budget is
	// charged per shard; the charges sum to the monolithic charge, so
	// breach verdicts are shard-count-independent.
	shards := []*storage.ColStore{tab.ColData()}
	if e.shards > 1 {
		shards = tab.ColDataShards(e.shards)
	}
	var sig string
	if len(shards) > 1 && faultinject.Active() {
		sig = subtreeSig(t)
	}
	sels := make([][]int32, len(shards))
	count := 0
	for si, cs := range shards {
		if sig != "" {
			faultinject.Fire(faultinject.ShardUnit, fmt.Sprintf("%s#shard=%d", sig, si))
		}
		// Compile every filter into vectorized bitmap passes over this
		// shard's columns (passes close over the column slices).
		passes := e.passBuf[:0]
		for fi, f := range t.Filters {
			passes = appendFilterPasses(passes, cs.Col(filterPos[fi]), f)
		}
		e.passBuf = passes[:0]
		sel := e.selectRows(passes, cs.NumRows())
		if e.mem.charge(int64(len(sel)) * int64(len(refs))) {
			return nil, ErrMemoryBudget
		}
		if len(shards) > 1 {
			// e.selBuf is reused by the next shard's selectRows.
			sel = append([]int32(nil), sel...)
		}
		sels[si] = sel
		count += len(sel)
	}
	sub := &subResult{sig: key, count: count, refs: refs, cols: e.gatherShards(shards, poss, sels, count)}
	if e.cache != nil {
		e.cache.putSub(key, sub)
		if tmplOK {
			e.cache.putTemplate(key, tmpl, sub, e.gatherShards(shards, tmpl.fpos, sels, count))
		}
	}
	return sub, nil
}

// gatherShards gathers the columns at schema positions poss for every
// shard's selection into count-row typed columns, shard i landing after
// shards 0..i-1 — the shard-order merge, done in place. Each shard's
// gather is partitioned over its selection; NULL bitmap words, which
// adjacent partitions may share, are set in one sequential pass after.
func (e *skelEngine) gatherShards(shards []*storage.ColStore, poss []int, sels [][]int32, count int) []*storage.ColData {
	cols := make([]*storage.ColData, len(poss))
	for k, pos := range poss {
		cols[k] = newColLike(shards[0].Col(pos), count)
	}
	off := 0
	for si, cs := range shards {
		sel, o := sels[si], off
		// The single-span case is inlined (here and in selectRows /
		// evalJoin) rather than funneled through runSpans: the closure
		// argument escapes into runSpans' goroutines, so constructing it
		// costs a heap allocation even when it would run inline.
		if spans := e.rowSpans(len(sel)); len(spans) == 1 {
			for k, pos := range poss {
				gatherCol(cols[k], cs.Col(pos), sel, 0, len(sel), o)
			}
		} else {
			runSpans(spans, func(_ int, s span) {
				for k, pos := range poss {
					gatherCol(cols[k], cs.Col(pos), sel, s.lo, s.hi, o)
				}
			})
		}
		off += len(sel)
	}
	for _, c := range cols {
		markNulls(c, 0, count)
	}
	return cols
}

// selectRows evaluates the filter passes over the whole column store
// into a selection bitmap — first pass fills, later passes AND — and
// materializes the surviving row ids, in ascending order regardless of
// worker count. Without filters it is the identity vector.
func (e *skelEngine) selectRows(passes []scanPass, n int) []int32 {
	if len(passes) == 0 {
		sel := e.sel(n)
		spans := e.rowSpans(n)
		if len(spans) == 1 {
			for i := range sel {
				sel[i] = int32(i)
			}
		} else {
			runSpans(spans, func(_ int, s span) {
				for i := s.lo; i < s.hi; i++ {
					sel[i] = int32(i)
				}
			})
		}
		return sel
	}
	bm := e.bitmap(n)
	var fb *vec.Bitmap
	if len(passes) > 1 {
		// Scratch bitmap for the non-first conjuncts; workers write
		// disjoint word ranges of it, so one scratch serves all spans.
		fb = e.scratch(n)
	}
	spans := e.wordSpans(n)
	if len(spans) == 1 {
		passes[0](bm, 0, n)
		for _, pass := range passes[1:] {
			pass(fb, 0, n)
			bm.And(fb, 0, n)
		}
		count := bm.Count(0, n)
		return bm.AppendIndices(e.sel(count)[:0], 0, n)
	}
	counts := intsBuf(&e.cntBuf, len(spans))
	runSpans(spans, func(p int, s span) {
		passes[0](bm, s.lo, s.hi)
		for _, pass := range passes[1:] {
			pass(fb, s.lo, s.hi)
			bm.And(fb, s.lo, s.hi)
		}
		counts[p] = bm.Count(s.lo, s.hi)
	})
	total := 0
	offs := intsBuf(&e.offBuf, len(spans))
	for p, c := range counts {
		offs[p] = total
		total += c
	}
	sel := e.sel(total)
	runSpans(spans, func(p int, s span) {
		if counts[p] > 0 {
			bm.AppendIndices(sel[offs[p]:offs[p]:offs[p]+counts[p]], s.lo, s.hi)
		}
	})
	return sel
}

// scanPass fills rows [lo, hi) of a bitmap with one filter conjunct
// (predicate AND not-NULL); lo must be word-aligned.
type scanPass func(dst *vec.Bitmap, lo, hi int)

// appendFilterPasses compiles a local predicate against one column into
// vectorized bitmap passes appended to dst, with comparison semantics
// identical to sql.EvalSelection. Uniform-kind columns get branch-free
// typed kernels (BETWEEN fuses into a single range kernel when both
// bounds take the same typed path, and otherwise decomposes into Ge AND
// Le passes); everything else (NULL constants, mixed-kind columns,
// string/numeric cross-kind comparisons) falls back to a row-wise pass
// over the same bitmap layout, which keeps the engine total.
func appendFilterPasses(dst []scanPass, col *storage.ColData, f sql.Selection) []scanPass {
	if f.Value.IsNull() || (f.Op == sql.OpBetween && f.Value2.IsNull()) {
		return append(dst, fallbackPass(col, f))
	}
	if f.Op == sql.OpBetween {
		if p := compileRange(col, f.Value, f.Value2); p != nil {
			return append(dst, p)
		}
		lo := compileCmp(col, vec.Ge, f.Value)
		hi := compileCmp(col, vec.Le, f.Value2)
		if lo == nil || hi == nil {
			return append(dst, fallbackPass(col, f))
		}
		return append(dst, lo, hi)
	}
	op, ok := vecOp(f.Op)
	if !ok {
		return append(dst, fallbackPass(col, f))
	}
	if p := compileCmp(col, op, f.Value); p != nil {
		return append(dst, p)
	}
	return append(dst, fallbackPass(col, f))
}

// fallbackPass is the row-wise pass for column/constant combinations
// without a typed kernel; constructed only when actually needed.
func fallbackPass(col *storage.ColData, f sql.Selection) scanPass {
	return func(dst *vec.Bitmap, lo, hi int) {
		vec.SetFunc(dst, func(i int) bool { return sql.EvalSelection(col.Value(i), f) }, lo, hi)
	}
}

// vecOp maps a sql comparison operator to its kernel operator.
func vecOp(op sql.CompareOp) (vec.CmpOp, bool) {
	switch op {
	case sql.OpEq:
		return vec.Eq, true
	case sql.OpNe:
		return vec.Ne, true
	case sql.OpLt:
		return vec.Lt, true
	case sql.OpLe:
		return vec.Le, true
	case sql.OpGt:
		return vec.Gt, true
	case sql.OpGe:
		return vec.Ge, true
	default:
		return 0, false
	}
}

// compileCmp returns a pass evaluating `col op c` with a typed kernel,
// or nil when no kernel matches rel.Value.Compare's semantics for the
// combination (mixed-kind column, string/numeric cross-kind).
func compileCmp(col *storage.ColData, op vec.CmpOp, c rel.Value) scanPass {
	nulls := col.NullWords
	switch col.Kind {
	case rel.KindInt:
		vals := col.Ints
		switch c.Kind() {
		case rel.KindInt:
			ci := c.AsInt()
			return func(dst *vec.Bitmap, lo, hi int) {
				vec.Int64Cmp(dst, vals, op, ci, lo, hi)
				vec.AndNotNulls(dst, nulls, lo, hi)
			}
		case rel.KindFloat:
			cf := c.AsFloat()
			return func(dst *vec.Bitmap, lo, hi int) {
				vec.Int64AsFloatCmp(dst, vals, op, cf, lo, hi)
				vec.AndNotNulls(dst, nulls, lo, hi)
			}
		}
	case rel.KindFloat:
		vals := col.Floats
		if c.Kind() == rel.KindInt || c.Kind() == rel.KindFloat {
			cf := c.AsFloat()
			return func(dst *vec.Bitmap, lo, hi int) {
				vec.Float64Cmp(dst, vals, op, cf, lo, hi)
				vec.AndNotNulls(dst, nulls, lo, hi)
			}
		}
	case rel.KindString:
		vals := col.Strs
		if c.Kind() == rel.KindString {
			cstr := c.AsString()
			return func(dst *vec.Bitmap, lo, hi int) {
				vec.StringCmp(dst, vals, op, cstr, lo, hi)
				vec.AndNotNulls(dst, nulls, lo, hi)
			}
		}
	}
	return nil
}

// compileRange returns a fused BETWEEN pass when both bounds take the
// same typed path as the column, else nil (the caller then decomposes
// into two compare passes so each bound keeps its exact semantics —
// e.g. an integer lower bound on an integer column compares exactly even
// when the upper bound is a float).
func compileRange(col *storage.ColData, lo, hi rel.Value) scanPass {
	nulls := col.NullWords
	switch col.Kind {
	case rel.KindInt:
		vals := col.Ints
		if lo.Kind() == rel.KindInt && hi.Kind() == rel.KindInt {
			l, h := lo.AsInt(), hi.AsInt()
			return func(dst *vec.Bitmap, a, b int) {
				vec.Int64Range(dst, vals, l, h, a, b)
				vec.AndNotNulls(dst, nulls, a, b)
			}
		}
		if lo.Kind() == rel.KindFloat && hi.Kind() == rel.KindFloat {
			l, h := lo.AsFloat(), hi.AsFloat()
			return func(dst *vec.Bitmap, a, b int) {
				vec.Int64AsFloatRange(dst, vals, l, h, a, b)
				vec.AndNotNulls(dst, nulls, a, b)
			}
		}
	case rel.KindFloat:
		vals := col.Floats
		if (lo.Kind() == rel.KindInt || lo.Kind() == rel.KindFloat) &&
			(hi.Kind() == rel.KindInt || hi.Kind() == rel.KindFloat) {
			l, h := lo.AsFloat(), hi.AsFloat()
			return func(dst *vec.Bitmap, a, b int) {
				vec.Float64Range(dst, vals, l, h, a, b)
				vec.AndNotNulls(dst, nulls, a, b)
			}
		}
	case rel.KindString:
		vals := col.Strs
		if lo.Kind() == rel.KindString && hi.Kind() == rel.KindString {
			l, h := lo.AsString(), hi.AsString()
			return func(dst *vec.Bitmap, a, b int) {
				vec.StringRange(dst, vals, l, h, a, b)
				vec.AndNotNulls(dst, nulls, a, b)
			}
		}
	}
	return nil
}

// --- Joins ---

func (e *skelEngine) evalJoin(t *plan.JoinNode) (*subResult, error) {
	// Children are evaluated (or served from cache) first so that every
	// node of the current plan gets a count, even under a subtree cache
	// hit at this level.
	l, err := e.eval(t.Left)
	if err != nil {
		return nil, err
	}
	r, err := e.eval(t.Right)
	if err != nil {
		return nil, err
	}
	outRefs := boundaryColumns(e.q, t.Aliases())
	var key string
	if e.cache != nil {
		key = e.cache.subKey(subtreeSig(t), outRefs)
		if sub, ok := e.cache.getSub(key); ok {
			// Charge what computing this join would have: its hash-table
			// entries (one per right row) plus its output cells, keeping
			// budget verdicts independent of cache state.
			if e.mem.charge(int64(r.count) + subCharge(sub)) {
				return nil, ErrMemoryBudget
			}
			return sub, nil
		}
	}

	// Key columns in canonical predicate order, so the build-side hash
	// table is reusable regardless of how a plan happens to list the
	// predicates.
	preds, lkey, rkey, err := joinKeys(t.Preds, l.refs, r.refs)
	if err != nil {
		return nil, err
	}

	if e.mem.charge(int64(r.count)) {
		return nil, ErrMemoryBudget
	}

	// Build (or reuse) the hash table over the right side's key columns.
	var table *hashTable
	tkey := ""
	if e.cache != nil {
		tkey = hashTableKey(r.sig, preds)
		table = e.cache.getTable(tkey)
	}
	if table == nil {
		table = e.buildHashTable(r, rkey)
		if e.cache != nil {
			e.cache.putTable(r.sig, tkey, table)
		}
	}

	// Gather plan for the output boundary columns.
	gather, err := gatherPlan(outRefs, l.refs, r.refs)
	if err != nil {
		return nil, err
	}

	// Probe, partitioned over the left side's rows. The hash table and
	// both children's columns are read-only now; each worker counts its
	// matches and, when the join has output columns, records them as
	// (left row, right row) pairs in private scratch. A prefix sum over
	// the span counts then places each span's matches, so the output is
	// identical to a sequential probe at any worker count.
	spans := e.rowSpans(l.count)
	var pairs []pairBuf
	if len(gather) > 0 {
		pairs = e.pairBufs(len(spans))
	}
	counts := intsBuf(&e.cntBuf, len(spans))
	if len(spans) == 1 {
		counts[0] = probeRange(l, r, table, lkey, rkey, pairAt(pairs, 0), 0, l.count)
	} else {
		runSpans(spans, func(p int, s span) {
			counts[p] = probeRange(l, r, table, lkey, rkey, pairAt(pairs, p), s.lo, s.hi)
		})
	}
	count := 0
	for _, c := range counts {
		count += c
	}
	// Charge the output cells before materializing them; a breaching
	// plan stores nothing, which keeps verdicts reproducible on retry.
	if e.mem.charge(int64(count) * int64(len(outRefs))) {
		return nil, ErrMemoryBudget
	}
	outCols := newJoinCols(gather, l, r, count)
	if len(gather) > 0 && count > 0 {
		offs := intsBuf(&e.offBuf, len(spans))
		off := 0
		for p, c := range counts {
			offs[p] = off
			off += c
		}
		if len(spans) == 1 {
			gatherPairs(outCols, gather, l, r, &pairs[0], 0)
		} else {
			runSpans(spans, func(p int, _ span) {
				gatherPairs(outCols, gather, l, r, &pairs[p], offs[p])
			})
		}
		for _, c := range outCols {
			markNulls(c, 0, count)
		}
	}
	sub := &subResult{sig: key, count: count, refs: outRefs, cols: outCols}
	if e.cache != nil {
		e.cache.putSub(key, sub)
	}
	return sub, nil
}

// pairBuf is one probe span's matches as parallel left/right row ids.
type pairBuf struct{ l, r []int32 }

// pairBufs returns n emptied pair buffers from the engine's scratch;
// they are valid until the next join evaluates.
func (e *skelEngine) pairBufs(n int) []pairBuf {
	for len(e.pairBuf) < n {
		e.pairBuf = append(e.pairBuf, pairBuf{})
	}
	bufs := e.pairBuf[:n]
	for i := range bufs {
		bufs[i].l, bufs[i].r = bufs[i].l[:0], bufs[i].r[:0]
	}
	return bufs
}

// pairAt returns span p's pair buffer, or nil for a count-only probe.
func pairAt(pairs []pairBuf, p int) *pairBuf {
	if pairs == nil {
		return nil
	}
	return &pairs[p]
}

// joinKeys canonicalizes a join's predicates and resolves each to the
// children's boundary-column indexes; an unresolvable predicate is an
// unsupported shape (shared with the batch engine).
func joinKeys(raw []sql.JoinPred, lrefs, rrefs []sql.ColRef) (preds []sql.JoinPred, lkey, rkey []int, err error) {
	preds = append([]sql.JoinPred(nil), raw...)
	sort.Slice(preds, func(i, j int) bool {
		return preds[i].Canonical().String() < preds[j].Canonical().String()
	})
	lkey = make([]int, len(preds))
	rkey = make([]int, len(preds))
	for k, p := range preds {
		li, ri := findRef(lrefs, p.Left), findRef(rrefs, p.Right)
		if li < 0 || ri < 0 {
			li, ri = findRef(lrefs, p.Right), findRef(rrefs, p.Left)
		}
		if li < 0 || ri < 0 {
			return nil, nil, nil, fmt.Errorf("executor: cannot resolve join predicate %s: %w", p, ErrSkeletonUnsupported)
		}
		lkey[k], rkey[k] = li, ri
	}
	return preds, lkey, rkey, nil
}

// hashTableKey names the build-side hash table over sub-result rsig
// keyed by the canonical predicates.
func hashTableKey(rsig string, preds []sql.JoinPred) string {
	var sb strings.Builder
	sb.WriteString(rsig)
	sb.WriteString("||K:")
	for _, p := range preds {
		sb.WriteString(p.Canonical().String())
		sb.WriteByte('&')
	}
	return sb.String()
}

// buildHashTable builds the right side's hash table. Sharded builds
// hash each word-aligned segment (storage.ShardBounds over the build
// rows) on its own goroutine; linking is always one sequential pass, so
// the table is byte-identical at every shard and worker count.
func (e *skelEngine) buildHashTable(r *subResult, rkey []int) *hashTable {
	ht := newHashTable(r.count)
	bounds := storage.ShardBounds(r.count, e.shards)
	if len(bounds) == 2 || e.workers == 1 {
		ht.hashRows(r, rkey, 0, r.count)
	} else {
		spans := make([]span, len(bounds)-1)
		for i := range spans {
			spans[i] = span{bounds[i], bounds[i+1]}
		}
		runSpans(spans, func(_ int, s span) { ht.hashRows(r, rkey, s.lo, s.hi) })
	}
	ht.link()
	return ht
}

// gatherPlan resolves each output boundary column to the child side and
// index it comes from (shared with the batch engine).
func gatherPlan(outRefs, lrefs, rrefs []sql.ColRef) ([]gatherSrc, error) {
	gather := make([]gatherSrc, len(outRefs))
	for k, ref := range outRefs {
		if li := findRef(lrefs, ref); li >= 0 {
			gather[k] = gatherSrc{left: true, idx: li}
			continue
		}
		ri := findRef(rrefs, ref)
		if ri < 0 {
			return nil, fmt.Errorf("executor: missing boundary column %s: %w", ref, ErrSkeletonUnsupported)
		}
		gather[k] = gatherSrc{left: false, idx: ri}
	}
	return gather, nil
}

// gatherSrc says where one output boundary column comes from: which
// side of the join and at which index in that side's boundary columns.
type gatherSrc struct {
	left bool
	idx  int
}

// probeRange probes the hash table with left rows [lo, hi) and returns
// the match count — the per-span body of the partitioned probe. When pb
// is non-nil every match is appended to it as a (left row, right row)
// pair, in left row order then chain (ascending right row) order.
func probeRange(l, r *subResult, ht *hashTable, lkey, rkey []int, pb *pairBuf, lo, hi int) int {
	count := 0
	for i := lo; i < hi; i++ {
		h, null := keyHash(l.cols, lkey, i)
		if null {
			continue
		}
		for j := ht.heads[ht.bucket(h)]; j >= 0; j = ht.next[j] {
			// Hash equality is only a candidate; value equality decides.
			if ht.hashes[j] != h || !colKeysEqual(l.cols, lkey, i, r.cols, rkey, int(j)) {
				continue
			}
			count++
			if pb != nil {
				pb.l = append(pb.l, int32(i))
				pb.r = append(pb.r, j)
			}
		}
	}
	return count
}

// newJoinCols allocates a join's output columns, count rows each, typed
// like the child columns they are gathered from.
func newJoinCols(gather []gatherSrc, l, r *subResult, count int) []*storage.ColData {
	cols := make([]*storage.ColData, len(gather))
	for k, g := range gather {
		side := r
		if g.left {
			side = l
		}
		cols[k] = newColLike(side.cols[g.idx], count)
	}
	return cols
}

// gatherPairs writes one probe span's matches into the output columns
// at destination offset off: each column reads its owning child at the
// span's left or right row ids. NULL bitmap words are left to markNulls.
func gatherPairs(cols []*storage.ColData, gather []gatherSrc, l, r *subResult, pb *pairBuf, off int) {
	for k, g := range gather {
		if g.left {
			gatherCol(cols[k], l.cols[g.idx], pb.l, 0, len(pb.l), off)
		} else {
			gatherCol(cols[k], r.cols[g.idx], pb.r, 0, len(pb.r), off)
		}
	}
}
