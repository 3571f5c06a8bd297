package executor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"reopt/internal/plan"
	"reopt/internal/sql"
)

// TestCountSkeletonBatchMatchesSequential: batching several plans into
// one deduplicated partitioned pass must report exactly the per-node
// counts sequential single-plan runs produce — at every worker count,
// with and without a cache, and with a cache pre-warmed by sequential
// runs.
func TestCountSkeletonBatchMatchesSequential(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		cat := skelCatalog(t, seed, 400)
		q := skelQuery()
		plans := skelPlans(cat, q)

		// Reference: sequential runs sharing one cache (the pre-batch
		// multi-plan validation strategy).
		want := make([]map[plan.Node]int64, len(plans))
		seqCache := NewSkeletonCache()
		for pi, p := range plans {
			counts, err := CountSkeleton(p, cat.Table, seqCache)
			if err != nil {
				t.Fatalf("seed %d plan %d sequential: %v", seed, pi, err)
			}
			want[pi] = counts
		}

		check := func(label string, got []map[plan.Node]int64, perPlan []error) {
			t.Helper()
			for pi := range plans {
				if perPlan[pi] != nil {
					t.Fatalf("seed %d %s plan %d: %v", seed, label, pi, perPlan[pi])
				}
				plan.Walk(plans[pi].Root, func(n plan.Node) {
					if got[pi][n] != want[pi][n] {
						t.Errorf("seed %d %s plan %d node %v: batch %d, sequential %d",
							seed, label, pi, n.Aliases(), got[pi][n], want[pi][n])
					}
				})
			}
		}

		for _, w := range []int{1, 2, runtime.NumCPU()} {
			got, perPlan, err := CountSkeletonBatch(plans, cat.Table, nil, w)
			if err != nil {
				t.Fatalf("seed %d workers=%d: %v", seed, w, err)
			}
			check(fmt.Sprintf("workers=%d uncached", w), got, perPlan)

			fresh := NewSkeletonCache()
			got, perPlan, err = CountSkeletonBatch(plans, cat.Table, fresh, w)
			if err != nil {
				t.Fatalf("seed %d workers=%d cached: %v", seed, w, err)
			}
			check(fmt.Sprintf("workers=%d fresh-cache", w), got, perPlan)
			if fresh.Len() == 0 {
				t.Error("batch run recorded no sub-results")
			}

			// A second batch over a warmed cache must be a pure replay.
			hits0, _ := fresh.Stats()
			got, perPlan, err = CountSkeletonBatch(plans, cat.Table, fresh, w)
			if err != nil {
				t.Fatalf("seed %d workers=%d warm: %v", seed, w, err)
			}
			check(fmt.Sprintf("workers=%d warm-cache", w), got, perPlan)
			hits1, _ := fresh.Stats()
			if hits1 <= hits0 {
				t.Error("warm batch recorded no cache hits")
			}

			// And a batch over the sequential runs' cache must agree too
			// (mixed sequential/batched usage of one cache).
			got, perPlan, err = CountSkeletonBatch(plans, cat.Table, seqCache, w)
			if err != nil {
				t.Fatalf("seed %d workers=%d seq-cache: %v", seed, w, err)
			}
			check(fmt.Sprintf("workers=%d seq-cache", w), got, perPlan)
		}
	}
}

// TestCountSkeletonBatchDedupes: a batch of join-order permutations of
// one query must execute each logical subtree once — the whole point of
// batching — observable as exactly one cache insertion per distinct
// signature and zero extra work on a warm cache.
func TestCountSkeletonBatchDedupes(t *testing.T) {
	cat := skelCatalog(t, 7, 400)
	q := skelQuery()
	plans := skelPlans(cat, q)

	cache := NewSkeletonCache()
	if _, _, err := CountSkeletonBatch(plans, cat.Table, cache, 2); err != nil {
		t.Fatal(err)
	}
	batched := cache.Len()

	seqCache := NewSkeletonCache()
	for _, p := range plans {
		if _, err := CountSkeleton(p, cat.Table, seqCache); err != nil {
			t.Fatal(err)
		}
	}
	if batched != seqCache.Len() {
		t.Errorf("batch materialized %d distinct subtrees, sequential %d", batched, seqCache.Len())
	}
}

// TestCountSkeletonBatchIsolatesUnsupportedPlans: one plan outside the
// engine's contract must not poison the batch — it reports
// ErrSkeletonUnsupported in its slot while the others execute.
func TestCountSkeletonBatchIsolatesUnsupportedPlans(t *testing.T) {
	cat := skelCatalog(t, 1, 300)
	q := skelQuery()
	plans := skelPlans(cat, q)

	// A query with no join list yields no boundary columns, so the join
	// predicates cannot resolve — the classic unsupported shape.
	badQ := skelQuery()
	badQ.Joins = nil
	bad := skelPlans(cat, q)[0]
	bad = &plan.Plan{Root: bad.Root, Query: badQ}

	batch := []*plan.Plan{plans[0], bad, plans[1]}
	counts, perPlan, err := CountSkeletonBatch(batch, cat.Table, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if perPlan[0] != nil || perPlan[2] != nil {
		t.Fatalf("good plans errored: %v, %v", perPlan[0], perPlan[2])
	}
	if !errors.Is(perPlan[1], ErrSkeletonUnsupported) {
		t.Fatalf("bad plan: want ErrSkeletonUnsupported, got %v", perPlan[1])
	}
	if counts[1] != nil {
		t.Error("bad plan should have nil counts")
	}
	for _, pi := range []int{0, 2} {
		ref, err := CountSkeleton(batch[pi], cat.Table, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan.Walk(batch[pi].Root, func(n plan.Node) {
			if counts[pi][n] != ref[n] {
				t.Errorf("plan %d node %v: %d != %d", pi, n.Aliases(), counts[pi][n], ref[n])
			}
		})
	}
}

// TestCountSkeletonBatchPlansPerPlanCaches: plans carrying *different*
// caches — the cross-query scheduler's shape, each requester holding a
// private per-run cache — must batch into one deduplicated pass whose
// counts match solo runs, with every requester's cache left exactly as
// warm as a solo run would have left it.
func TestCountSkeletonBatchPlansPerPlanCaches(t *testing.T) {
	cat := skelCatalog(t, 3, 400)
	q := skelQuery()
	plans := skelPlans(cat, q)
	if len(plans) < 2 {
		t.Fatal("need at least two plans")
	}

	want := make([]map[plan.Node]int64, len(plans))
	for pi, p := range plans {
		counts, err := CountSkeleton(p, cat.Table, NewSkeletonCache())
		if err != nil {
			t.Fatal(err)
		}
		want[pi] = counts
	}

	for _, w := range []int{2, runtime.NumCPU()} {
		caches := make([]*SkeletonCache, len(plans))
		bplans := make([]BatchPlan, len(plans))
		for i, p := range plans {
			caches[i] = NewSkeletonCache()
			bplans[i] = BatchPlan{Plan: p, Cache: caches[i]}
		}
		got, perPlan, err := CountSkeletonBatchPlansCtx(context.Background(), bplans, cat.Table, w)
		if err != nil {
			t.Fatalf("workers=%d: %v", w, err)
		}
		for pi := range plans {
			if perPlan[pi] != nil {
				t.Fatalf("workers=%d plan %d: %v", w, pi, perPlan[pi])
			}
			plan.Walk(plans[pi].Root, func(n plan.Node) {
				if got[pi][n] != want[pi][n] {
					t.Errorf("workers=%d plan %d node %v: batch %d, solo %d",
						w, pi, n.Aliases(), got[pi][n], want[pi][n])
				}
			})
		}
		// Every requester's cache must now replay its plan without
		// recomputation: a solo warm run records only hits, no growth.
		for pi, p := range plans {
			solo, err := CountSkeleton(p, cat.Table, NewSkeletonCache())
			if err != nil {
				t.Fatal(err)
			}
			size := caches[pi].Len()
			hits0, miss0 := caches[pi].Stats()
			warm, err := CountSkeleton(p, cat.Table, caches[pi])
			if err != nil {
				t.Fatalf("workers=%d plan %d warm replay: %v", w, pi, err)
			}
			plan.Walk(p.Root, func(n plan.Node) {
				if warm[n] != solo[n] {
					t.Errorf("workers=%d plan %d node %v: warm replay %d, solo %d",
						w, pi, n.Aliases(), warm[n], solo[n])
				}
			})
			hits1, miss1 := caches[pi].Stats()
			if hits1 <= hits0 {
				t.Errorf("workers=%d plan %d: warm replay recorded no hits", w, pi)
			}
			if miss1 != miss0 {
				t.Errorf("workers=%d plan %d: warm replay missed (%d -> %d): cache colder than a solo run",
					w, pi, miss0, miss1)
			}
			if caches[pi].Len() != size {
				t.Errorf("workers=%d plan %d: warm replay grew the cache %d -> %d", w, pi, size, caches[pi].Len())
			}
		}
	}
}

// TestCountSkeletonBatchPlansHitPropagation: when one requester's cache
// already holds a shared subtree, the batch must serve every requester
// from it — and leave the result in the *other* requesters' caches too,
// so their next rounds replay instead of recomputing.
func TestCountSkeletonBatchPlansHitPropagation(t *testing.T) {
	cat := skelCatalog(t, 9, 400)
	q := skelQuery()
	plans := skelPlans(cat, q)

	warmed := NewSkeletonCache()
	if _, err := CountSkeleton(plans[0], cat.Table, warmed); err != nil {
		t.Fatal(err)
	}
	cold := NewSkeletonCache()
	bplans := []BatchPlan{
		{Plan: plans[0], Cache: warmed},
		{Plan: plans[0], Cache: cold},
	}
	_, miss0 := warmed.Stats()
	got, perPlan, err := CountSkeletonBatchPlansCtx(context.Background(), bplans, cat.Table, 2)
	if err != nil {
		t.Fatal(err)
	}
	for pi := range bplans {
		if perPlan[pi] != nil {
			t.Fatalf("plan %d: %v", pi, perPlan[pi])
		}
	}
	if _, miss1 := warmed.Stats(); miss1 != miss0 {
		t.Errorf("batch missed the warmed cache (%d -> %d misses): shared subtrees recomputed", miss0, miss1)
	}
	if cold.Len() != warmed.Len() {
		t.Errorf("hit propagation left the cold cache at %d entries, warmed has %d", cold.Len(), warmed.Len())
	}
	want, err := CountSkeleton(plans[0], cat.Table, NewSkeletonCache())
	if err != nil {
		t.Fatal(err)
	}
	for pi := range bplans {
		plan.Walk(plans[0].Root, func(n plan.Node) {
			if got[pi][n] != want[n] {
				t.Errorf("plan %d node %v: %d != %d", pi, n.Aliases(), got[pi][n], want[n])
			}
		})
	}
}

// TestSkeletonCacheLRUEviction: a bounded cache must hold at most its
// budget, evict in least-recently-used order, and drop hash tables with
// the sub-results they index.
func TestSkeletonCacheLRUEviction(t *testing.T) {
	c := NewSkeletonCacheLRU(2)
	subs := []*subResult{{count: 1}, {count: 2}, {count: 3}}
	c.putSub("a", subs[0])
	c.putSub("b", subs[1])
	c.putTable("b", "b||K:x", newHashTable(1))

	// Touch "a" so "b" is the LRU entry, then overflow.
	if _, ok := c.getSub("a"); !ok {
		t.Fatal("a should be cached")
	}
	c.putSub("c", subs[2])
	if c.Len() != 2 {
		t.Fatalf("cache over budget: %d entries", c.Len())
	}
	if _, ok := c.getSub("b"); ok {
		t.Error("b was recently-unused and should have been evicted")
	}
	if c.getTable("b||K:x") != nil {
		t.Error("evicting b should drop its hash table")
	}
	if _, ok := c.getSub("a"); !ok {
		t.Error("a was recently used and should survive")
	}
	if _, ok := c.getSub("c"); !ok {
		t.Error("c was just inserted and should survive")
	}

	// A prefix change namespaces new keys: old entries age out.
	c = c.WithPrefix("e2|")
	if got := c.subKey("sig", nil); got != "e2|sig|B:" {
		t.Errorf("subKey with prefix: %q", got)
	}
}

// TestAdaptiveChunk: chunks derive from total work over workers, stay
// word-aligned, and respect the floor and ceiling.
func TestAdaptiveChunk(t *testing.T) {
	cases := []struct {
		total, workers int
		want           int
	}{
		{0, 4, 64},        // floor
		{300, 4, 64},      // small batch: finest legal chunks
		{100000, 4, 6272}, // over the ceiling: clamped
		{8192, 4, 512},    // 8192/16 = 512, already aligned
		{9000, 4, 576},    // 9000/16 = 562 -> rounded up to 576
	}
	for _, tc := range cases {
		got := adaptiveChunk(tc.total, tc.workers)
		if got%64 != 0 {
			t.Errorf("adaptiveChunk(%d,%d) = %d not word-aligned", tc.total, tc.workers, got)
		}
		if tc.want == 6272 {
			// ceiling case: just check the clamp
			if got != maxChunkRows {
				t.Errorf("adaptiveChunk(%d,%d) = %d, want ceiling %d", tc.total, tc.workers, got, maxChunkRows)
			}
			continue
		}
		if got != tc.want {
			t.Errorf("adaptiveChunk(%d,%d) = %d, want %d", tc.total, tc.workers, got, tc.want)
		}
	}
}

// TestBoundaryColumnsInKey: two queries sharing a subtree signature but
// joining it through different columns must not share a cache entry —
// the boundary-column set is part of the key.
func TestBoundaryColumnsInKey(t *testing.T) {
	c := NewSkeletonCache()
	refs1 := []sql.ColRef{{Table: "t1", Column: "k"}}
	refs2 := []sql.ColRef{{Table: "t1", Column: "k2"}}
	if c.subKey("sig", refs1) == c.subKey("sig", refs2) {
		t.Fatal("different boundary sets produced the same cache key")
	}
}
