package executor

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/faultinject"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
)

// tmplScanOf canonicalizes the t1 scan of q for fingerprint tests; the
// skelCatalog schema is (k, k2, v), so every filter column sits at
// schema position 2.
func tmplScanOf(t *testing.T, cat *catalog.Catalog, q *sql.Query, alias string) (scanTemplate, bool) {
	t.Helper()
	sc := skelScan(cat, q, alias)
	pos := make([]int, len(sc.Filters))
	for i := range pos {
		pos[i] = 2
	}
	return scanTemplateOf(sc, nil, pos)
}

// TestScanTemplateFingerprint: instances of one template — identical
// structure, columns, operators; different constants — must produce the
// same signature and fingerprint, while changing a constant's type, the
// operator, or the boundary-column set must change the signature.
func TestScanTemplateFingerprint(t *testing.T) {
	cat := skelCatalog(t, 1, 50)

	a, okA := tmplScanOf(t, cat, skelQueryFiltered(50), "t1")
	b, okB := tmplScanOf(t, cat, skelQueryFiltered(99), "t1")
	if !okA || !okB {
		t.Fatal("filtered scans must canonicalize")
	}
	if a.sig != b.sig || a.fp != b.fp {
		t.Fatalf("same template, different constants: sig %q fp %d vs sig %q fp %d",
			a.sig, a.fp, b.sig, b.fp)
	}
	if a.consts[0].Equal(b.consts[0]) {
		t.Fatal("constant vectors must carry the instance constants")
	}

	// Constant type is template identity: Int vs Float constants compile
	// different kernels, so they must not share.
	qf := skelQueryFiltered(50)
	qf.Selections[0].Value = rel.Float(50)
	f, okF := tmplScanOf(t, cat, qf, "t1")
	if !okF {
		t.Fatal("float-filtered scan must canonicalize")
	}
	if f.sig == a.sig {
		t.Fatal("constant type change did not change the signature")
	}

	// Operator is template identity.
	qop := skelQueryFiltered(50)
	qop.Selections[0].Op = sql.OpLe
	le, okLe := tmplScanOf(t, cat, qop, "t1")
	if !okLe {
		t.Fatal("<=-filtered scan must canonicalize")
	}
	if le.sig == a.sig {
		t.Fatal("operator change did not change the signature")
	}

	// The boundary-column set (refs) is part of the signature: the same
	// scan materialized for different join shapes must not share.
	sc := skelScan(cat, skelQueryFiltered(50), "t1")
	r1, _ := scanTemplateOf(sc, []sql.ColRef{{Table: "t1", Column: "k"}}, []int{2})
	r2, _ := scanTemplateOf(sc, []sql.ColRef{{Table: "t1", Column: "k2"}}, []int{2})
	if r1.sig == r2.sig {
		t.Fatal("boundary-column change did not change the signature")
	}

	// Shapes outside the template contract: no filters, NULL constants,
	// duplicate stripped conjuncts.
	qn := skelQuery()
	qn.Selections = nil
	if _, ok := tmplScanOf(t, cat, qn, "t1"); ok {
		t.Fatal("unfiltered scan must not canonicalize")
	}
	qnull := skelQueryFiltered(50)
	qnull.Selections[0].Value = rel.Null
	if _, ok := tmplScanOf(t, cat, qnull, "t1"); ok {
		t.Fatal("NULL-constant scan must not canonicalize")
	}
	qdup := skelQueryFiltered(50)
	qdup.Selections = append(qdup.Selections, sql.Selection{
		Col: sql.ColRef{Table: "t1", Column: "v"}, Op: sql.OpLt, Value: rel.Int(70),
	})
	if _, ok := tmplScanOf(t, cat, qdup, "t1"); ok {
		t.Fatal("duplicate stripped conjuncts must not canonicalize")
	}
}

// TestTemplateIndexCollision: a fingerprint match with a different
// signature is a collision and must miss — the index never merges
// colliding templates.
func TestTemplateIndexCollision(t *testing.T) {
	cat := skelCatalog(t, 1, 50)
	tm, ok := tmplScanOf(t, cat, skelQueryFiltered(50), "t1")
	if !ok {
		t.Fatal("scan must canonicalize")
	}
	cache := NewSkeletonCache()
	sub := &subResult{sig: "k", count: 1, cols: []*storage.ColData{}}
	cache.putSub("k", sub)
	cache.putTemplate("k", tm, sub, nil)
	if _, hit := cache.getTemplate(tm); !hit {
		t.Fatal("exact template must hit its own entry")
	}

	// Same fingerprint, different signature: the collision check must
	// reject the bucket entry.
	forged := tm
	forged.sig = tm.sig + "#forged"
	forged.fp = tm.fp
	if _, hit := cache.getTemplate(forged); hit {
		t.Fatal("colliding fingerprint with different signature must miss")
	}
}

// TestContainsAndUnionConsts: the per-conjunct containment and union
// rules over every operator class.
func TestContainsAndUnionConsts(t *testing.T) {
	iv := func(xs ...int64) []rel.Value {
		out := make([]rel.Value, len(xs))
		for i, x := range xs {
			out[i] = rel.Int(x)
		}
		return out
	}
	cases := []struct {
		name     string
		ops      []sql.CompareOp
		a, b     []rel.Value
		contains bool
		union    []rel.Value
		unionOK  bool
	}{
		{"lt wider contains", []sql.CompareOp{sql.OpLt}, iv(60), iv(50), true, iv(60), true},
		{"lt narrower not", []sql.CompareOp{sql.OpLt}, iv(50), iv(60), false, iv(60), true},
		{"gt lower contains", []sql.CompareOp{sql.OpGt}, iv(10), iv(20), true, iv(10), true},
		{"gt higher not", []sql.CompareOp{sql.OpGt}, iv(20), iv(10), false, iv(10), true},
		{"between superset", []sql.CompareOp{sql.OpBetween}, iv(0, 100), iv(10, 90), true, iv(0, 100), true},
		{"between overlap not", []sql.CompareOp{sql.OpBetween}, iv(0, 50), iv(10, 90), false, iv(0, 90), true},
		{"eq same", []sql.CompareOp{sql.OpEq}, iv(5), iv(5), true, iv(5), true},
		{"eq distinct", []sql.CompareOp{sql.OpEq}, iv(5), iv(6), false, nil, false},
		{"multi conjunct", []sql.CompareOp{sql.OpLt, sql.OpBetween}, iv(60, 0, 100), iv(50, 10, 90), true, iv(60, 0, 100), true},
		{"multi one fails", []sql.CompareOp{sql.OpLt, sql.OpEq}, iv(60, 1), iv(50, 2), false, nil, false},
	}
	for _, tc := range cases {
		if got := containsConsts(tc.ops, tc.a, tc.b); got != tc.contains {
			t.Errorf("%s: containsConsts = %v, want %v", tc.name, got, tc.contains)
		}
		u, ok := unionConsts(tc.ops, tc.a, tc.b)
		if ok != tc.unionOK {
			t.Errorf("%s: unionConsts ok = %v, want %v", tc.name, ok, tc.unionOK)
			continue
		}
		if !ok {
			continue
		}
		for k := range tc.union {
			if !u[k].Equal(tc.union[k]) {
				t.Errorf("%s: union[%d] = %v, want %v", tc.name, k, u[k], tc.union[k])
			}
		}
	}

	// Cross-kind string/numeric constants order arbitrarily; containment
	// must refuse rather than guess.
	if containsConsts([]sql.CompareOp{sql.OpLt}, []rel.Value{rel.String_("9")}, iv(5)) {
		t.Error("cross-kind string/int containment must be rejected")
	}
	// Int/float mix is genuinely ordered and must work.
	if !containsConsts([]sql.CompareOp{sql.OpLt}, []rel.Value{rel.Float(60.5)}, iv(50)) {
		t.Error("int/float containment must order by value")
	}
}

// tmplPlans builds nInstances of the same logical query differing only
// in the t1 filter constant — the parametrized-traffic shape the
// template machinery exists for.
func tmplPlans(cat *catalog.Catalog, nInstances int) []*plan.Plan {
	plans := make([]*plan.Plan, nInstances)
	for i := range plans {
		plans[i] = planFor(cat, skelQueryFiltered(int64(30+i*7)))
	}
	return plans
}

// TestTemplateBatchMatchesSolo: the equivalence suite — template-shared
// batches must report per-node counts byte-identical to solo sequential
// runs at workers {1,2,NumCPU} x shards {1,2} x cache {cold,warm}, and
// identical to the same batch with sharing off.
func TestTemplateBatchMatchesSolo(t *testing.T) {
	for seed := int64(0); seed < 3; seed++ {
		cat := skelCatalog(t, seed, 400)
		plans := tmplPlans(cat, 5)
		ctx := context.Background()

		// Reference: solo sequential runs, no cache, no sharing.
		want := make([]map[plan.Node]int64, len(plans))
		for pi, p := range plans {
			counts, err := CountSkeleton(p, cat.Table, nil)
			if err != nil {
				t.Fatalf("seed %d plan %d solo: %v", seed, pi, err)
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
						t.Errorf("seed %d %s plan %d node %v: templates %d, solo %d",
							seed, label, pi, n.Aliases(), got[pi][n], want[pi][n])
					}
				})
			}
		}

		bplansFor := func(cache *SkeletonCache) []BatchPlan {
			bps := make([]BatchPlan, len(plans))
			for i, p := range plans {
				bps[i] = BatchPlan{Plan: p, Cache: cache}
			}
			return bps
		}

		for _, workers := range []int{1, 2, runtime.NumCPU()} {
			for _, shards := range []int{1, 2} {
				cfg := SkelConfig{Workers: workers, Shards: shards, Templates: true}
				label := fmt.Sprintf("workers=%d shards=%d", workers, shards)

				got, perPlan, err := CountSkeletonBatchCfg(ctx, bplansFor(nil), cat.Table, cfg)
				if err != nil {
					t.Fatalf("seed %d %s uncached: %v", seed, label, err)
				}
				check(label+" cold-uncached", got, perPlan)

				cache := NewSkeletonCache()
				got, perPlan, err = CountSkeletonBatchCfg(ctx, bplansFor(cache), cat.Table, cfg)
				if err != nil {
					t.Fatalf("seed %d %s cold: %v", seed, label, err)
				}
				check(label+" cold-cache", got, perPlan)

				// Warm replay over the same cache: exact hits all the way.
				got, perPlan, err = CountSkeletonBatchCfg(ctx, bplansFor(cache), cat.Table, cfg)
				if err != nil {
					t.Fatalf("seed %d %s warm: %v", seed, label, err)
				}
				check(label+" warm-cache", got, perPlan)

				// Cross-check: sharing off over the same shape must agree.
				off := cfg
				off.Templates = false
				got, perPlan, err = CountSkeletonBatchCfg(ctx, bplansFor(nil), cat.Table, off)
				if err != nil {
					t.Fatalf("seed %d %s sharing-off: %v", seed, label, err)
				}
				check(label+" sharing-off", got, perPlan)
			}
		}
	}
}

// TestTemplateCacheRefinesNearMiss: a cached template instance must
// serve a *different*, contained constant without touching the samples —
// observable as a template-index hit — and the refined counts must be
// byte-identical to a fresh solo run. A non-contained (looser) constant
// must miss and compute fresh, staying correct.
func TestTemplateCacheRefinesNearMiss(t *testing.T) {
	cat := skelCatalog(t, 11, 400)
	ctx := context.Background()
	cache := NewSkeletonCache()
	cfg := SkelConfig{Workers: 2, Templates: true}

	seedPlan := planFor(cat, skelQueryFiltered(60))
	if _, perPlan, err := CountSkeletonBatchCfg(ctx, []BatchPlan{{Plan: seedPlan, Cache: cache}}, cat.Table, cfg); err != nil || perPlan[0] != nil {
		t.Fatalf("seed batch: %v / %v", err, perPlan)
	}

	// Tighter constant: contained by the cached v < 60 instance.
	near := planFor(cat, skelQueryFiltered(45))
	want, err := CountSkeleton(near, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	hits0, _ := cache.TemplateStats()
	got, perPlan, err := CountSkeletonBatchCfg(ctx, []BatchPlan{{Plan: near, Cache: cache}}, cat.Table, cfg)
	if err != nil || perPlan[0] != nil {
		t.Fatalf("near-miss batch: %v / %v", err, perPlan)
	}
	hits1, _ := cache.TemplateStats()
	if hits1 <= hits0 {
		t.Fatalf("near-miss constant did not hit the template index (hits %d -> %d)", hits0, hits1)
	}
	plan.Walk(near.Root, func(n plan.Node) {
		if got[0][n] != want[n] {
			t.Errorf("refined node %v: %d, solo %d", n.Aliases(), got[0][n], want[n])
		}
	})

	// Looser constant: NOT contained; must compute fresh and stay right.
	loose := planFor(cat, skelQueryFiltered(85))
	wantLoose, err := CountSkeleton(loose, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, perPlan, err = CountSkeletonBatchCfg(ctx, []BatchPlan{{Plan: loose, Cache: cache}}, cat.Table, cfg)
	if err != nil || perPlan[0] != nil {
		t.Fatalf("loose batch: %v / %v", err, perPlan)
	}
	plan.Walk(loose.Root, func(n plan.Node) {
		if got[0][n] != wantLoose[n] {
			t.Errorf("loose node %v: %d, solo %d", n.Aliases(), got[0][n], wantLoose[n])
		}
	})

	// The sharded single-plan engine must serve from the same template
	// index too (the solo evalScan hook), byte-identically.
	shCfg := SkelConfig{Workers: 1, Shards: 2, Templates: true}
	near2 := planFor(cat, skelQueryFiltered(40))
	want2, err := CountSkeleton(near2, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := CountSkeletonCfg(ctx, near2, cat.Table, cache, shCfg)
	if err != nil {
		t.Fatal(err)
	}
	plan.Walk(near2.Root, func(n plan.Node) {
		if counts[n] != want2[n] {
			t.Errorf("solo-engine refined node %v: %d, solo %d", n.Aliases(), counts[n], want2[n])
		}
	})
}

// TestPanicTemplateScanFailsOnlyRiders: a panic injected into a shared
// template scan must fail exactly the plans riding that template —
// their perPlan slots carry ErrValidationPanic — while an unrelated
// co-batched plan completes with counts byte-identical to its solo run,
// and a rerun over the same cache recovers everyone (nothing partial
// was cached).
func TestPanicTemplateScanFailsOnlyRiders(t *testing.T) {
	cat := skelCatalog(t, 5, 400)
	ctx := context.Background()

	riderA := planFor(cat, skelQueryFiltered(51))
	riderB := planFor(cat, skelQueryFiltered(52))
	qOther := skelQuery()
	qOther.Selections = qOther.Selections[1:] // drop the t1 filter: no template on t1
	other := planFor(cat, qOther)

	wantOther, err := CountSkeleton(other, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantA, err := CountSkeleton(riderA, cat.Table, nil)
	if err != nil {
		t.Fatal(err)
	}

	cfg := SkelConfig{Workers: 4, Templates: true}
	cache := NewSkeletonCache()
	bplans := []BatchPlan{
		{Plan: riderA, Cache: cache}, {Plan: riderB, Cache: cache}, {Plan: other, Cache: cache},
	}
	func() {
		var fi faultinject.Set
		// The shared union scan's tag is the template signature — the
		// constant-stripped t1 conjunct identifies it uniquely.
		fi.PanicAt(faultinject.TemplateUnit, "t1.v < ?i")
		defer fi.Activate()()
		counts, perPlan, berr := CountSkeletonBatchCfg(ctx, bplans, cat.Table, cfg)
		if berr != nil {
			t.Fatalf("batch error %v, want per-plan isolation", berr)
		}
		for _, ri := range []int{0, 1} {
			if !errors.Is(perPlan[ri], ErrValidationPanic) {
				t.Fatalf("rider %d: err = %v, want ErrValidationPanic", ri, perPlan[ri])
			}
		}
		if perPlan[2] != nil {
			t.Fatalf("non-rider: err = %v, want nil", perPlan[2])
		}
		for n, c := range wantOther {
			if counts[2][n] != c {
				t.Fatalf("non-rider count diverged next to a panicking template: %d != %d", counts[2][n], c)
			}
		}
	}()

	// Injection gone: the same cache serves everyone — the panicking
	// template stored nothing.
	counts, perPlan, err := CountSkeletonBatchCfg(ctx, bplans, cat.Table, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range bplans {
		if perPlan[i] != nil {
			t.Fatalf("rerun plan %d: %v", i, perPlan[i])
		}
	}
	for n, c := range wantA {
		if counts[0][n] != c {
			t.Fatalf("rerun rider count: %d, want %d (cache poisoned?)", counts[0][n], c)
		}
	}
}
