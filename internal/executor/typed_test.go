package executor

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// Differential tests for the typed, late-materialized join path: the
// skeleton engines must report the Volcano executor's per-node counts
// and byte-identical sub-results (typed storage, NULL marking and
// bitmap words included) at every worker, shard, cache and template
// setting, across the key kinds whose equality rel.Value.Equal defines.

// colGen draws one column value.
type colGen func(rng *rand.Rand) rel.Value

func intsIn(n int64) colGen {
	return func(rng *rand.Rand) rel.Value { return rel.Int(rng.Int63n(n)) }
}

// withNulls makes a generator emit NULL about one time in every.
func withNulls(every int, g colGen) colGen {
	return func(rng *rand.Rand) rel.Value {
		if rng.Intn(every) == 0 {
			return rel.Null
		}
		return g(rng)
	}
}

// mixedIn draws an int, a float (integral or not) or a numeric string
// below n, so the column mixes kinds and is stored as ColData.Vals.
func mixedIn(n int64) colGen {
	return func(rng *rand.Rand) rel.Value {
		i := rng.Int63n(n)
		switch rng.Intn(4) {
		case 0:
			return rel.Float(float64(i))
		case 1:
			return rel.Float(float64(i) + 0.5)
		case 2:
			return rel.String_(fmt.Sprint(i))
		default:
			return rel.Int(i)
		}
	}
}

// oneOf draws uniformly from fixed values.
func oneOf(vs ...rel.Value) colGen {
	return func(rng *rand.Rand) rel.Value { return vs[rng.Intn(len(vs))] }
}

// typedCase is one differential scenario over tables a(k, k2, x, v),
// b(k, k2, x, v) and c(x, v): the query joins a.k = b.k (plus
// a.k2 = b.k2 when multi), b.x = c.x and a.x = c.x, filters a.v < lim,
// and so carries boundary columns from both sides of the a-b join.
type typedCase struct {
	name        string
	rows        [3]int // a, b, c
	ak, bk      colGen
	ak2, bk2    colGen
	ax, bx, cx  colGen
	multi       bool
	lim, looser int64 // a.v < lim; the warm cache first sees a.v < looser
}

func typedCases() []typedCase {
	nullX := withNulls(4, intsIn(12))
	return []typedCase{
		{name: "int-float", rows: [3]int{600, 500, 300},
			ak: intsIn(40),
			bk: oneOf(rel.Float(3), rel.Float(3.5), rel.Float(17), rel.Float(-0.0), rel.Float(39), rel.Float(1e300), rel.Int(5)),
			ax: nullX, bx: nullX, cx: nullX, lim: 80, looser: 95},
		{name: "nan", rows: [3]int{600, 150, 300},
			ak: oneOf(rel.Float(math.NaN()), rel.Float(2), rel.Float(2.5), rel.Int(7), rel.Float(math.Inf(1))),
			bk: oneOf(rel.Float(math.NaN()), rel.Int(2), rel.Float(2.5), rel.Float(7), rel.Float(math.Inf(1)), rel.Float(9)),
			ax: nullX, bx: nullX, cx: nullX, lim: 70, looser: 90},
		{name: "null-keys", rows: [3]int{600, 500, 300},
			ak: withNulls(3, intsIn(30)), bk: withNulls(2, intsIn(30)),
			ax: nullX, bx: nullX, cx: withNulls(3, intsIn(12)), lim: 90, looser: 99},
		{name: "string", rows: [3]int{600, 500, 300},
			ak: func(rng *rand.Rand) rel.Value { return rel.String_(fmt.Sprintf("s%02d", rng.Intn(30))) },
			bk: withNulls(6, func(rng *rand.Rand) rel.Value { return rel.String_(fmt.Sprintf("s%02d", rng.Intn(35))) }),
			ax: nullX, bx: nullX, cx: nullX, lim: 85, looser: 99},
		{name: "mixed-kind", rows: [3]int{500, 400, 300},
			ak: mixedIn(20), bk: withNulls(8, mixedIn(20)),
			ax: withNulls(6, mixedIn(12)), bx: mixedIn(12), cx: withNulls(4, mixedIn(12)),
			lim: 75, looser: 90},
		{name: "duplicate-heavy", rows: [3]int{300, 200, 100},
			ak: intsIn(3), bk: intsIn(3),
			ax: withNulls(5, intsIn(20)), bx: intsIn(20), cx: withNulls(5, intsIn(20)), lim: 90, looser: 99},
		{name: "multi-column", rows: [3]int{600, 500, 300},
			ak: intsIn(10), bk: withNulls(7, intsIn(10)),
			ak2: oneOf(rel.Int(0), rel.Int(1), rel.Float(1), rel.Float(2)), bk2: withNulls(5, intsIn(3)),
			ax: nullX, bx: nullX, cx: nullX, multi: true, lim: 85, looser: 99},
		{name: "empty-probe-and-build", rows: [3]int{600, 500, 300},
			ak: intsIn(20), bk: intsIn(20),
			ax: nullX, bx: nullX, cx: nullX, lim: 0, looser: 50},
		{name: "empty-table", rows: [3]int{600, 0, 300},
			ak: intsIn(20), bk: intsIn(20),
			ax: nullX, bx: nullX, cx: nullX, lim: 90, looser: 99},
	}
}

func (tc typedCase) catalog(t *testing.T) *catalog.Catalog {
	t.Helper()
	cat := catalog.New()
	rng := rand.New(rand.NewSource(int64(len(tc.name))))
	k2a, k2b := tc.ak2, tc.bk2
	if k2a == nil {
		k2a, k2b = intsIn(3), intsIn(3)
	}
	specs := []struct {
		name string
		gens []colGen
	}{
		{"a", []colGen{tc.ak, k2a, tc.ax, intsIn(100)}},
		{"b", []colGen{tc.bk, k2b, tc.bx, intsIn(100)}},
		{"c", []colGen{tc.cx, intsIn(100)}},
	}
	for ti, spec := range specs {
		cols := []rel.Column{{Name: "k"}, {Name: "k2"}, {Name: "x"}, {Name: "v"}}
		if spec.name == "c" {
			cols = []rel.Column{{Name: "x"}, {Name: "v"}}
		}
		tab := storage.NewTable(spec.name, rel.NewSchema(cols...))
		for i := 0; i < tc.rows[ti]; i++ {
			row := make(rel.Row, len(spec.gens))
			for j, g := range spec.gens {
				row[j] = g(rng)
			}
			tab.MustAppend(row)
		}
		cat.MustAddTable(tab)
	}
	return cat
}

func (tc typedCase) query(lim int64) *sql.Query {
	ref := func(t, c string) sql.ColRef { return sql.ColRef{Table: t, Column: c} }
	joins := []sql.JoinPred{
		{Left: ref("a", "k"), Right: ref("b", "k")},
		{Left: ref("b", "x"), Right: ref("c", "x")},
		{Left: ref("a", "x"), Right: ref("c", "x")},
	}
	if tc.multi {
		joins = append(joins, sql.JoinPred{Left: ref("a", "k2"), Right: ref("b", "k2")})
	}
	return &sql.Query{
		Tables:     []sql.TableRef{{Name: "a", Alias: "a"}, {Name: "b", Alias: "b"}, {Name: "c", Alias: "c"}},
		Joins:      joins,
		Selections: []sql.Selection{{Col: ref("a", "v"), Op: sql.OpLt, Value: rel.Int(lim)}},
		CountStar:  true,
	}
}

// typedPlans returns the query under join orders that put a on the
// probe side, on the build side, and under a bushy join.
func typedPlans(cat *catalog.Catalog, q *sql.Query) []*plan.Plan {
	s := func(alias string) *plan.ScanNode { return skelScan(cat, q, alias) }
	return []*plan.Plan{
		{Root: skelJoin(q, skelJoin(q, s("a"), s("b")), s("c")), Query: q},
		{Root: skelJoin(q, skelJoin(q, s("b"), s("a")), s("c")), Query: q},
		{Root: skelJoin(q, s("c"), skelJoin(q, s("b"), s("a"))), Query: q},
		{Root: skelJoin(q, s("a"), skelJoin(q, s("b"), s("c"))), Query: q},
	}
}

// sameCol reports whether two columns hold identical bytes: kind,
// storage layout, NULL marking and bitmap words, and every value
// (floats compared by bit pattern, so NaN matches NaN).
func sameCol(a, b *storage.ColData) error {
	if a.Kind != b.Kind || (a.Vals == nil) != (b.Vals == nil) || (a.Nulls == nil) != (b.Nulls == nil) {
		return fmt.Errorf("layout differs: kind %v/%v vals %v/%v nulls %v/%v",
			a.Kind, b.Kind, a.Vals != nil, b.Vals != nil, a.Nulls != nil, b.Nulls != nil)
	}
	n := colLen(a)
	if colLen(b) != n {
		return fmt.Errorf("length %d != %d", n, colLen(b))
	}
	for i := 0; i < n; i++ {
		va, vb := a.Value(i), b.Value(i)
		if va.Kind() != vb.Kind() || va.String() != vb.String() ||
			(va.Kind() == rel.KindFloat && math.Float64bits(va.AsFloat()) != math.Float64bits(vb.AsFloat())) {
			return fmt.Errorf("row %d: %v != %v", i, va, vb)
		}
	}
	for w := range a.NullWords {
		if a.NullWords[w] != b.NullWords[w] {
			return fmt.Errorf("null word %d: %x != %x", w, a.NullWords[w], b.NullWords[w])
		}
	}
	return checkNullWords(a)
}

// checkNullWords verifies the ColData invariant that NullWords mirrors
// Nulls bit for bit.
func checkNullWords(c *storage.ColData) error {
	if c.Nulls == nil {
		if c.NullWords != nil {
			return fmt.Errorf("NullWords without Nulls")
		}
		return nil
	}
	if len(c.NullWords) != vec.NumWords(len(c.Nulls)) {
		return fmt.Errorf("%d null words for %d rows", len(c.NullWords), len(c.Nulls))
	}
	for i, null := range c.Nulls {
		if bit := c.NullWords[i/vec.WordBits]>>(uint(i)%vec.WordBits)&1 == 1; bit != null {
			return fmt.Errorf("row %d: Nulls %v, bitmap %v", i, null, bit)
		}
	}
	return nil
}

func colLen(c *storage.ColData) int {
	switch {
	case c.Vals != nil:
		return len(c.Vals)
	case c.Kind == rel.KindFloat:
		return len(c.Floats)
	case c.Kind == rel.KindString:
		return len(c.Strs)
	default:
		return len(c.Ints)
	}
}

// cachedSubs reads every node's sub-result back out of the cache a run
// filled, keyed by the node's canonical signature.
func cachedSubs(t *testing.T, c *SkeletonCache, p *plan.Plan) map[string]*subResult {
	t.Helper()
	out := map[string]*subResult{}
	plan.Walk(p.Root, func(n plan.Node) {
		sig := subtreeSig(n)
		sub, ok := c.getSub(c.subKey(sig, boundaryColumns(p.Query, n.Aliases())))
		if !ok {
			t.Fatalf("no cached sub-result for %v", n.Aliases())
		}
		out[sig] = sub
	})
	return out
}

func sameSubs(want, got map[string]*subResult) error {
	for sig, w := range want {
		g := got[sig]
		if g.count != w.count || len(g.cols) != len(w.cols) || len(g.cols) != len(g.refs) {
			return fmt.Errorf("%s: count %d/%d, %d/%d columns", sig, g.count, w.count, len(g.cols), len(w.cols))
		}
		for k := range w.cols {
			if colLen(g.cols[k]) != g.count {
				return fmt.Errorf("%s column %d: %d rows for count %d", sig, k, colLen(g.cols[k]), g.count)
			}
			if err := sameCol(w.cols[k], g.cols[k]); err != nil {
				return fmt.Errorf("%s column %s: %v", sig, g.refs[k], err)
			}
		}
	}
	return nil
}

// TestTypedJoinDifferential: per-node counts agree with Volcano and
// sub-results are byte-identical to the reference run (single-plan
// engine, one worker, monolithic samples, cold cache, no templates) for
// every key-kind scenario, through both engines, at workers 1/2, shards
// 1/3, cold and warm cache, templates off and on. The warm cache was
// first filled by the same query under a looser constant, so with
// templates on the filtered scan is served by refinement.
func TestTypedJoinDifferential(t *testing.T) {
	ctx := context.Background()
	for _, tc := range typedCases() {
		t.Run(tc.name, func(t *testing.T) {
			cat := tc.catalog(t)
			q := tc.query(tc.lim)
			for pi, p := range typedPlans(cat, q) {
				res, err := Run(p, cat, Options{CountOnly: true})
				if err != nil {
					t.Fatalf("plan %d volcano: %v", pi, err)
				}
				ref := NewSkeletonCache()
				if _, err := CountSkeletonCfg(ctx, p, cat.Table, ref, SkelConfig{Workers: 1}); err != nil {
					t.Fatalf("plan %d reference: %v", pi, err)
				}
				want := cachedSubs(t, ref, p)
				for _, batch := range []bool{false, true} {
					for _, workers := range []int{1, 2} {
						for _, shards := range []int{1, 3} {
							for _, warm := range []bool{false, true} {
								for _, templates := range []bool{false, true} {
									label := fmt.Sprintf("plan %d batch=%v workers=%d shards=%d warm=%v templates=%v",
										pi, batch, workers, shards, warm, templates)
									cfg := SkelConfig{Workers: workers, Shards: shards, Templates: templates}
									cache := NewSkeletonCache()
									run := func(p *plan.Plan) map[plan.Node]int64 {
										t.Helper()
										if !batch {
											counts, err := CountSkeletonCfg(ctx, p, cat.Table, cache, cfg)
											if err != nil {
												t.Fatalf("%s: %v", label, err)
											}
											return counts
										}
										counts, perPlan, err := CountSkeletonBatchCfg(ctx, []BatchPlan{{Plan: p, Cache: cache}}, cat.Table, cfg)
										if err == nil {
											err = perPlan[0]
										}
										if err != nil {
											t.Fatalf("%s: %v", label, err)
										}
										return counts[0]
									}
									if warm {
										loose := typedPlans(cat, tc.query(tc.looser))[pi]
										run(loose)
										run(p)
									}
									counts := run(p)
									plan.Walk(p.Root, func(n plan.Node) {
										if counts[n] != res.NodeRows[n] {
											t.Errorf("%s node %v: skeleton %d, volcano %d",
												label, n.Aliases(), counts[n], res.NodeRows[n])
										}
									})
									if err := sameSubs(want, cachedSubs(t, cache, p)); err != nil {
										t.Errorf("%s: %v", label, err)
									}
								}
							}
						}
					}
				}
			}
		})
	}
}

// TestTypedJoinRefinedScanServed: the warm-cache template path of the
// differential test is real — a looser instance's cached scan serves
// the tighter one by refinement instead of a rescan.
func TestTypedJoinRefinedScanServed(t *testing.T) {
	tc := typedCases()[0]
	cat := tc.catalog(t)
	cache := NewSkeletonCache()
	cfg := SkelConfig{Workers: 1, Templates: true}
	for _, lim := range []int64{tc.looser, tc.lim} {
		if _, err := CountSkeletonCfg(context.Background(), typedPlans(cat, tc.query(lim))[0], cat.Table, cache, cfg); err != nil {
			t.Fatal(err)
		}
	}
	if hits, _ := cache.TemplateStats(); hits == 0 {
		t.Fatal("the tighter instance was not served by template refinement")
	}
}

// TestRunSpansGatherNullWords: NULL-bearing boundary columns gathered
// by a multi-span probe at workers=2. Adjacent spans' output ranges
// share NULL bitmap words, so the parallel gather must leave the words
// to a sequential pass; under -race (make race, make chaos) a shared
// word written from two spans is reported, and the bitmap must mirror
// the Nulls marking exactly.
func TestRunSpansGatherNullWords(t *testing.T) {
	tc := typedCases()[2] // null-keys: NULL-bearing keys and carried columns
	cat := tc.catalog(t)
	q := tc.query(100)
	p := typedPlans(cat, q)[0]
	res, err := Run(p, cat, Options{CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	ab := p.Root.(*plan.JoinNode).Left
	if res.NodeRows[ab.(*plan.JoinNode).Left] < 2*minChunkRows {
		t.Fatalf("probe side of %d rows is too small for a multi-span probe", res.NodeRows[ab.(*plan.JoinNode).Left])
	}
	for _, batch := range []bool{false, true} {
		cache := NewSkeletonCache()
		cfg := SkelConfig{Workers: 2}
		var counts map[plan.Node]int64
		if batch {
			all, perPlan, err := CountSkeletonBatchCfg(context.Background(), []BatchPlan{{Plan: p, Cache: cache}}, cat.Table, cfg)
			if err == nil {
				err = perPlan[0]
			}
			if err != nil {
				t.Fatal(err)
			}
			counts = all[0]
		} else if counts, err = CountSkeletonCfg(context.Background(), p, cat.Table, cache, cfg); err != nil {
			t.Fatal(err)
		}
		if counts[ab] != res.NodeRows[ab] {
			t.Fatalf("batch=%v: join count %d, volcano %d", batch, counts[ab], res.NodeRows[ab])
		}
		sub := cachedSubs(t, cache, p)[subtreeSig(ab)]
		nulls := 0
		for _, c := range sub.cols {
			if err := checkNullWords(c); err != nil {
				t.Errorf("batch=%v: %v", batch, err)
			}
			for _, null := range c.Nulls {
				if null {
					nulls++
				}
			}
		}
		if nulls == 0 {
			t.Fatalf("batch=%v: the join output carries no NULLs", batch)
		}
	}
}
