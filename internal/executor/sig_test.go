package executor

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpcds"
	"reopt/internal/workload/tpch"
)

// subtreeSig is the walk-based reference for the signatures both
// engines build bottom-up (sigParts): it re-walks the whole subtree and
// sorts every token it finds.
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

// sigQuerySet is one benchmark's catalog and query instances.
type sigQuerySet struct {
	name    string
	cat     *catalog.Catalog
	queries []*sql.Query
}

func sigQuerySets(t *testing.T) []sigQuerySet {
	t.Helper()
	ottCat, err := ott.Generate(ott.Config{Seed: 41, RowsPerValue: 20})
	if err != nil {
		t.Fatal(err)
	}
	var ottQs []*sql.Query
	for _, n := range []int{3, 5, 6} {
		qs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: n, SameConstant: n - 1, Count: 3, Seed: int64(n)})
		if err != nil {
			t.Fatal(err)
		}
		ottQs = append(ottQs, qs...)
	}
	hCat, err := tpch.Generate(tpch.Config{Customers: 200, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	var hQs []*sql.Query
	for _, id := range tpch.QueryIDs() {
		qs, err := tpch.Instances(hCat, id, 1, 43)
		if err != nil {
			t.Fatal(err)
		}
		hQs = append(hQs, qs...)
	}
	dsCat, err := tpcds.Generate(tpcds.Config{StoreSales: 3000, Seed: 44})
	if err != nil {
		t.Fatal(err)
	}
	var dsQs []*sql.Query
	for _, id := range tpcds.QueryIDs() {
		qs, err := tpcds.Instances(dsCat, id, 1, 45)
		if err != nil {
			t.Fatal(err)
		}
		dsQs = append(dsQs, qs...)
	}
	return []sigQuerySet{{"ott", ottCat, ottQs}, {"tpch", hCat, hQs}, {"tpcds", dsCat, dsQs}}
}

// TestBottomUpSigMatchesWalk: the signature each engine builds
// bottom-up equals the walk-based reference for every node of the DP
// and the randomized (GEQO) plans of the OTT, TPC-H and TPC-DS query
// sets. The batch engine is checked on its task graph; both engines are
// checked end to end on the keys a run caches its sub-results under —
// exactly one per distinct node signature.
func TestBottomUpSigMatchesWalk(t *testing.T) {
	ctx := context.Background()
	for _, set := range sigQuerySets(t) {
		geqoCfg := optimizer.DefaultConfig()
		geqoCfg.DPThreshold, geqoCfg.Seed = 1, 46
		opts := map[string]*optimizer.Optimizer{
			"dp":   optimizer.New(set.cat, optimizer.DefaultConfig()),
			"geqo": optimizer.New(set.cat, geqoCfg),
		}
		for qi, q := range set.queries {
			for _, mode := range []string{"dp", "geqo"} {
				p, err := opts[mode].Optimize(q, nil)
				if err != nil {
					t.Fatalf("%s query %d %s: %v", set.name, qi, mode, err)
				}
				root := p.Root
				if a, ok := root.(*plan.AggregateNode); ok {
					root = a.Child
				}
				sp := &plan.Plan{Root: root, Query: q}
				label := fmt.Sprintf("%s query %d %s", set.name, qi, mode)

				b := &batchBuilder{tasks: map[string]*batchTask{}}
				m := map[plan.Node]*batchTask{}
				if _, err := b.taskFor(root, q, nil, m); err != nil {
					t.Fatalf("%s: taskFor: %v", label, err)
				}
				plan.Walk(root, func(n plan.Node) {
					if got, want := m[n].sig, subtreeSig(n); got != want {
						t.Errorf("%s node %v: batch sig %q, walk %q", label, n.Aliases(), got, want)
					}
				})

				for _, batch := range []bool{false, true} {
					cache := NewSkeletonCache()
					if batch {
						_, perPlan, err := CountSkeletonBatch([]*plan.Plan{sp}, set.cat.Sample, cache, 2)
						if err == nil {
							err = perPlan[0]
						}
						if err != nil {
							t.Fatalf("%s batch: %v", label, err)
						}
					} else if _, err := CountSkeletonCfg(ctx, sp, set.cat.Sample, cache, SkelConfig{Workers: 1}); err != nil {
						t.Fatalf("%s single: %v", label, err)
					}
					keys := map[string]bool{}
					plan.Walk(root, func(n plan.Node) {
						key := cache.subKey(subtreeSig(n), boundaryColumns(q, n.Aliases()))
						keys[key] = true
						if _, ok := cache.getSub(key); !ok {
							t.Errorf("%s batch=%v node %v: no sub-result under the walk signature", label, batch, n.Aliases())
						}
					})
					if cache.Len() != len(keys) {
						t.Errorf("%s batch=%v: %d cached sub-results, want %d", label, batch, cache.Len(), len(keys))
					}
				}
			}
		}
	}
}
