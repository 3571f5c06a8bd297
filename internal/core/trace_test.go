package core

import (
	"fmt"
	"slices"
	"testing"

	"reopt/internal/catalog"
	"reopt/internal/optimizer"
	"reopt/internal/plan"
	"reopt/internal/sql"
	"reopt/internal/workload/ott"
	"reopt/internal/workload/tpch"
)

// TestSplitKeyRoundTrip: splitKey inverts optimizer.GammaKeyFor, so
// conservative blending asks the optimizer about exactly the aliases
// the sampled Δ entry covers — multi-character aliases included.
func TestSplitKeyRoundTrip(t *testing.T) {
	for _, aliases := range [][]string{
		{"a"},
		{"orders", "lineitem"},
		{"n2", "customer", "n1", "r"},
		{"store_sales", "d1", "date_dim", "i"},
	} {
		key := optimizer.GammaKeyFor(aliases)
		got := splitKey(key)
		want := slices.Sorted(slices.Values(aliases))
		if !slices.Equal(got, want) {
			t.Errorf("splitKey(GammaKeyFor(%q)) = %q, want %q", aliases, got, want)
		}
		if back := optimizer.GammaKeyFor(got); back != key {
			t.Errorf("GammaKeyFor(splitKey(%q)) = %q", key, back)
		}
	}
}

// checkTrace recomputes a result's round trace from its plans alone:
// each Transform is plan.Classify of the previous and current round's
// plans, each CoveredByPrevious is plan.Covered over the earlier
// rounds' join trees, and NumPlans is the number of distinct
// fingerprints.
func checkTrace(t *testing.T, label string, res *Result) {
	t.Helper()
	var prev *plan.Plan
	var trees []plan.JoinTree
	fps := map[string]bool{}
	for i, rd := range res.Rounds {
		if got, want := rd.Transform, plan.Classify(prev, rd.Plan); got != want {
			t.Errorf("%s round %d: Transform %v, Classify says %v", label, i+1, got, want)
		}
		tree := plan.TreeOf(rd.Plan)
		if got, want := rd.CoveredByPrevious, plan.Covered(tree, trees); got != want {
			t.Errorf("%s round %d: CoveredByPrevious %v, Covered says %v", label, i+1, got, want)
		}
		trees = append(trees, tree)
		fps[rd.Plan.Fingerprint()] = true
		prev = rd.Plan
	}
	if res.NumPlans != len(fps) {
		t.Errorf("%s: NumPlans %d, %d distinct fingerprints", label, res.NumPlans, len(fps))
	}
}

// TestRoundTraceMatchesPlans: the round loop carries each plan's
// fingerprint and join tree forward instead of recomputing them, and
// the trace it records must equal the one recomputed from the plans,
// for Reoptimize and ReoptimizeMultiSeed over fixed OTT and TPC-H
// queries.
func TestRoundTraceMatchesPlans(t *testing.T) {
	ottCat, err := ott.Generate(ott.Config{Seed: 7, RowsPerValue: 30})
	if err != nil {
		t.Fatal(err)
	}
	var ottQs []*sql.Query
	for _, n := range []int{4, 5, 6} {
		qs, err := ott.Queries(ottCat, ott.QueryConfig{NumTables: n, SameConstant: n - 1, Count: 4, Seed: int64(20 + n)})
		if err != nil {
			t.Fatal(err)
		}
		ottQs = append(ottQs, qs...)
	}
	hCat, err := tpch.Generate(tpch.Config{Customers: 200, Seed: 38})
	if err != nil {
		t.Fatal(err)
	}
	var hQs []*sql.Query
	for _, id := range tpch.QueryIDs() {
		qs, err := tpch.Instances(hCat, id, 1, 39)
		if err != nil {
			t.Fatal(err)
		}
		hQs = append(hQs, qs...)
	}

	multiRound := 0
	for _, set := range []struct {
		name string
		cat  *catalog.Catalog
		qs   []*sql.Query
	}{{"ott", ottCat, ottQs}, {"tpch", hCat, hQs}} {
		r := New(optimizer.New(set.cat, optimizer.DefaultConfig()), set.cat)
		for qi, q := range set.qs {
			res, err := r.Reoptimize(q)
			if err != nil {
				t.Fatalf("%s query %d: %v", set.name, qi, err)
			}
			checkTrace(t, fmt.Sprintf("%s query %d single", set.name, qi), res)
			if len(res.Rounds) > 1 {
				multiRound++
			}
			res, err = r.ReoptimizeMultiSeed(q, 3)
			if err != nil {
				t.Fatalf("%s query %d multi-seed: %v", set.name, qi, err)
			}
			checkTrace(t, fmt.Sprintf("%s query %d multi-seed", set.name, qi), res)
		}
	}
	if multiRound == 0 {
		t.Fatal("no query took more than one round; the trace check compared nothing")
	}
}
