package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"

	"reopt/internal/rel"
)

// DiffIndex exports diffIndex to the catalog-wide differential test in
// package storage_test.
var DiffIndex = diffIndex

// diffIndex compares ix with the per-row index build that CreateIndex's
// value-order path replaced: one directory insert per row in heap order,
// NULLs skipped, and a B-tree height charged for one entry per row. It
// returns the first difference, or nil.
func diffIndex(ix *Index) error {
	t, pos := ix.table, ix.colPos
	dir := make(map[rel.ValueKey][]int)
	for id, row := range t.rows {
		if v := row[pos]; !v.IsNull() {
			dir[v.Key()] = append(dir[v.Key()], id)
		}
	}
	if got := ix.NumDistinct(); got != len(dir) {
		return fmt.Errorf("NumDistinct %d, want %d", got, len(dir))
	}
	leaves := max(1, (len(t.rows)+4*t.rowsPerPage-1)/(4*t.rowsPerPage))
	height := 1
	for ; leaves > 1; leaves = (leaves + 255) / 256 {
		height++
	}
	if got := ix.Height(); got != height {
		return fmt.Errorf("Height %d, want %d", got, height)
	}
	// Probe each key once, with its first row's value, in heap order.
	for _, row := range t.rows {
		v := row[pos]
		want, ok := dir[v.Key()]
		if !ok {
			continue
		}
		if got := ix.Lookup(v); !reflect.DeepEqual(got, want) {
			return fmt.Errorf("Lookup(%v) = %v, want %v", v, got, want)
		}
		delete(dir, v.Key())
	}
	if got := ix.Lookup(rel.Null); got != nil {
		return fmt.Errorf("Lookup(NULL) = %v", got)
	}
	return nil
}

// genColumn returns n values of one generated column shape, with NULLs
// at rate nullRate.
func genColumn(rng *rand.Rand, shape string, n int, nullRate float64) []rel.Value {
	extremes := []int64{math.MinInt64, math.MinInt64 + 1, -1, 0, 1, math.MaxInt64 - 1, math.MaxInt64}
	words := []string{"", "", "a", "A", "ab", "b", "ba", "zz", "\x00", "é"}
	out := make([]rel.Value, n)
	for i := range out {
		if rng.Float64() < nullRate {
			out[i] = rel.Null
			continue
		}
		switch shape {
		case "dupes":
			out[i] = rel.Int(int64(rng.Intn(1 + rng.Intn(8))))
		case "dense":
			out[i] = rel.Int(int64(rng.Intn(n+1)) - int64(n/2))
		case "sparse":
			out[i] = rel.Int(rng.Int63n(1<<40) - 1<<39)
		case "extreme":
			out[i] = rel.Int(extremes[rng.Intn(len(extremes))])
		case "strings":
			out[i] = rel.String_(words[rng.Intn(len(words))])
		case "floats":
			out[i] = rel.Float(float64(rng.Intn(20)) / 4)
		case "mixed":
			if rng.Intn(2) == 0 {
				out[i] = rel.Int(int64(rng.Intn(5)))
			} else {
				out[i] = rel.Float(float64(rng.Intn(10)) / 2)
			}
		}
	}
	return out
}

var genShapes = []string{"dupes", "dense", "sparse", "extreme", "strings", "floats", "mixed"}

func columnTable(vals []rel.Value) *Table {
	t := NewTable("t", rel.NewSchema(rel.Column{Name: "x", Kind: rel.KindInt}))
	for _, v := range vals {
		t.MustAppend(rel.Row{v})
	}
	return t
}

// TestValueOrderMatchesStableSort checks ValueOrder against a stable
// sort of the non-NULL row ids by Compare, with runs split wherever
// Compare changes.
func TestValueOrderMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, shape := range genShapes {
		for _, n := range []int{0, 1, 2, 9, 300} {
			for _, nullRate := range []float64{0, 0.3, 1} {
				name := fmt.Sprintf("%s/n=%d/nulls=%v", shape, n, nullRate)
				tab := columnTable(genColumn(rng, shape, n, nullRate))
				o, ok := tab.ValueOrder(0)
				if shape == "floats" || shape == "mixed" {
					if ok && nullRate < 1 && n > 0 {
						t.Fatalf("%s: float and mixed columns have no value order", name)
					}
					continue
				}
				if !ok {
					t.Fatalf("%s: no value order", name)
				}
				want := &ValueOrder{IDs: []int{}, Runs: []int{}}
				for id, row := range tab.rows {
					if row[0].IsNull() {
						want.Nulls++
					} else {
						want.IDs = append(want.IDs, id)
					}
				}
				val := func(j int) rel.Value { return tab.rows[want.IDs[j]][0] }
				sort.SliceStable(want.IDs, func(a, b int) bool {
					return tab.rows[want.IDs[a]][0].Compare(tab.rows[want.IDs[b]][0]) < 0
				})
				for j := range want.IDs {
					if j == 0 || val(j).Compare(val(j-1)) != 0 {
						want.Runs = append(want.Runs, j)
					}
				}
				want.Runs = append(want.Runs, len(want.IDs))
				if fmt.Sprint(o) != fmt.Sprint(want) {
					t.Fatalf("%s:\n got %v\nwant %v", name, o, want)
				}
			}
		}
	}
}

// TestIndexMatchesReference checks CreateIndex against the per-row
// reference on generated columns, including after appends that extend
// existing keys, which must not overwrite the neighbouring key's ids.
func TestIndexMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, shape := range genShapes {
		for _, n := range []int{0, 1, 2, 9, 300, 5000} {
			for _, nullRate := range []float64{0, 0.3, 1} {
				name := fmt.Sprintf("%s/n=%d/nulls=%v", shape, n, nullRate)
				tab := columnTable(genColumn(rng, shape, n, nullRate))
				ix, err := tab.CreateIndex("x")
				if err != nil {
					t.Fatal(err)
				}
				if err := diffIndex(ix); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, v := range genColumn(rng, shape, 40, nullRate) {
					tab.MustAppend(rel.Row{v})
				}
				if err := diffIndex(ix); err != nil {
					t.Fatalf("%s, after Append: %v", name, err)
				}
			}
		}
	}
}

// TestIndexNumDistinctExcludesNull checks that NULL rows are not a
// distinct key: the optimizer divides by NumDistinct for matches per
// probe, and ANALYZE's n_distinct leaves NULLs out too.
func TestIndexNumDistinctExcludesNull(t *testing.T) {
	tab := columnTable([]rel.Value{rel.Int(1), rel.Null, rel.Int(2), rel.Null, rel.Int(1)})
	ix, err := tab.CreateIndex("x")
	if err != nil {
		t.Fatal(err)
	}
	if got := ix.NumDistinct(); got != 2 {
		t.Errorf("NumDistinct = %d, want 2", got)
	}
	tab.MustAppend(rel.Row{rel.Null})
	tab.MustAppend(rel.Row{rel.Int(3)})
	if got := ix.NumDistinct(); got != 3 {
		t.Errorf("after Append: NumDistinct = %d, want 3", got)
	}
	if got := ix.NumEntries(); got != 7 {
		t.Errorf("NumEntries = %d, want every row (7)", got)
	}
}

// TestIndexConcurrentReaders reads a fresh index from several goroutines
// at once; under -race it checks that no read path mutates the index.
func TestIndexConcurrentReaders(t *testing.T) {
	tab := columnTable(genColumn(rand.New(rand.NewSource(9)), "dupes", 1000, 0.1))
	ix, err := tab.CreateIndex("x")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int64(0); k < 8; k++ {
				_ = ix.Lookup(rel.Int(k))
			}
			_, _ = ix.NumDistinct(), ix.Height()
		}()
	}
	wg.Wait()
}
