package stats

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"reopt/internal/rel"
	"reopt/internal/storage"
)

// AnalyzeColumnReference exports analyzeReference to the catalog-wide
// differential test in package stats_test.
var AnalyzeColumnReference = analyzeReference

// analyzeReference is the map-based ANALYZE that AnalyzeColumn's
// value-order path replaced, kept as the oracle for differential tests:
// count every row by Key, sort all distinct values by (count desc,
// Compare asc) for the MCV list, and sort every remaining value with
// Compare for the histogram.
func analyzeReference(t *storage.Table, pos int, opts AnalyzeOptions) *ColumnStats {
	target := opts.Target
	if target <= 0 {
		target = DefaultTarget
	}
	minCount := opts.MCVMinCount
	if minCount <= 0 {
		minCount = 2
	}
	col := t.Schema().Columns[pos]
	cs := &ColumnStats{Table: col.Table, Column: col.Name, NumRows: t.NumRows()}
	if cs.NumRows == 0 {
		cs.mcvIndex = map[rel.ValueKey]float64{}
		return cs
	}
	counts := make(map[rel.ValueKey]int)
	exemplar := make(map[rel.ValueKey]rel.Value)
	nulls := 0
	for _, row := range t.Rows() {
		v := row[pos]
		if v.IsNull() {
			nulls++
			continue
		}
		k := v.Key()
		counts[k]++
		if _, ok := exemplar[k]; !ok {
			exemplar[k] = v
		}
	}
	cs.NullFrac = float64(nulls) / float64(cs.NumRows)
	cs.NumDistinct = len(counts)
	type vc struct {
		v rel.Value
		c int
	}
	all := make([]vc, 0, len(counts))
	for k, c := range counts {
		all = append(all, vc{v: exemplar[k], c: c})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].c != all[j].c {
			return all[i].c > all[j].c
		}
		return all[i].v.Compare(all[j].v) < 0
	})
	cs.mcvIndex = make(map[rel.ValueKey]float64)
	for _, e := range all {
		if len(cs.MCV) >= target || e.c < minCount {
			break
		}
		f := float64(e.c) / float64(cs.NumRows)
		cs.MCV = append(cs.MCV, MCVEntry{Value: e.v, Freq: f})
		cs.mcvIndex[e.v.Key()] = f
		cs.mcvFreqSum += f
	}
	rest := make([]rel.Value, 0, cs.NumRows)
	for _, row := range t.Rows() {
		v := row[pos]
		if v.IsNull() {
			continue
		}
		if _, ok := cs.mcvIndex[v.Key()]; ok {
			continue
		}
		rest = append(rest, v)
	}
	if len(rest) > 0 {
		sort.Slice(rest, func(i, j int) bool { return rest[i].Compare(rest[j]) < 0 })
		buckets := min(target, len(rest))
		bounds := make([]rel.Value, 0, buckets+1)
		for b := 0; b <= buckets; b++ {
			bounds = append(bounds, rest[b*(len(rest)-1)/buckets])
		}
		cs.Hist = &Histogram{Bounds: bounds, TotalFrac: float64(len(rest)) / float64(cs.NumRows)}
	}
	return cs
}

// genColumn returns n values of one generated column shape, with
// NULLs at rate nullRate.
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
		case "dupes": // few values, heavily repeated and skewed
			out[i] = rel.Int(int64(rng.Intn(1 + rng.Intn(8))))
		case "dense": // a key-like range: the counting pass
			out[i] = rel.Int(int64(rng.Intn(n+1)) - int64(n/2))
		case "sparse": // a wide range: the comparison sort
			out[i] = rel.Int(rng.Int63n(1<<40) - 1<<39)
		case "extreme":
			out[i] = rel.Int(extremes[rng.Intn(len(extremes))])
		case "strings":
			out[i] = rel.String_(words[rng.Intn(len(words))])
		case "words":
			out[i] = rel.String_(fmt.Sprintf("w%d", rng.Intn(1+n/3)))
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

func columnTable(vals []rel.Value) *storage.Table {
	t := storage.NewTable("t", rel.NewSchema(rel.Column{Name: "x", Kind: rel.KindInt}))
	for _, v := range vals {
		t.MustAppend(rel.Row{v})
	}
	return t
}

var referenceOptions = []AnalyzeOptions{
	{}, {Target: 1}, {Target: 3}, {Target: 1000}, {MCVMinCount: 1}, {Target: 5, MCVMinCount: 4},
}

func checkAgainstReference(t *testing.T, name string, tab *storage.Table) {
	t.Helper()
	for _, opts := range referenceOptions {
		got, want := AnalyzeColumn(tab, 0, opts), analyzeReference(tab, 0, opts)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s, %+v:\n got %+v\nwant %+v", name, opts, got, want)
		}
	}
}

// TestAnalyzeMatchesReference checks the value-order ANALYZE against
// the map-based reference on generated int and string columns: heavy
// duplicates, dense and sparse ranges, extreme ints, empty strings,
// NULLs, all-NULL, empty and one-row tables, across Target and
// MCVMinCount settings, and for the float and mixed-kind columns that
// keep the per-row path.
func TestAnalyzeMatchesReference(t *testing.T) {
	shapes := []string{"dupes", "dense", "sparse", "extreme", "strings", "words", "floats", "mixed"}
	rng := rand.New(rand.NewSource(7))
	for _, shape := range shapes {
		for _, n := range []int{0, 1, 2, 7, 150, 2000} {
			for _, nullRate := range []float64{0, 0.2, 1} {
				name := fmt.Sprintf("%s/n=%d/nulls=%v", shape, n, nullRate)
				checkAgainstReference(t, name, columnTable(genColumn(rng, shape, n, nullRate)))
			}
		}
	}
}

// TestAnalyzeIndexedMatchesReference covers the path where ANALYZE reuses
// the index's order, and the one where an Append since CreateIndex made
// that order stale.
func TestAnalyzeIndexedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, shape := range []string{"dupes", "dense", "sparse", "words"} {
		tab := columnTable(genColumn(rng, shape, 500, 0.1))
		if _, err := tab.CreateIndex("x"); err != nil {
			t.Fatal(err)
		}
		checkAgainstReference(t, shape+"/indexed", tab)
		for _, v := range genColumn(rng, shape, 50, 0.1) {
			tab.MustAppend(rel.Row{v})
		}
		checkAgainstReference(t, shape+"/appended", tab)
	}
}
