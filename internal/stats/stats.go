// Package stats implements PostgreSQL-style table statistics and
// selectivity estimation: per-column n_distinct, most-common-value (MCV)
// lists with exact frequencies, and equi-depth histograms over the
// remaining values (mirroring pg_stats), plus the estimation rules the
// paper describes in §4.2.1 — MCV hits use recorded frequencies, misses
// assume uniformity over the non-MCV distinct values, equi-join
// selectivity uses the System-R 1/max(ndv) rule refined by joining the
// two MCV lists, and conjunctions combine under the attribute-value-
// independence (AVI) assumption.
//
// ANALYZE scans the whole table and is exact. For int and string columns
// it reads every statistic off the column's stable value order
// (storage.Table.ValueOrder, shared with the column's index when there is
// one): n_distinct and the NULL fraction from the runs of equal values,
// the MCV list from a sort of those runs by count, and the histogram
// bounds by position from the runs left after the MCVs. Float and
// mixed-kind columns count by Key and sort their values with Compare.
//
// The package also provides 2-D equi-width histograms used to reproduce
// the paper's §5.3.1 argument that even multidimensional histograms
// cannot detect the OTT correlation.
package stats

import (
	"cmp"
	"fmt"
	"slices"
	"sort"

	"reopt/internal/rel"
	"reopt/internal/storage"
)

// DefaultTarget is the statistics target: the maximum MCV list length and
// histogram bucket count, matching PostgreSQL's default_statistics_target.
const DefaultTarget = 100

// MCVEntry is one most-common value and its relative frequency.
type MCVEntry struct {
	Value rel.Value
	// Freq is the fraction of table rows equal to Value.
	Freq float64
}

// ColumnStats holds the statistics for a single column, the analog of a
// pg_stats row.
type ColumnStats struct {
	Table  string
	Column string

	// NumRows is the table row count at ANALYZE time.
	NumRows int
	// NullFrac is the fraction of NULL values.
	NullFrac float64
	// NumDistinct is the number of distinct non-null values.
	NumDistinct int
	// MCV lists the most common values, most frequent first.
	MCV []MCVEntry
	// Hist is an equi-depth histogram over the non-MCV values; nil when
	// every distinct value made it into the MCV list.
	Hist *Histogram

	mcvFreqSum float64
	mcvIndex   map[rel.ValueKey]float64
}

// MCVFreqSum returns the total frequency mass captured by the MCV list.
func (cs *ColumnStats) MCVFreqSum() float64 { return cs.mcvFreqSum }

// MCVFreq returns the recorded frequency of v and whether v is an MCV.
func (cs *ColumnStats) MCVFreq(v rel.Value) (float64, bool) {
	f, ok := cs.mcvIndex[v.Key()]
	return f, ok
}

// Histogram is an equi-depth histogram: Bounds has NumBuckets+1 entries
// and each bucket [Bounds[i], Bounds[i+1]) holds approximately the same
// number of the values it was built over.
type Histogram struct {
	Bounds []rel.Value
	// TotalFrac is the fraction of table rows the histogram covers (rows
	// that are neither NULL nor MCVs).
	TotalFrac float64
}

// NumBuckets returns the bucket count.
func (h *Histogram) NumBuckets() int {
	if h == nil || len(h.Bounds) < 2 {
		return 0
	}
	return len(h.Bounds) - 1
}

// AnalyzeOptions tunes statistics collection.
type AnalyzeOptions struct {
	// Target caps MCV length and histogram buckets; 0 means DefaultTarget.
	Target int
	// MCVMinCount is the minimum occurrence count for a value to be
	// considered "common"; 0 means 2 (values seen once never enter the
	// MCV list, as in PostgreSQL's heuristic).
	MCVMinCount int
}

// AnalyzeColumn computes full-scan statistics for one column of a table.
// Unlike PostgreSQL, which samples, we scan the whole (in-memory) table:
// statistics are exact, which makes the remaining estimation errors
// attributable purely to the estimation model (AVI, uniformity), exactly
// the errors the paper studies.
func AnalyzeColumn(t *storage.Table, pos int, opts AnalyzeOptions) *ColumnStats {
	target := opts.Target
	if target <= 0 {
		target = DefaultTarget
	}
	minCount := opts.MCVMinCount
	if minCount <= 0 {
		minCount = 2
	}

	col := t.Schema().Columns[pos]
	cs := &ColumnStats{
		Table:   col.Table,
		Column:  col.Name,
		NumRows: t.NumRows(),
	}
	if cs.NumRows == 0 {
		cs.mcvIndex = map[rel.ValueKey]float64{}
		return cs
	}
	if o, ok := t.ValueOrder(pos); ok {
		cs.analyzeOrder(t, pos, o, target, minCount)
	} else {
		cs.analyzeRows(t, pos, target, minCount)
	}
	return cs
}

// analyzeOrder reads the statistics off the column's value order: one
// run per distinct value, runs in Compare order, so no value is hashed
// or compared per row.
func (cs *ColumnStats) analyzeOrder(t *storage.Table, pos int, o *storage.ValueOrder, target, minCount int) {
	cs.NullFrac = float64(o.Nulls) / float64(cs.NumRows)
	cs.NumDistinct = o.NumDistinct()
	size := func(r int) int { return o.Runs[r+1] - o.Runs[r] }
	value := func(r int) rel.Value { return t.Row(o.IDs[o.Runs[r]])[pos] }

	// MCV list: the common runs sorted by count descending; the run
	// index tie-break keeps equal counts in value order.
	var common []int
	for r := range cs.NumDistinct {
		if size(r) >= minCount {
			common = append(common, r)
		}
	}
	slices.SortFunc(common, func(a, b int) int {
		if c := cmp.Compare(size(b), size(a)); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	common = common[:min(len(common), target)]
	cs.mcvIndex = make(map[rel.ValueKey]float64, len(common))
	inMCV := 0
	for _, r := range common {
		v, f := value(r), float64(size(r))/float64(cs.NumRows)
		cs.MCV = append(cs.MCV, MCVEntry{Value: v, Freq: f})
		cs.mcvIndex[v.Key()] = f
		cs.mcvFreqSum += f
		inMCV += size(r)
	}

	// Equi-depth histogram over the non-MCV runs, whose concatenation
	// in value order is the sorted list of the remaining values: bound
	// b is the value at position b*(rest-1)/buckets of that list.
	rest := len(o.IDs) - inMCV
	if rest == 0 {
		return
	}
	slices.Sort(common)
	buckets := min(target, rest)
	bounds := make([]rel.Value, 0, buckets+1)
	r, skip, seen := 0, 0, 0 // current run, next MCV run, values before r
	for b := 0; b <= buckets; b++ {
		i := b * (rest - 1) / buckets
		for {
			if skip < len(common) && common[skip] == r {
				skip++
			} else if seen+size(r) <= i {
				seen += size(r)
			} else {
				break
			}
			r++
		}
		bounds = append(bounds, value(r))
	}
	cs.Hist = &Histogram{Bounds: bounds, TotalFrac: float64(rest) / float64(cs.NumRows)}
}

// analyzeRows is the per-row path for float and mixed-kind columns,
// which have no value order (see storage.Table.ValueOrder): it counts by
// Key and sorts the remaining values with Compare.
func (cs *ColumnStats) analyzeRows(t *storage.Table, pos int, target, minCount int) {
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

	// MCV list: the up-to-target most frequent values with count >= minCount.
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

	// Equi-depth histogram over the non-MCV values.
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
		cs.Hist = buildHistogram(rest, target)
		cs.Hist.TotalFrac = float64(len(rest)) / float64(cs.NumRows)
	}
}

func buildHistogram(vals []rel.Value, buckets int) *Histogram {
	sort.Slice(vals, func(i, j int) bool { return vals[i].Compare(vals[j]) < 0 })
	if buckets > len(vals) {
		buckets = len(vals)
	}
	if buckets < 1 {
		buckets = 1
	}
	bounds := make([]rel.Value, 0, buckets+1)
	for b := 0; b <= buckets; b++ {
		i := b * (len(vals) - 1) / buckets
		bounds = append(bounds, vals[i])
	}
	return &Histogram{Bounds: bounds}
}

// TableStats aggregates column statistics for one table.
type TableStats struct {
	Table   string
	NumRows int
	NumPage int
	Columns map[string]*ColumnStats
}

// Analyze computes statistics for every column of the table (the ANALYZE
// command).
func Analyze(t *storage.Table, opts AnalyzeOptions) *TableStats {
	ts := &TableStats{
		Table:   t.Name(),
		NumRows: t.NumRows(),
		NumPage: t.NumPages(),
		Columns: make(map[string]*ColumnStats, t.Schema().Len()),
	}
	for pos, col := range t.Schema().Columns {
		ts.Columns[col.Name] = AnalyzeColumn(t, pos, opts)
	}
	return ts
}

// Column returns the stats for the named column or an error.
func (ts *TableStats) Column(name string) (*ColumnStats, error) {
	cs, ok := ts.Columns[name]
	if !ok {
		return nil, fmt.Errorf("stats: no statistics for %s.%s", ts.Table, name)
	}
	return cs, nil
}
