package storage

import (
	"reopt/internal/rel"
	"reopt/internal/vec"
)

// ColStore is a column-major projection of a table: each column whose
// non-null values share one kind is stored as a typed slice ([]int64,
// []float64, or []string), so predicate evaluation and key hashing over
// it run as tight typed loops with no per-row Value construction. It is
// the storage format the count-only sample-skeleton engine scans;
// samples are immutable once built, so the projection is computed once
// and cached on the table.
type ColStore struct {
	numRows int
	cols    []ColData
}

// ColData holds one column. Exactly one of the typed slices is populated
// when Kind is a scalar kind; Vals is the row-major fallback for columns
// that mix kinds (Kind == KindNull), which keeps the engine total.
type ColData struct {
	// Kind is the uniform kind of the column's non-null values, or
	// KindNull when the column mixes kinds and Vals must be used.
	Kind   rel.Kind
	Ints   []int64
	Floats []float64
	Strs   []string
	// Nulls marks NULL positions (typed slices hold zero values there);
	// nil when the column has no NULLs.
	Nulls []bool
	// NullWords is the same NULL marking as a bitmap (one bit per row,
	// vec.Bitmap word layout), prebuilt so the vectorized predicate
	// kernels can mask NULLs with word-wise AND-NOT instead of a per-row
	// check. nil exactly when Nulls is nil.
	NullWords []uint64
	// Vals is set only for mixed-kind columns.
	Vals []rel.Value
}

// IsNull reports whether row i of the column is NULL.
func (c *ColData) IsNull(i int) bool {
	if c.Kind == rel.KindNull {
		return c.Vals[i].IsNull()
	}
	return c.Nulls != nil && c.Nulls[i]
}

// Value reconstructs the Value at row i.
func (c *ColData) Value(i int) rel.Value {
	if c.IsNull(i) {
		return rel.Null
	}
	switch c.Kind {
	case rel.KindInt:
		return rel.Int(c.Ints[i])
	case rel.KindFloat:
		return rel.Float(c.Floats[i])
	case rel.KindString:
		return rel.String_(c.Strs[i])
	default:
		return c.Vals[i]
	}
}

// NumRows returns the row count.
func (cs *ColStore) NumRows() int { return cs.numRows }

// Col returns the column at schema position pos.
func (cs *ColStore) Col(pos int) *ColData { return &cs.cols[pos] }

// ShardBounds returns the row boundaries that partition rows into at
// most n contiguous shards: bounds[i] is the first row of shard i, with
// a final entry equal to rows. Every interior boundary is a multiple of
// vec.WordBits so each shard's NULL bitmap is a whole-word slice of the
// parent's and vectorized kernels never straddle a shard edge. The
// result is a pure function of (rows, n): shard layout is deterministic
// and independent of workers, cache state, and build order. n <= 1 (or
// a table too small to split) yields the single shard [0, rows).
func ShardBounds(rows, n int) []int {
	if n < 1 {
		n = 1
	}
	// Ceil division, then round the step up to a whole word.
	step := (rows + n - 1) / n
	if rem := step % vec.WordBits; rem != 0 {
		step += vec.WordBits - rem
	}
	if step < vec.WordBits {
		step = vec.WordBits
	}
	bounds := []int{0}
	for lo := step; lo < rows; lo += step {
		bounds = append(bounds, lo)
	}
	return append(bounds, rows)
}

// Shards splits the store into at most n contiguous row-range views
// sharing the parent's column storage (zero-copy: typed slices, Nulls,
// and Vals are re-sliced; NullWords is re-sliced on whole-word
// boundaries, which ShardBounds guarantees). Concatenating the shards'
// rows in shard order reproduces the parent exactly — the invariant the
// mergeable-partial-result contract of the skeleton engines relies on.
// Shards(1) returns the store itself.
func (cs *ColStore) Shards(n int) []*ColStore {
	bounds := ShardBounds(cs.numRows, n)
	if len(bounds) == 2 {
		return []*ColStore{cs}
	}
	out := make([]*ColStore, len(bounds)-1)
	for i := range out {
		lo, hi := bounds[i], bounds[i+1]
		sh := &ColStore{numRows: hi - lo, cols: make([]ColData, len(cs.cols))}
		for pos := range cs.cols {
			src := &cs.cols[pos]
			dst := &sh.cols[pos]
			dst.Kind = src.Kind
			if src.Ints != nil {
				dst.Ints = src.Ints[lo:hi]
			}
			if src.Floats != nil {
				dst.Floats = src.Floats[lo:hi]
			}
			if src.Strs != nil {
				dst.Strs = src.Strs[lo:hi]
			}
			if src.Vals != nil {
				dst.Vals = src.Vals[lo:hi]
			}
			if src.Nulls != nil {
				dst.Nulls = src.Nulls[lo:hi]
				// lo is word-aligned, so shard-local bit i is global bit
				// lo+i and the shard's bitmap is a whole-word subslice.
				dst.NullWords = src.NullWords[lo/vec.WordBits : lo/vec.WordBits+vec.NumWords(hi-lo)]
			}
		}
		out[i] = sh
	}
	return out
}

// BuildColStore computes the column-major projection of a table.
func BuildColStore(t *Table) *ColStore {
	cs := &ColStore{numRows: t.NumRows(), cols: make([]ColData, t.Schema().Len())}
	for pos := range cs.cols {
		cs.cols[pos] = buildColumn(t.rows, pos)
	}
	return cs
}

// buildColumn computes one column of the projection in one pass over
// the rows, typed by the first non-null value's kind; a later value of
// another kind makes the column mixed.
func buildColumn(rows []rel.Row, pos int) ColData {
	n := len(rows)
	col := ColData{Kind: rel.KindNull}
	for i, row := range rows {
		v := row[pos]
		if v.IsNull() {
			if col.Nulls == nil {
				col.Nulls = make([]bool, n)
				col.NullWords = make([]uint64, vec.NumWords(n))
			}
			col.Nulls[i] = true
			col.NullWords[i/vec.WordBits] |= 1 << (uint(i) % vec.WordBits)
			continue
		}
		if col.Kind == rel.KindNull {
			col.Kind = v.Kind()
			switch col.Kind {
			case rel.KindInt:
				col.Ints = make([]int64, n)
			case rel.KindFloat:
				col.Floats = make([]float64, n)
			case rel.KindString:
				col.Strs = make([]string, n)
			}
		}
		switch {
		case v.Kind() != col.Kind:
			mixed := ColData{Kind: rel.KindNull, Vals: make([]rel.Value, n)}
			for j, r := range rows {
				mixed.Vals[j] = r[pos]
			}
			return mixed
		case col.Kind == rel.KindInt:
			col.Ints[i] = v.AsInt()
		case col.Kind == rel.KindFloat:
			col.Floats[i] = v.AsFloat()
		default:
			col.Strs[i] = v.AsString()
		}
	}
	if col.Kind == rel.KindNull {
		// All-NULL (or empty) column: Nulls (already allocated when any
		// row is NULL) plus a zero Ints slice keeps accessors total.
		col.Kind = rel.KindInt
		col.Ints = make([]int64, n)
	}
	return col
}
