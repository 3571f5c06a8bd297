package storage

import (
	"cmp"
	"slices"

	"reopt/internal/rel"
)

// ValueOrder is one column's non-NULL rows in stable value order: IDs
// holds their row ids sorted by value, equal values in heap order, and
// Runs[i] is where the i-th distinct value starts in IDs, with a final
// entry len(IDs). Nulls counts the NULL rows IDs leaves out. Index
// creation and ANALYZE both read a column from this one order; callers
// must treat it as immutable.
type ValueOrder struct {
	IDs   []int
	Runs  []int
	Nulls int
}

// NumDistinct returns the number of distinct non-NULL values.
func (o *ValueOrder) NumDistinct() int { return len(o.Runs) - 1 }

// Run returns the row ids of the i-th distinct value in heap order. The
// slice is capped at its end, so appending to it reallocates instead of
// overwriting the next run.
func (o *ValueOrder) Run(i int) []int {
	lo, hi := o.Runs[i], o.Runs[i+1]
	return o.IDs[lo:hi:hi]
}

// ValueOrder returns column pos's rows in stable value order. It reuses
// the order the column's index was built from when no row has been
// appended since, and otherwise sorts the column's typed data once. ok
// is false for float and mixed-kind columns: with NaN or -0.0, Compare
// and Key disagree, so counting equal neighbours after a sort would not
// match counting by key, and those columns keep the per-row path.
func (t *Table) ValueOrder(pos int) (o *ValueOrder, ok bool) {
	if ix := t.indexes[t.schema.Columns[pos].Name]; ix != nil && ix.order != nil {
		return ix.order, true
	}
	col := buildColumn(t.rows, pos)
	switch col.Kind {
	case rel.KindInt:
		return orderInts(col.Ints, col.Nulls), true
	case rel.KindString:
		return orderKeys(col.Strs, col.Nulls), true
	default:
		return nil, false
	}
}

// orderInts orders an int column. When the values span fewer than twice
// as many integers as there are rows, which covers the generated key,
// date and code columns, it is one stable counting pass; otherwise it
// falls back to the comparison sort.
func orderInts(keys []int64, nulls []bool) *ValueOrder {
	lo, hi, n := int64(0), int64(0), 0
	for i, k := range keys {
		if nulls != nil && nulls[i] {
			continue
		}
		if n == 0 || k < lo {
			lo = k
		}
		if n == 0 || k > hi {
			hi = k
		}
		n++
	}
	span := uint64(hi) - uint64(lo) // cannot overflow, unlike hi-lo
	if n == 0 || span >= 2*uint64(n) {
		return orderKeys(keys, nulls)
	}
	// next[v] becomes the IDs offset of value lo+v, then the offset
	// its next row is written to.
	next := make([]int, span+1)
	for i, k := range keys {
		if nulls == nil || !nulls[i] {
			next[k-lo]++
		}
	}
	o := &ValueOrder{IDs: make([]int, n), Nulls: len(keys) - n}
	at := 0
	for v, c := range next {
		next[v] = at
		if c > 0 {
			o.Runs = append(o.Runs, at)
		}
		at += c
	}
	o.Runs = append(o.Runs, n)
	for i, k := range keys {
		if nulls == nil || !nulls[i] {
			o.IDs[next[k-lo]] = i
			next[k-lo]++
		}
	}
	return o
}

type keyed[K cmp.Ordered] struct {
	k  K
	id int
}

// orderKeys orders a column by one sort of (value, row id) pairs; the id
// tie-break makes the order stable.
func orderKeys[K cmp.Ordered](keys []K, nulls []bool) *ValueOrder {
	ps := make([]keyed[K], 0, len(keys))
	for i, k := range keys {
		if nulls == nil || !nulls[i] {
			ps = append(ps, keyed[K]{k, i})
		}
	}
	slices.SortFunc(ps, func(a, b keyed[K]) int {
		if c := cmp.Compare(a.k, b.k); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	})
	o := &ValueOrder{IDs: make([]int, len(ps)), Nulls: len(keys) - len(ps)}
	for j, p := range ps {
		if j == 0 || p.k != ps[j-1].k {
			o.Runs = append(o.Runs, j)
		}
		o.IDs[j] = p.id
	}
	o.Runs = append(o.Runs, len(ps))
	return o
}
