package executor

// Typed kernels of the skeleton engines: the column gather every
// materialization goes through (scans, joins, template refinement), the
// key hash and key equality over boundary columns, and the flat chained
// hash table joins build and probe.

import (
	"reopt/internal/rel"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// newColLike allocates an n-row ColData shaped like src: same kind,
// same typed slice (Vals for a mixed-kind src), NULL marking allocated
// exactly when src carries one. The result satisfies every ColData
// invariant (NullWords nil exactly when Nulls is nil), so
// appendFilterPasses compiles against it exactly as against a sample
// column.
func newColLike(src *storage.ColData, n int) *storage.ColData {
	dst := &storage.ColData{Kind: src.Kind}
	if src.Vals != nil {
		dst.Vals = make([]rel.Value, n)
		return dst
	}
	switch src.Kind {
	case rel.KindFloat:
		dst.Floats = make([]float64, n)
	case rel.KindString:
		dst.Strs = make([]string, n)
	default:
		dst.Ints = make([]int64, n)
	}
	if src.Nulls != nil {
		dst.Nulls = make([]bool, n)
		dst.NullWords = make([]uint64, vec.NumWords(n))
	}
	return dst
}

// gatherCol copies src rows ids[lo:hi) into dst at destination offset
// off (entry x lands at dst row off+x): typed values and the Nulls
// marking, but not NullWords — adjacent destination ranges can share a
// bitmap word, so concurrent gathers into one column leave the words to
// a sequential markNulls afterwards.
func gatherCol(dst, src *storage.ColData, ids []int32, lo, hi, off int) {
	if src.Vals != nil {
		for x := lo; x < hi; x++ {
			dst.Vals[off+x] = src.Vals[ids[x]]
		}
		return
	}
	switch src.Kind {
	case rel.KindFloat:
		for x := lo; x < hi; x++ {
			dst.Floats[off+x] = src.Floats[ids[x]]
		}
	case rel.KindString:
		for x := lo; x < hi; x++ {
			dst.Strs[off+x] = src.Strs[ids[x]]
		}
	default:
		for x := lo; x < hi; x++ {
			dst.Ints[off+x] = src.Ints[ids[x]]
		}
	}
	if src.Nulls != nil {
		for x := lo; x < hi; x++ {
			dst.Nulls[off+x] = src.Nulls[ids[x]]
		}
	}
}

// markNulls sets dst's NULL bitmap words from its Nulls marking for
// rows [lo, hi); a no-op for columns without NULL marking.
func markNulls(dst *storage.ColData, lo, hi int) {
	if dst.Nulls == nil {
		return
	}
	for i := lo; i < hi; i++ {
		if dst.Nulls[i] {
			dst.NullWords[i/vec.WordBits] |= 1 << (uint(i) % vec.WordBits)
		}
	}
}

// keyHash hashes row i's key columns with the typed folds, which are
// bit-identical to rel.Value.Hash64, and reports whether any is NULL.
func keyHash(cols []*storage.ColData, key []int, i int) (uint64, bool) {
	h := rel.HashSeed
	for _, ci := range key {
		c := cols[ci]
		switch {
		case c.Vals != nil:
			if c.Vals[i].IsNull() {
				return 0, true
			}
			h = c.Vals[i].Hash64(h)
		case c.Nulls != nil && c.Nulls[i]:
			return 0, true
		case c.Kind == rel.KindFloat:
			h = rel.HashFloat64(h, c.Floats[i])
		case c.Kind == rel.KindString:
			h = rel.HashString(h, c.Strs[i])
		default:
			h = rel.HashInt64(h, c.Ints[i])
		}
	}
	return h, false
}

// colKeysEqual reports whether left row i and right row j agree on every
// key column pair under rel.Value.Equal: integers compare exactly,
// int/float pairs and floats compare as float64 (so NaN equals every
// number), strings compare bytewise, and strings never equal numbers.
// Both rows are known non-NULL on their keys (keyHash screened them).
func colKeysEqual(lcols []*storage.ColData, lkey []int, i int, rcols []*storage.ColData, rkey []int, j int) bool {
	for k, lc := range lkey {
		a, b := lcols[lc], rcols[rkey[k]]
		if a.Vals != nil || b.Vals != nil {
			if !a.Value(i).Equal(b.Value(j)) {
				return false
			}
			continue
		}
		switch {
		case a.Kind == rel.KindInt && b.Kind == rel.KindInt:
			if a.Ints[i] != b.Ints[j] {
				return false
			}
		case a.Kind == rel.KindString || b.Kind == rel.KindString:
			if a.Kind != b.Kind || a.Strs[i] != b.Strs[j] {
				return false
			}
		default:
			x, y := numAt(a, i), numAt(b, j)
			if x < y || x > y {
				return false
			}
		}
	}
	return true
}

// numAt widens row i of a numeric typed column to float64.
func numAt(c *storage.ColData, i int) float64 {
	if c.Kind == rel.KindFloat {
		return c.Floats[i]
	}
	return float64(c.Ints[i])
}

// hashTable is a build side's flat chained hash table. heads holds the
// first row of each of a power-of-two number of buckets, next links the
// rows of one bucket in ascending row order (-1 ends a chain), and
// hashes keeps every row's full key hash, so a probe walks one chain
// and visits exactly the rows of equal hash in row order. Rows with a
// NULL key are never linked: NULL matches nothing.
type hashTable struct {
	heads  []int32
	next   []int32
	hashes []uint64
	shift  uint
}

// nullKeyRow marks, until linking, a build row whose key is NULL.
const nullKeyRow = -2

// newHashTable allocates an empty table for n build rows.
func newHashTable(n int) *hashTable {
	b := 0
	for 1<<b < n {
		b++
	}
	heads := make([]int32, 1<<b)
	for i := range heads {
		heads[i] = -1
	}
	return &hashTable{heads: heads, next: make([]int32, n), hashes: make([]uint64, n), shift: uint(64 - b)}
}

// bucket maps a key hash to its bucket with a Fibonacci multiply, so
// every bit of the FNV hash reaches the top bits the index is cut from.
func (ht *hashTable) bucket(h uint64) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> ht.shift
}

// hashRows hashes build rows [lo, hi). Segments of one table write
// disjoint rows, so they may run concurrently.
func (ht *hashTable) hashRows(r *subResult, rkey []int, lo, hi int) {
	for j := lo; j < hi; j++ {
		h, null := keyHash(r.cols, rkey, j)
		ht.hashes[j] = h
		ht.next[j] = -1
		if null {
			ht.next[j] = nullKeyRow
		}
	}
}

// link chains every hashed non-NULL row into its bucket, highest row
// first, so each chain iterates in ascending row order. Sequential.
func (ht *hashTable) link() {
	for j := len(ht.next) - 1; j >= 0; j-- {
		if ht.next[j] == nullKeyRow {
			continue
		}
		b := ht.bucket(ht.hashes[j])
		ht.next[j] = ht.heads[b]
		ht.heads[b] = int32(j)
	}
}
