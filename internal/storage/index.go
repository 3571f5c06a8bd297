package storage

import (
	"reopt/internal/rel"
)

// Index is a secondary index over one column of a table: a hash
// directory from each distinct non-NULL key to its row ids in heap
// order, serving the O(1) point lookups the paper's equality-only
// workloads use. NULL rows are left out of the directory, since NULL
// never matches. Reads mutate nothing, so an index is safe for
// concurrent readers between appends.
type Index struct {
	table  *Table
	column string
	colPos int

	// hash maps each key to its row ids. Entries built by CreateIndex
	// are capped sub-slices of order.IDs, so a later Append reallocates
	// the entry it extends instead of overwriting the next value's ids.
	hash map[rel.ValueKey][]int
	// order is the value order the directory was built from, kept for
	// ANALYZE to reuse; nil for float and mixed-kind columns and once a
	// row has been appended.
	order *ValueOrder
}

// newIndex builds the index on column pos of t: one directory entry per
// run of the column's value order, or, for float and mixed-kind
// columns, one insert per row.
func newIndex(t *Table, column string, pos int) *Index {
	ix := &Index{table: t, column: column, colPos: pos}
	o, ok := t.ValueOrder(pos)
	if !ok {
		ix.hash = make(map[rel.ValueKey][]int)
		for id, row := range t.rows {
			ix.insert(row[pos], id)
		}
		return ix
	}
	ix.order = o
	ix.hash = make(map[rel.ValueKey][]int, o.NumDistinct())
	for i := range o.NumDistinct() {
		run := o.Run(i)
		ix.hash[t.rows[run[0]][pos].Key()] = run
	}
	return ix
}

// Column returns the indexed column name.
func (ix *Index) Column() string { return ix.column }

// ColumnPos returns the indexed column's position in the table schema.
func (ix *Index) ColumnPos() int { return ix.colPos }

func (ix *Index) insert(v rel.Value, id int) {
	ix.order = nil
	if v.IsNull() {
		return
	}
	k := v.Key()
	ix.hash[k] = append(ix.hash[k], id)
}

// Lookup returns the heap row ids whose indexed column equals v, in heap
// order. NULL never matches. The returned slice is owned by the index and
// must not be mutated.
func (ix *Index) Lookup(v rel.Value) []int {
	if v.IsNull() {
		return nil
	}
	return ix.hash[v.Key()]
}

// NumDistinct returns the number of distinct non-NULL keys in the index,
// the figure ANALYZE reports as the column's n_distinct.
func (ix *Index) NumDistinct() int { return len(ix.hash) }

// NumEntries returns the total number of indexed rows. Like a B-tree,
// the index the cost model charges for holds an entry for every row,
// NULLs included; only the hash directory leaves NULLs out.
func (ix *Index) NumEntries() int { return ix.table.NumRows() }

// LeafPages approximates the number of index leaf pages, used by the cost
// model for index scans. Index entries are denser than heap rows; we
// assume 4x the heap fanout.
func (ix *Index) LeafPages() int {
	per := ix.table.rowsPerPage * 4
	n := ix.NumEntries()
	if n == 0 {
		return 1
	}
	return (n + per - 1) / per
}

// Height approximates the B-tree height (root-to-leaf page reads for a
// point descent), used to charge random page accesses per probe.
func (ix *Index) Height() int {
	h := 1
	pages := ix.LeafPages()
	const fanout = 256
	for pages > 1 {
		pages = (pages + fanout - 1) / fanout
		h++
	}
	return h
}
