package executor

// Template-aware scan sharing (DESIGN.md §9).
//
// Parametrized workloads are overwhelmingly few *templates* times many
// constants: `price < 100` and `price < 200` share everything but the
// literal. The exact-subtree machinery (subtreeSig keys, batch dedupe)
// treats those as unrelated, so every constant pays a full sample scan.
// This file adds the constant-stripped view: a scanTemplate canonically
// identifies a filtered scan's *shape* — table, boundary columns,
// filter columns, comparison operators, and the constants' kinds — with
// the constants themselves lifted into a typed vector. Two instances of
// one template are then related by *containment*: when one instance's
// predicate provably implies another's, conjunct by conjunct, the
// contained instance's rows are a subset of the containing instance's
// already-materialized selection, and can be recovered by re-running
// the contained filters over just that selection (refinement) instead
// of over the whole sample.
//
// Refinement preserves the engine's byte-identical determinism
// contract: the gathered filter columns hold exactly the original rows'
// values, the refine passes are the same appendFilterPasses kernels a
// solo scan compiles (identical comparison semantics, NULL handling
// included), and the containing selection is in ascending row order —
// so the refined row set equals the solo selection, in the same order,
// at every worker and shard count.
//
// Fingerprints mirror rel/hash.go: the template signature folds through
// 64-bit FNV-1a (rel.HashString from the same seed), and every
// fingerprint match is collision-checked by comparing the full
// signature string before any sharing happens — a colliding template is
// simply not shared, never wrongly merged.

import (
	"sort"
	"strings"

	"reopt/internal/plan"
	"reopt/internal/rel"
	"reopt/internal/sql"
	"reopt/internal/storage"
	"reopt/internal/vec"
)

// scanTemplate is the constant-stripped canonical form of one filtered
// scan instance: identity (sig, fp) plus this instance's constant
// vector and the bookkeeping that maps canonical conjunct order back to
// the instance's filter list.
type scanTemplate struct {
	// sig is the canonical template signature: alias=table, the
	// boundary-column set, and the sorted constant-stripped conjunct
	// tokens (column, operator, constant kinds). Instances of one
	// template produce identical sigs whatever their constants or
	// filter listing order.
	sig string
	// fp is the FNV-1a fingerprint of sig (rel.HashString over
	// rel.HashSeed). Index probes go through fp; every match is
	// collision-checked against sig.
	fp uint64
	// consts is the typed constant vector in canonical conjunct order;
	// a BETWEEN conjunct contributes two entries (lo, hi).
	consts []rel.Value
	// ops holds one comparison operator per canonical conjunct.
	ops []sql.CompareOp
	// ord maps canonical conjunct index -> index into the instance's
	// Filters slice (instances may list the same conjuncts in any
	// order).
	ord []int
	// fcol maps canonical conjunct index -> index into fpos (several
	// conjuncts may filter one column).
	fcol []int
	// fpos lists the distinct filter columns' schema positions, in
	// canonical first-use order. Identical across instances of one
	// template: it is derived from the canonical conjunct order.
	fpos []int
}

// tmplKindTag renders a constant's kind for the stripped conjunct
// token: the kind is part of template identity (an int constant and a
// string constant compile different kernels), the value is not.
func tmplKindTag(v rel.Value) string {
	switch v.Kind() {
	case rel.KindInt:
		return "?i"
	case rel.KindFloat:
		return "?f"
	case rel.KindString:
		return "?s"
	default:
		return "?n"
	}
}

// scanTemplateOf canonicalizes a scan subtree into its template, or
// reports ok=false for shapes template sharing does not cover: scans
// without filters (nothing to strip — exact dedupe already shares
// them), NULL constants (their conjuncts reject every row; containment
// over them is degenerate), and duplicate stripped conjuncts (`a < 5
// AND a < 9`: the constant vectors of two instances could not be
// aligned position by position).
func scanTemplateOf(t *plan.ScanNode, refs []sql.ColRef, filterPos []int) (scanTemplate, bool) {
	if len(t.Filters) == 0 {
		return scanTemplate{}, false
	}
	toks := make([]string, len(t.Filters))
	for i, f := range t.Filters {
		if f.Value.IsNull() || (f.Op == sql.OpBetween && f.Value2.IsNull()) {
			return scanTemplate{}, false
		}
		tok := f.Col.Table + "." + f.Col.Column + " " + f.Op.String() + " " + tmplKindTag(f.Value)
		if f.Op == sql.OpBetween {
			tok += ":" + tmplKindTag(f.Value2)
		}
		toks[i] = tok
	}
	ord := make([]int, len(toks))
	for i := range ord {
		ord[i] = i
	}
	sort.Slice(ord, func(a, b int) bool { return toks[ord[a]] < toks[ord[b]] })
	for i := 1; i < len(ord); i++ {
		if toks[ord[i]] == toks[ord[i-1]] {
			return scanTemplate{}, false
		}
	}
	tm := scanTemplate{ord: ord}
	var sb strings.Builder
	sb.WriteString("TPL|")
	sb.WriteString(t.Alias)
	sb.WriteByte('=')
	sb.WriteString(t.Table)
	sb.WriteString("||")
	posIdx := map[int]int{}
	for _, fi := range ord {
		f := t.Filters[fi]
		sb.WriteString(toks[fi])
		sb.WriteByte('&')
		tm.ops = append(tm.ops, f.Op)
		tm.consts = append(tm.consts, f.Value)
		if f.Op == sql.OpBetween {
			tm.consts = append(tm.consts, f.Value2)
		}
		pos := filterPos[fi]
		j, ok := posIdx[pos]
		if !ok {
			j = len(tm.fpos)
			posIdx[pos] = j
			tm.fpos = append(tm.fpos, pos)
		}
		tm.fcol = append(tm.fcol, j)
	}
	sig := string(appendRefs([]byte(sb.String()), refs))
	tm.sig = sig
	tm.fp = rel.HashString(rel.HashSeed, sig)
	return tm, true
}

// tmplComparable reports whether ordering a against b is meaningful for
// containment: same kind, or both numeric (rel.Value.Compare orders
// those by value). Cross-kind string/numeric pairs order arbitrarily
// (by kind tag), so containment falls back to exact equality for them.
func tmplComparable(a, b rel.Value) bool {
	ka, kb := a.Kind(), b.Kind()
	if ka == rel.KindNull || kb == rel.KindNull {
		return false
	}
	if ka == kb {
		return true
	}
	numeric := func(k rel.Kind) bool { return k == rel.KindInt || k == rel.KindFloat }
	return numeric(ka) && numeric(kb)
}

// containsConsts reports whether the instance with constants a is a
// superset of the instance with constants b, conjunct by conjunct: a
// row passing b's predicate necessarily passes a's. Equality conjuncts
// (and anything incomparable) require identical constants; range
// conjuncts widen in the permissive direction; BETWEEN widens at both
// ends. Both vectors must belong to the same template (same ops, same
// expanded length).
func containsConsts(ops []sql.CompareOp, a, b []rel.Value) bool {
	k := 0
	for _, op := range ops {
		switch op {
		case sql.OpLt, sql.OpLe:
			// a's bound must sit at or above b's: rows below b's bound
			// are below a's too.
			if !tmplComparable(a[k], b[k]) || a[k].Compare(b[k]) < 0 {
				return false
			}
			k++
		case sql.OpGt, sql.OpGe:
			if !tmplComparable(a[k], b[k]) || a[k].Compare(b[k]) > 0 {
				return false
			}
			k++
		case sql.OpBetween:
			if !tmplComparable(a[k], b[k]) || !tmplComparable(a[k+1], b[k+1]) ||
				a[k].Compare(b[k]) > 0 || a[k+1].Compare(b[k+1]) < 0 {
				return false
			}
			k += 2
		default: // OpEq, OpNe: only the identical constant is contained.
			if !a[k].Equal(b[k]) {
				return false
			}
			k++
		}
	}
	return true
}

// unionConsts folds b into a, returning the loosest constant vector
// containing both instances, or ok=false when some conjunct cannot
// widen (equality conjuncts with distinct constants, incomparable
// kinds). Ties keep a's constant, so folding a task list in creation
// order is deterministic.
func unionConsts(ops []sql.CompareOp, a, b []rel.Value) ([]rel.Value, bool) {
	out := append([]rel.Value(nil), a...)
	k := 0
	for _, op := range ops {
		switch op {
		case sql.OpLt, sql.OpLe:
			if !tmplComparable(a[k], b[k]) {
				return nil, false
			}
			if a[k].Compare(b[k]) < 0 {
				out[k] = b[k]
			}
			k++
		case sql.OpGt, sql.OpGe:
			if !tmplComparable(a[k], b[k]) {
				return nil, false
			}
			if a[k].Compare(b[k]) > 0 {
				out[k] = b[k]
			}
			k++
		case sql.OpBetween:
			if !tmplComparable(a[k], b[k]) || !tmplComparable(a[k+1], b[k+1]) {
				return nil, false
			}
			if a[k].Compare(b[k]) > 0 {
				out[k] = b[k]
			}
			if a[k+1].Compare(b[k+1]) < 0 {
				out[k+1] = b[k+1]
			}
			k += 2
		default:
			if !a[k].Equal(b[k]) {
				return nil, false
			}
			k++
		}
	}
	return out, true
}

// instanceFilters materializes the template's conjuncts with the given
// constant vector, in canonical order — the filter list a shared
// (union) scan compiles. filters is any instance's filter list (the
// template's ord maps into it); only the constants are substituted.
func (tm scanTemplate) instanceFilters(filters []sql.Selection, consts []rel.Value) []sql.Selection {
	out := make([]sql.Selection, len(tm.ops))
	k := 0
	for ci, fi := range tm.ord {
		f := filters[fi]
		f.Value = consts[k]
		k++
		if f.Op == sql.OpBetween {
			f.Value2 = consts[k]
			k++
		}
		out[ci] = f
	}
	return out
}

// refineTemplate evaluates the instance's conjuncts over filter-column
// data gathered at a containing selection of n rows, returning the
// surviving *positions* within that selection, ascending. fcols is
// indexed by the template's fpos order; filters is the instance's
// filter list. The passes are the same compiled kernels a solo scan
// uses, so pass-by-pass semantics (NULLs, cross-kind comparisons,
// BETWEEN decomposition) are identical.
func refineTemplate(tm scanTemplate, filters []sql.Selection, fcols []*storage.ColData, n int) []int32 {
	if n == 0 {
		return nil
	}
	var passes []scanPass
	for ci := range tm.ops {
		passes = appendFilterPasses(passes, fcols[tm.fcol[ci]], filters[tm.ord[ci]])
	}
	bm := vec.NewBitmap(n)
	passes[0](bm, 0, n)
	if len(passes) > 1 {
		fb := vec.NewBitmap(n)
		for _, pass := range passes[1:] {
			pass(fb, 0, n)
			bm.And(fb, 0, n)
		}
	}
	count := bm.Count(0, n)
	return bm.AppendIndices(make([]int32, 0, count), 0, n)
}

// refineCachedTemplate derives the sub-result for one template instance
// from a cached containing instance: positions of the instance's rows
// within the cached selection (refineTemplate over the entry's gathered
// filter columns), then the boundary columns gathered from the cached
// sub-result at those positions. Returns nil when the entry does not
// contain the instance. The result is byte-identical to a fresh scan:
// the cached selection is ascending and a superset, so the surviving
// positions enumerate exactly the instance's rows in row order, and
// every output value is the one the fresh gather would read.
func refineCachedTemplate(tc *tmplCached, tm scanTemplate, filters []sql.Selection, sig string, refs []sql.ColRef) *subResult {
	if !containsConsts(tm.ops, tc.consts, tm.consts) {
		return nil
	}
	pos := refineTemplate(tm, filters, tc.fcols, tc.sub.count)
	cols := make([]*storage.ColData, len(tc.sub.cols))
	for k, src := range tc.sub.cols {
		cols[k] = newColLike(src, len(pos))
		gatherCol(cols[k], src, pos, 0, len(pos), 0)
		markNulls(cols[k], 0, len(pos))
	}
	return &subResult{sig: sig, count: len(pos), refs: refs, cols: cols}
}
