package optimizer

import (
	"fmt"
	"math"
	"math/bits"

	"reopt/internal/plan"
	"reopt/internal/sql"
)

// bestScan picks the cheapest access path for FROM entry i.
func (o *Optimizer) bestScan(e *estimator, i int) *plan.ScanNode {
	tr := e.q.Tables[i]
	t := e.tables[tr.Alias]
	filters := e.q.SelectionsOn(tr.Alias)
	outRows := clampRows(e.card(1 << uint(i)))
	baseRows := float64(t.NumRows())
	pages := float64(t.NumPages())

	mk := func(access plan.AccessKind, idxCol string, cost float64) *plan.ScanNode {
		return &plan.ScanNode{
			Alias:       tr.Alias,
			Table:       tr.Name,
			Filters:     filters,
			Access:      access,
			IndexColumn: idxCol,
			OutSchema:   aliasSchema(t, tr.Alias),
			Rows:        outRows,
			CostVal:     cost,
		}
	}

	best := mk(plan.SeqScan, "", o.model.SeqScan(pages, baseRows, len(filters)))

	// Index scans: one candidate per equality filter on an indexed column.
	for _, f := range filters {
		if f.Op != sql.OpEq {
			continue
		}
		idx := t.Index(f.Col.Column)
		if idx == nil {
			continue
		}
		// The index returns rows matching this one filter; the residual
		// filters are applied on fetched rows.
		matchSel := e.selectionSel(tr.Name, f)
		matchRows := baseRows * matchSel
		cost := o.model.IndexProbe(idx.Height(), matchRows, len(filters)-1)
		if cand := mk(plan.IndexScan, f.Col.Column, cost); cand.CostVal < best.CostVal {
			best = cand
		}
	}
	return best
}

// joinChoice is one costed physical join of a split: everything the
// JoinNode needs except the node itself. The DP compares candidates as
// scalars and materializes only each cell's winner (buildJoin), so a
// split costs no node or schema allocation.
type joinChoice struct {
	kind                plan.JoinKind
	left, right         plan.Node
	leftMask, rightMask uint64
	preds               []sql.JoinPred
	outRows             float64
	cost                float64
	// Index nested-loop only: the probe predicate (index into preds),
	// the indexed inner column, and the inner index scan's probe cost.
	probePred int
	innerCol  string
	probeCost float64
}

// bestJoin costs every physical join of left and right and returns the
// cheapest; candidates are considered in a fixed order and a later one
// wins only on strictly lower cost.
func (o *Optimizer) bestJoin(e *estimator, leftMask, rightMask uint64, left, right plan.Node) joinChoice {
	preds := e.predsBetween(leftMask, rightMask)
	outRows := clampRows(e.card(leftMask | rightMask))
	leftRows := clampRows(e.card(leftMask))
	rightRows := clampRows(e.card(rightMask))

	best := joinChoice{left: left, right: right, leftMask: leftMask, rightMask: rightMask, preds: preds, outRows: outRows}
	have := false
	consider := func(kind plan.JoinKind, cost float64) bool {
		if have && !(cost < best.cost) {
			return false
		}
		best.kind, best.cost, have = kind, cost, true
		return true
	}

	if len(preds) > 0 {
		consider(plan.HashJoin,
			o.model.HashJoin(left.Cost(), right.Cost(), leftRows, rightRows, len(preds), outRows))
		consider(plan.MergeJoin,
			o.model.MergeJoin(left.Cost(), right.Cost(), leftRows, rightRows, outRows))
	}
	consider(plan.NestedLoop,
		o.model.NestLoop(left.Cost(), right.Cost(), leftRows, rightRows, len(preds), outRows))

	// Index nested-loop: the inner side must be a single base relation
	// with an index on one of the join columns.
	if bits.OnesCount64(rightMask) == 1 && len(preds) > 0 {
		i := bits.TrailingZeros64(rightMask)
		tr := e.q.Tables[i]
		t := e.tables[tr.Alias]
		nfilters := len(e.q.SelectionsOn(tr.Alias))
		for pi, p := range preds {
			innerCol := p.Right
			if innerCol.Table != tr.Alias {
				innerCol = p.Left
			}
			if innerCol.Table != tr.Alias {
				continue
			}
			idx := t.Index(innerCol.Column)
			if idx == nil {
				continue
			}
			// Matches per probe before residual predicates: uniform
			// share of the inner table per distinct join key.
			nd := float64(idx.NumDistinct())
			matchPerProbe := 0.0
			if nd > 0 {
				matchPerProbe = float64(t.NumRows()) / nd
			}
			residual := nfilters + len(preds) - 1
			probe := o.model.IndexProbe(idx.Height(), matchPerProbe, residual)
			if consider(plan.IndexNestedLoop, o.model.IndexNestLoop(left.Cost(), leftRows, probe, outRows)) {
				best.probePred, best.innerCol, best.probeCost = pi, innerCol.Column, probe
			}
		}
	}
	return best
}

// buildJoin materializes a costed join choice as a plan node.
func (o *Optimizer) buildJoin(e *estimator, c joinChoice) *plan.JoinNode {
	n := &plan.JoinNode{
		Kind:      c.kind,
		Left:      c.left,
		Right:     c.right,
		Preds:     c.preds,
		OutSchema: c.left.Schema().Concat(c.right.Schema()),
		Rows:      c.outRows,
		CostVal:   c.cost,
	}
	if c.kind != plan.IndexNestedLoop {
		return n
	}
	i := bits.TrailingZeros64(c.rightMask)
	tr := e.q.Tables[i]
	t := e.tables[tr.Alias]
	n.Right = &plan.ScanNode{
		Alias:       tr.Alias,
		Table:       tr.Name,
		Filters:     e.q.SelectionsOn(tr.Alias),
		Access:      plan.IndexScan,
		IndexColumn: c.innerCol,
		OutSchema:   aliasSchema(t, tr.Alias),
		Rows:        clampRows(e.card(c.rightMask)),
		CostVal:     c.probeCost,
	}
	// Reorder preds so the probe predicate drives the lookup.
	p := c.preds[c.probePred]
	ordered := make([]sql.JoinPred, 0, len(c.preds))
	ordered = append(ordered, p)
	for _, q := range c.preds {
		if q != p {
			ordered = append(ordered, q)
		}
	}
	n.Preds = ordered
	return n
}

// searchDP runs the Selinger-style dynamic program over relation
// subsets, considering bushy trees when configured and falling back to
// cross products only for subsets with no connected split.
func (o *Optimizer) searchDP(e *estimator) (plan.Node, error) {
	n := len(e.aliases)
	full := uint64(1)<<uint(n) - 1
	best := make(map[uint64]plan.Node, 1<<uint(n))
	requireConnected := e.queryConnected()

	for i := 0; i < n; i++ {
		best[1<<uint(i)] = o.bestScan(e, i)
	}

	for size := 2; size <= n; size++ {
		for s := uint64(1); s <= full; s++ {
			if bits.OnesCount64(s) != size {
				continue
			}
			if requireConnected && !e.connectedSet(s) {
				continue
			}
			var bestC joinChoice
			found := false
			// Pass 1: connected splits only; pass 2 (if needed): any split.
			for pass := 0; pass < 2 && !found; pass++ {
				for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
					other := s &^ sub
					if !o.cfg.BushyTrees &&
						bits.OnesCount64(sub) > 1 && bits.OnesCount64(other) > 1 {
						continue
					}
					if pass == 0 && !e.connected(sub, other) {
						continue
					}
					l, okL := best[sub]
					r, okR := best[other]
					if !okL || !okR {
						continue
					}
					if c := o.bestJoin(e, sub, other, l, r); !found || c.cost < bestC.cost {
						bestC, found = c, true
					}
				}
			}
			if found {
				best[s] = o.buildJoin(e, bestC)
			}
		}
	}
	root, ok := best[full]
	if !ok {
		return nil, fmt.Errorf("optimizer: dynamic program found no plan for %d relations", n)
	}
	return root, nil
}

// SearchSpaceSize returns the number of distinct join trees (distinct as
// global transformations, i.e. counting unordered split hierarchies) the
// DP would consider for the query — the N of the paper's Theorem 4. The
// count saturates at math.MaxFloat64 for very large queries.
func (o *Optimizer) SearchSpaceSize(q *sql.Query) (float64, error) {
	e, err := newEstimator(o.cat, q, nil, o.cfg.Profile)
	if err != nil {
		return 0, err
	}
	n := len(e.aliases)
	full := uint64(1)<<uint(n) - 1
	memo := make(map[uint64]float64, 1<<uint(n))
	requireConnected := e.queryConnected()
	for i := 0; i < n; i++ {
		memo[1<<uint(i)] = 1
	}
	for size := 2; size <= n; size++ {
		for s := uint64(1); s <= full; s++ {
			if bits.OnesCount64(s) != size {
				continue
			}
			if requireConnected && !e.connectedSet(s) {
				continue
			}
			total := 0.0
			anyConnected := false
			for pass := 0; pass < 2 && !anyConnected && total == 0; pass++ {
				for sub := (s - 1) & s; sub > 0; sub = (sub - 1) & s {
					other := s &^ sub
					if sub > other {
						continue // count unordered splits once
					}
					if !o.cfg.BushyTrees &&
						bits.OnesCount64(sub) > 1 && bits.OnesCount64(other) > 1 {
						continue
					}
					if pass == 0 && !e.connected(sub, other) {
						continue
					}
					if pass == 0 {
						anyConnected = true
					}
					total += memo[sub] * memo[other]
					if math.IsInf(total, 1) {
						total = math.MaxFloat64
					}
				}
			}
			memo[s] = total
		}
	}
	return memo[full], nil
}
