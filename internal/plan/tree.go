package plan

import (
	"sort"
	"strings"
)

// JoinSig identifies one logical join node of a join tree. Ordered is the
// Appendix E encoding — the concatenation of the node's leaf aliases in
// left-to-right order (e.g. "AB", "CAB", "ABCD"). Unordered is the
// canonical sorted form, identifying the join as a *set* of relations,
// which is what Definition 1 compares and what the validated-statistics
// store Γ is keyed by.
type JoinSig struct {
	Ordered   string
	Unordered string
}

// JoinTree is tree(P): the set of (ordered) logical joins contained in a
// plan, per §3.1 of the paper.
type JoinTree struct {
	Joins []JoinSig
}

// AliasSep separates alias names inside encodings (and so inside Γ
// keys) so multi-character aliases cannot collide ("AB"+"C" vs
// "A"+"BC").
const AliasSep = "\x1f"

// EncodeAliases joins alias names into an ordered encoding.
func EncodeAliases(aliases []string) string { return strings.Join(aliases, AliasSep) }

// CanonicalSet returns the unordered (sorted) encoding of an alias set.
func CanonicalSet(aliases []string) string {
	s := make([]string, len(aliases))
	copy(s, aliases)
	sort.Strings(s)
	return strings.Join(s, AliasSep)
}

// TreeOf extracts the join tree of a physical plan: one JoinSig per join
// node. A single-table plan has an empty tree.
func TreeOf(p *Plan) JoinTree {
	var t JoinTree
	Walk(p.Root, func(n Node) {
		if _, ok := n.(*JoinNode); !ok {
			return
		}
		aliases := n.(*JoinNode).Aliases()
		t.Joins = append(t.Joins, JoinSig{
			Ordered:   EncodeAliases(aliases),
			Unordered: CanonicalSet(aliases),
		})
	})
	return t
}

// OrderedSet returns the set of ordered join encodings.
func (t JoinTree) OrderedSet() map[string]bool {
	out := make(map[string]bool, len(t.Joins))
	for _, j := range t.Joins {
		out[j.Ordered] = true
	}
	return out
}

// UnorderedSet returns the set of unordered join encodings.
func (t JoinTree) UnorderedSet() map[string]bool {
	out := make(map[string]bool, len(t.Joins))
	for _, j := range t.Joins {
		out[j.Unordered] = true
	}
	return out
}

// Encoding returns the Appendix E bottom-up, left-to-right encoding of
// the tree, e.g. "(AB,ABC,ABCD)" rendered with comma separators.
func (t JoinTree) Encoding() string {
	parts := make([]string, len(t.Joins))
	for i, j := range t.Joins {
		parts[i] = strings.ReplaceAll(j.Ordered, AliasSep, "")
	}
	return "(" + strings.Join(parts, ",") + ")"
}

// StructurallyEqual reports Definition 3: the two trees are identical as
// ordered join trees.
func StructurallyEqual(a, b JoinTree) bool {
	if len(a.Joins) != len(b.Joins) {
		return false
	}
	bo := b.OrderedSet()
	for _, j := range a.Joins {
		if !bo[j.Ordered] {
			return false
		}
	}
	return true
}

// LocalTransformation reports Definition 1: the trees contain the same
// set of *unordered* logical joins (subtree left/right exchanges and
// physical-operator changes only). Every tree is a local transformation
// of itself.
func LocalTransformation(a, b JoinTree) bool {
	au, bu := a.UnorderedSet(), b.UnorderedSet()
	if len(au) != len(bu) {
		return false
	}
	for k := range au {
		if !bu[k] {
			return false
		}
	}
	return true
}

// GlobalTransformation reports whether b is a global transformation of a
// (Definition 1's complement).
func GlobalTransformation(a, b JoinTree) bool { return !LocalTransformation(a, b) }

// Covered reports Definition 2: every join of p's tree appears in the
// union of the trees of the plans in set, compared as unordered joins
// (A⋈B and B⋈A have identical validated cardinality, so they contribute
// the same entry to Γ).
func Covered(p JoinTree, set []JoinTree) bool {
	union := map[string]bool{}
	for _, t := range set {
		for _, j := range t.Joins {
			union[j.Unordered] = true
		}
	}
	for _, j := range p.Joins {
		if !union[j.Unordered] {
			return false
		}
	}
	return true
}

// TransformKind classifies the relationship between two consecutive plans
// in the re-optimization chain.
type TransformKind uint8

const (
	// SamePlan means identical physical fingerprints (termination).
	SamePlan TransformKind = iota
	// Local means a local transformation (Definition 1) that is not the
	// identical plan.
	Local
	// Global means a global transformation.
	Global
)

// String returns the kind's display name.
func (k TransformKind) String() string {
	switch k {
	case SamePlan:
		return "same"
	case Local:
		return "local"
	case Global:
		return "global"
	default:
		return "?"
	}
}

// Classify compares two physical plans and reports their relationship.
func Classify(prev, next *Plan) TransformKind {
	if prev == nil {
		return Global
	}
	return ClassifyBy(prev.Fingerprint(), next.Fingerprint(), TreeOf(prev), TreeOf(next))
}

// ClassifyBy is Classify of two plans given by their fingerprints and
// join trees, for callers that already hold them.
func ClassifyBy(prevFP, nextFP string, prevTree, nextTree JoinTree) TransformKind {
	if prevFP == nextFP {
		return SamePlan
	}
	if LocalTransformation(prevTree, nextTree) {
		return Local
	}
	return Global
}
