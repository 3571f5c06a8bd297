package optimizer

import (
	"fmt"
	"math/rand"

	"reopt/internal/plan"
)

// Randomized-search parameters, loosely following PostgreSQL's GEQO
// defaults scaled down for an in-memory engine.
const (
	geqoPopulation  = 64
	geqoGenerations = 120
)

// searchRandomized is the GEQO-style fallback for queries that join more
// relations than the DP threshold: a small genetic algorithm over
// left-deep join orders (permutations), with edge-recombination-free
// crossover (order crossover) and swap mutation. The fitness of a
// permutation is the cost of the left-deep plan it induces.
func (o *Optimizer) searchRandomized(e *estimator) (plan.Node, error) {
	n := len(e.aliases)
	rng := rand.New(rand.NewSource(o.cfg.Seed + int64(n)))

	pop := make([][]int, geqoPopulation)
	for i := range pop {
		pop[i] = rng.Perm(n)
	}
	type scored struct {
		perm []int
		node plan.Node
	}
	eval := func(perm []int) plan.Node {
		node, _ := o.leftDeepPlan(e, perm)
		return node
	}
	bestOf := func() scored {
		var best scored
		for _, p := range pop {
			node := eval(p)
			if node == nil {
				continue
			}
			if best.node == nil || node.Cost() < best.node.Cost() {
				best = scored{perm: p, node: node}
			}
		}
		return best
	}

	best := bestOf()
	for g := 0; g < geqoGenerations; g++ {
		// Tournament selection of two parents.
		pick := func() []int {
			a, b := pop[rng.Intn(len(pop))], pop[rng.Intn(len(pop))]
			na, nb := eval(a), eval(b)
			if na == nil {
				return b
			}
			if nb == nil || na.Cost() < nb.Cost() {
				return a
			}
			return b
		}
		child := orderCrossover(pick(), pick(), rng)
		if rng.Float64() < 0.3 {
			i, j := rng.Intn(n), rng.Intn(n)
			child[i], child[j] = child[j], child[i]
		}
		// Replace a random victim.
		pop[rng.Intn(len(pop))] = child
		if node := eval(child); node != nil && (best.node == nil || node.Cost() < best.node.Cost()) {
			best = scored{perm: child, node: node}
		}
	}
	if best.node == nil {
		return nil, fmt.Errorf("optimizer: randomized search found no plan")
	}
	return best.node, nil
}

// leftDeepPlan builds the left-deep plan joining relations in the given
// order, choosing the cheapest physical operator at each level.
func (o *Optimizer) leftDeepPlan(e *estimator, perm []int) (plan.Node, error) {
	if len(perm) == 0 {
		return nil, fmt.Errorf("optimizer: empty permutation")
	}
	cur := plan.Node(o.bestScan(e, perm[0]))
	curMask := uint64(1) << uint(perm[0])
	for _, i := range perm[1:] {
		rightMask := uint64(1) << uint(i)
		right := plan.Node(o.bestScan(e, i))
		cur = o.buildJoin(e, o.bestJoin(e, curMask, rightMask, cur, right))
		curMask |= rightMask
	}
	return cur, nil
}

// orderCrossover implements OX1: copy a random slice from parent a, fill
// the rest in parent b's order.
func orderCrossover(a, b []int, rng *rand.Rand) []int {
	n := len(a)
	lo, hi := rng.Intn(n), rng.Intn(n)
	if lo > hi {
		lo, hi = hi, lo
	}
	child := make([]int, n)
	used := make([]bool, n)
	for i := lo; i <= hi; i++ {
		child[i] = a[i]
		used[a[i]] = true
	}
	j := 0
	for _, v := range b {
		if used[v] {
			continue
		}
		for j >= lo && j <= hi {
			j++
		}
		if j >= n {
			break
		}
		child[j] = v
		used[v] = true
		j++
	}
	return child
}
