// Package reductions turns the paper's hardness constructions (Section 3)
// into executable artifacts: the adversarial LMG instance of Theorem 1 /
// Figure 2, the Set Cover reduction to BMR and BSR of Theorem 3 (with the
// Lemma 4 solution-improvement procedure), the Subset Sum reduction to
// MSR on arborescences of Theorem 6, and the k-median / k-center
// reductions of Theorem 2. Each construction ships with the small exact
// solver of the source problem so tests can verify the equivalences end
// to end.
package reductions

import (
	"errors"
	"fmt"

	"repro/internal/graph"
)

// AdversarialLMG builds the Figure 2 chain A→B→C with node costs a, b, c
// and single-weight edges (1−b/c)·b and (1−b/c)·c. For any storage
// constraint in [a+(1−ε)b+c, a+b+c) with ε = b/c, LMG materializes B and
// ends with total retrieval (1−ε)c while the optimum (materialize C) is
// (1−ε)b — an approximation gap of c/b, which is unbounded (Theorem 1).
// The second return value is a storage constraint inside that window.
func AdversarialLMG(a, b, c graph.Cost) (*graph.Graph, graph.Cost) {
	if b <= 0 || c <= b || c%b != 0 || b*b < c {
		// b | c keeps (1-ε)c integral; b² ≥ c keeps (1-ε)b below b so the
		// instance does not degenerate under integer costs.
		panic("reductions: need 0 < b < c ≤ b² with b | c for an integral instance")
	}
	g := graph.New("lmg-adversarial")
	va := g.AddNode(a)
	vb := g.AddNode(b)
	vc := g.AddNode(c)
	ab := b - b*b/c // (1-ε)·b
	bc := c - b     // (1-ε)·c
	g.AddEdge(va, vb, ab, ab)
	g.AddEdge(vb, vc, bc, bc)
	return g, a + ab + c
}

// SetCover is a set cover instance over elements 0..NumElements-1.
type SetCover struct {
	NumElements int
	Sets        [][]int
}

// Validate checks element indices and coverage feasibility.
func (sc SetCover) Validate() error {
	covered := make([]bool, sc.NumElements)
	for i, s := range sc.Sets {
		for _, o := range s {
			if o < 0 || o >= sc.NumElements {
				return fmt.Errorf("reductions: set %d has element %d out of range", i, o)
			}
			covered[o] = true
		}
	}
	for o, c := range covered {
		if !c {
			return fmt.Errorf("reductions: element %d not coverable", o)
		}
	}
	return nil
}

// GreedySetCover returns the classical ln(n)-approximate cover (indices
// of chosen sets).
func (sc SetCover) GreedySetCover() []int {
	covered := make([]bool, sc.NumElements)
	remaining := sc.NumElements
	var chosen []int
	for remaining > 0 {
		best, bestGain := -1, 0
		for i, s := range sc.Sets {
			gain := 0
			for _, o := range s {
				if !covered[o] {
					gain++
				}
			}
			if gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			return nil // infeasible
		}
		chosen = append(chosen, best)
		for _, o := range sc.Sets[best] {
			if !covered[o] {
				covered[o] = true
				remaining--
			}
		}
	}
	return chosen
}

// ExactSetCover finds a minimum cover by enumerating subsets of sets
// (m ≤ 20).
func (sc SetCover) ExactSetCover() ([]int, error) {
	m := len(sc.Sets)
	if m > 20 {
		return nil, errors.New("reductions: too many sets for exact cover")
	}
	masks := make([]uint64, m)
	for i, s := range sc.Sets {
		for _, o := range s {
			masks[i] |= 1 << uint(o)
		}
	}
	full := uint64(1)<<uint(sc.NumElements) - 1
	var best []int
	for sub := uint64(0); sub < 1<<uint(m); sub++ {
		var u uint64
		for i := 0; i < m; i++ {
			if sub&(1<<uint(i)) != 0 {
				u |= masks[i]
			}
		}
		if u != full {
			continue
		}
		var cur []int
		for i := 0; i < m; i++ {
			if sub&(1<<uint(i)) != 0 {
				cur = append(cur, i)
			}
		}
		if best == nil || len(cur) < len(best) {
			best = cur
		}
	}
	if best == nil {
		return nil, errors.New("reductions: instance infeasible")
	}
	return best, nil
}

// SetCoverGraph is the Theorem 3 reduction: set versions a_i and element
// versions b_j of size N, symmetric unit deltas between every pair of
// sets and between a set and each element it covers.
type SetCoverGraph struct {
	G        *graph.Graph
	Instance SetCover
	N        graph.Cost
}

// SetNode returns the version id of set i.
func (r SetCoverGraph) SetNode(i int) graph.NodeID { return graph.NodeID(i) }

// ElementNode returns the version id of element j.
func (r SetCoverGraph) ElementNode(j int) graph.NodeID {
	return graph.NodeID(len(r.Instance.Sets) + j)
}

// SetCoverToBMR builds the reduction graph with version size n (Theorem 3
// uses some large N).
func SetCoverToBMR(sc SetCover, n graph.Cost) (SetCoverGraph, error) {
	if err := sc.Validate(); err != nil {
		return SetCoverGraph{}, err
	}
	g := graph.New("setcover")
	m := len(sc.Sets)
	for i := 0; i < m+sc.NumElements; i++ {
		g.AddNode(n)
	}
	r := SetCoverGraph{G: g, Instance: sc, N: n}
	for i := 0; i < m; i++ {
		for j := i + 1; j < m; j++ {
			g.AddBiEdge(r.SetNode(i), r.SetNode(j), 1, 1)
		}
	}
	for i, s := range sc.Sets {
		for _, o := range s {
			g.AddBiEdge(r.SetNode(i), r.ElementNode(o), 1, 1)
		}
	}
	return r, nil
}

// OptimalBMRStorage is the storage cost of the optimal BMR solution under
// R = 1 given the optimal cover size: materialize m_opt sets, retrieve
// the other m−m_opt sets and all n elements through unit deltas.
func (r SetCoverGraph) OptimalBMRStorage(mOpt int) graph.Cost {
	m := len(r.Instance.Sets)
	return graph.Cost(mOpt)*r.N + graph.Cost(m-mOpt) + graph.Cost(r.Instance.NumElements)
}

// CoverFromPlan extracts the set cover encoded by a (Lemma 4 improved)
// plan: the sets whose versions are materialized.
func (r SetCoverGraph) CoverFromPlan(materialized []bool) []int {
	var cover []int
	for i := range r.Instance.Sets {
		if materialized[r.SetNode(i)] {
			cover = append(cover, i)
		}
	}
	return cover
}

// SubsetSum is a subset-sum instance: pick A ⊆ values maximizing Σ A
// subject to Σ A ≤ Target.
type SubsetSum struct {
	Values []graph.Cost
	Target graph.Cost
}

// Solve computes the exact optimum by pseudo-polynomial DP.
func (ss SubsetSum) Solve() graph.Cost {
	reach := make([]bool, ss.Target+1)
	reach[0] = true
	for _, a := range ss.Values {
		if a > ss.Target {
			continue
		}
		for t := ss.Target; t >= a; t-- {
			if reach[t-a] {
				reach[t] = true
			}
		}
	}
	for t := ss.Target; t >= 0; t-- {
		if reach[t] {
			return t
		}
	}
	return 0
}

// SubsetSumGraph is the Theorem 6 reduction to MSR on a depth-one
// arborescence.
type SubsetSumGraph struct {
	G        *graph.Graph
	Instance SubsetSum
	RootCost graph.Cost
	// Constraint is the MSR storage constraint S = N + n + T.
	Constraint graph.Cost
}

// SubsetSumToMSR builds the reduction: root v₀ of cost N, child v_i of
// cost a_i+1, and an edge (v₀, v_i) with storage 1 and retrieval a_i.
//
// Note on the construction: the paper's proof sets both edge costs to 1,
// under which minimizing Σ R(v) maximizes the *cardinality* of the
// materialized set rather than its value sum. Weighting the retrieval of
// edge (v₀,v_i) by a_i makes the MSR objective Σ_{i∉A} a_i, so the MSR
// optimum under S = N + n + T is exactly the subset-sum optimum (the
// storage argument is unchanged: S-feasibility ⇔ Σ_A a_i ≤ T).
// TestSubsetSumToMSR checks the bruteforce MSR optimum equals
// Σ a_i minus the best subset sum on random instances.
func SubsetSumToMSR(ss SubsetSum, n graph.Cost) SubsetSumGraph {
	g := graph.New("subsetsum")
	root := g.AddNode(n)
	for _, a := range ss.Values {
		v := g.AddNode(a + 1)
		g.AddEdge(root, v, 1, a)
	}
	return SubsetSumGraph{
		G:          g,
		Instance:   ss,
		RootCost:   n,
		Constraint: n + graph.Cost(len(ss.Values)) + ss.Target,
	}
}

// Metric is a (possibly asymmetric) distance matrix satisfying the
// triangle inequality.
type Metric [][]graph.Cost

// Validate checks shape, non-negativity, zero diagonal and the triangle
// inequality.
func (d Metric) Validate() error {
	n := len(d)
	for i := 0; i < n; i++ {
		if len(d[i]) != n {
			return errors.New("reductions: metric not square")
		}
		if d[i][i] != 0 {
			return errors.New("reductions: nonzero diagonal")
		}
		for j := 0; j < n; j++ {
			if d[i][j] < 0 {
				return errors.New("reductions: negative distance")
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			for k := 0; k < n; k++ {
				if d[i][k]+d[k][j] < d[i][j] {
					return fmt.Errorf("reductions: triangle violated at (%d,%d,%d)", i, k, j)
				}
			}
		}
	}
	return nil
}

// ClusterGraph is the Theorem 2 reduction of k-median (to MSR) and
// k-center (to MMR): s_{u,v} = r_{u,v} = d(u,v), every version of size N,
// storage constraint S = k·N + n.
type ClusterGraph struct {
	G          *graph.Graph
	K          int
	N          graph.Cost
	Constraint graph.Cost
}

// ClusterToVersioning builds the reduction graph for k clusters.
func ClusterToVersioning(d Metric, k int, n graph.Cost) (ClusterGraph, error) {
	if err := d.Validate(); err != nil {
		return ClusterGraph{}, err
	}
	g := graph.New("clustering")
	for range d {
		g.AddNode(n)
	}
	for u := range d {
		for v := range d {
			if u == v {
				continue
			}
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), d[u][v], d[u][v])
		}
	}
	return ClusterGraph{G: g, K: k, N: n, Constraint: graph.Cost(k)*n + graph.Cost(len(d))}, nil
}

// ExactKMedian enumerates all k-subsets and returns the optimal total
// connection cost Σ_v min_{c∈A} d(v,c) (centers serve at distance
// d(center, client), matching the directed version-graph reduction).
func ExactKMedian(d Metric, k int) graph.Cost {
	return exactCluster(d, k, func(a, b graph.Cost) graph.Cost { return a + b })
}

// ExactKCenter enumerates all k-subsets and returns the optimal maximum
// connection cost.
func ExactKCenter(d Metric, k int) graph.Cost {
	return exactCluster(d, k, func(a, b graph.Cost) graph.Cost {
		if b > a {
			return b
		}
		return a
	})
}

func exactCluster(d Metric, k int, combine func(acc, x graph.Cost) graph.Cost) graph.Cost {
	n := len(d)
	best := graph.Infinite
	subset := make([]int, 0, k)
	var rec func(start int)
	rec = func(start int) {
		if len(subset) == k {
			var total graph.Cost
			for v := 0; v < n; v++ {
				m := graph.Infinite
				for _, c := range subset {
					if d[c][v] < m {
						m = d[c][v]
					}
				}
				total = combine(total, m)
			}
			if total < best {
				best = total
			}
			return
		}
		for i := start; i < n; i++ {
			subset = append(subset, i)
			rec(i + 1)
			subset = subset[:len(subset)-1]
		}
	}
	rec(0)
	return best
}
