package dptree

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// The dense DP-BMR kernel, kept as the oracle the ball kernel in bmr.go is
// compared against (FuzzBMRMatchesReference): same plans and errors. It
// answers its path queries by walking parent pointers.

// naivePathRetrieval returns R(u, v): it walks the unique undirected tree
// path from u to v, summing directed retrieval costs.
func naivePathRetrieval(t *BiTree, u, v graph.NodeID) graph.Cost {
	// Climb both to the root recording paths.
	pathUp := func(x graph.NodeID) []graph.NodeID {
		var p []graph.NodeID
		for x != graph.None {
			p = append(p, x)
			x = t.Parent[x]
		}
		return p
	}
	pu, pv := pathUp(u), pathUp(v)
	onPV := map[graph.NodeID]bool{}
	for _, x := range pv {
		onPV[x] = true
	}
	var lca graph.NodeID
	for _, x := range pu {
		if onPV[x] {
			lca = x
			break
		}
	}
	var cost graph.Cost
	for x := u; x != lca; x = t.Parent[x] {
		_, _, r := t.UpEdge(x)
		cost += r
	}
	// Down from lca to v: collect the path then descend.
	var down []graph.NodeID
	for x := v; x != lca; x = t.Parent[x] {
		down = append(down, x)
	}
	for i := len(down) - 1; i >= 0; i-- {
		_, _, r := t.DownEdge(down[i])
		cost += r
	}
	return cost
}

// naiveInSubtree reports whether u lies in the subtree rooted at v (u == v
// counts).
func naiveInSubtree(t *BiTree, v, u graph.NodeID) bool {
	for x := u; x != graph.None; x = t.Parent[x] {
		if x == v {
			return true
		}
	}
	return false
}

// naiveChildTowards returns the child of v on the path from v to its
// descendant u (u must lie strictly inside v's subtree).
func naiveChildTowards(t *BiTree, v, u graph.NodeID) graph.NodeID {
	for t.Parent[u] != v {
		u = t.Parent[u]
	}
	return u
}

// referenceBMR is the dense DP-BMR kernel the ball kernel replaced
// (Algorithm 2, Theorem 8): minimize total storage subject to
// max_v R(v) ≤ r over an n×n table.
//
// DP[v][u] is the minimum storage of a partial solution on the subtree
// T[v] in which v is retrieved from a materialized u (u == v means v is
// materialized); u may lie outside T[v], in which case only the last edge
// of the retrieval path is charged to the subproblem.
func referenceBMR(t *BiTree, r graph.Cost) (core.Solution, error) {
	if r < 0 {
		return core.Solution{}, core.ErrInfeasible
	}
	n := t.N()
	if n == 0 {
		return core.Solution{Plan: plan.New(t.G), Cost: plan.Cost{Feasible: true}}, nil
	}
	const inf = graph.Infinite
	dp := make([][]graph.Cost, n)
	cells := make([]graph.Cost, n*n)
	for i := range cells {
		cells[i] = inf
	}
	for v := 0; v < n; v++ {
		dp[v] = cells[v*n : (v+1)*n]
	}
	optVal := make([]graph.Cost, n)
	optArg := make([]graph.NodeID, n)

	// Reverse preorder = children before parents.
	for i := len(t.Order) - 1; i >= 0; i-- {
		v := t.Order[i]
		for u := graph.NodeID(0); int(u) < n; u++ {
			if naivePathRetrieval(t, u, v) > r {
				continue
			}
			var base graph.Cost
			inside := naiveInSubtree(t, v, u)
			var sourceChild graph.NodeID = graph.None
			switch {
			case u == v:
				base = t.G.NodeStorage(v)
			case inside:
				sourceChild = naiveChildTowards(t, v, u)
				id, s, _ := t.UpEdge(sourceChild) // edge sourceChild → v
				if id == graph.None {
					continue // direction missing from the graph
				}
				base = s
			default:
				id, s, _ := t.DownEdge(v) // edge parent(v) → v
				if id == graph.None {
					continue
				}
				base = s
			}
			total := base
			for _, w := range t.Children[v] {
				var term graph.Cost
				if w == sourceChild {
					term = dp[w][u]
				} else {
					term = optVal[w]
					if dp[w][u] < term {
						term = dp[w][u]
					}
				}
				if term >= inf {
					total = inf
					break
				}
				total += term
			}
			dp[v][u] = total
		}
		// OPT[v] = min over descendants (v included).
		optVal[v] = inf
		optArg[v] = v
		for u := graph.NodeID(0); int(u) < n; u++ {
			if naiveInSubtree(t, v, u) && dp[v][u] < optVal[v] {
				optVal[v] = dp[v][u]
				optArg[v] = u
			}
		}
	}
	if optVal[0] >= inf {
		return core.Solution{}, core.ErrInfeasible
	}
	return referenceReconstructBMR(t, r, dp, optVal, optArg)
}

// referenceReconstructBMR re-derives the argmin choices from the filled DP tables
// and validates the produced plan against the DP optimum.
func referenceReconstructBMR(t *BiTree, r graph.Cost, dp [][]graph.Cost, optVal []graph.Cost, optArg []graph.NodeID) (core.Solution, error) {
	p := plan.New(t.G)
	store := func(id graph.EdgeID) error {
		if id == graph.None {
			return ErrSynthesizedEdge
		}
		p.Stored[id] = true
		return nil
	}
	// Reconstruct by re-deriving the argmin choices from the tables.
	type task struct{ v, u graph.NodeID }
	stack := []task{{0, optArg[0]}}
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, u := tk.v, tk.u
		var sourceChild graph.NodeID = graph.None
		switch {
		case u == v:
			p.Materialized[v] = true
		case naiveInSubtree(t, v, u):
			sourceChild = naiveChildTowards(t, v, u)
			id, _, _ := t.UpEdge(sourceChild)
			if err := store(id); err != nil {
				return core.Solution{}, err
			}
		default:
			id, _, _ := t.DownEdge(v)
			if err := store(id); err != nil {
				return core.Solution{}, err
			}
		}
		for _, w := range t.Children[v] {
			switch {
			case w == sourceChild:
				stack = append(stack, task{w, u})
			case dp[w][u] < optVal[w]:
				stack = append(stack, task{w, u})
			default:
				stack = append(stack, task{w, optArg[w]})
			}
		}
	}
	c := plan.Evaluate(t.G, p)
	if !c.Feasible || c.MaxRetrieval > r {
		return core.Solution{}, fmt.Errorf("dptree: internal error, reconstructed plan violates constraint (max %d > %d)", c.MaxRetrieval, r)
	}
	if c.Storage != optVal[0] {
		return core.Solution{}, fmt.Errorf("dptree: internal error, plan storage %d != DP optimum %d", c.Storage, optVal[0])
	}
	return core.Solution{Plan: p, Cost: c}, nil
}
