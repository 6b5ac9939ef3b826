package dptree

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// MaxDenseNodes caps the O(n²) DP table size; beyond it BMR returns an
// error so callers can scale their instances deliberately.
const MaxDenseNodes = 8192

// BMR solves BoundedMax Retrieval exactly on a bidirectional tree
// (Algorithm 2, Theorem 8): minimize total storage subject to
// max_v R(v) ≤ r. It runs in O(n²·log n) time and O(n²) space.
//
// DP[v][u] is the minimum storage of a partial solution on the subtree
// T[v] in which v is retrieved from a materialized u (u == v means v is
// materialized); u may lie outside T[v], in which case only the last edge
// of the retrieval path is charged to the subproblem.
//
// It checks ctx before every node and returns ctx's error once ctx is
// done.
func BMR(ctx context.Context, t *BiTree, r graph.Cost) (core.Solution, error) {
	if r < 0 {
		return core.Solution{}, core.ErrInfeasible
	}
	n := t.N()
	if n == 0 {
		return core.Solution{Plan: plan.New(t.G), Cost: plan.Cost{Feasible: true}}, nil
	}
	if n > MaxDenseNodes {
		return core.Solution{}, fmt.Errorf("dptree: %d nodes exceeds the dense DP cap %d", n, MaxDenseNodes)
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
		if err := ctx.Err(); err != nil {
			return core.Solution{}, err
		}
		v := t.Order[i]
		for u := graph.NodeID(0); int(u) < n; u++ {
			if t.PathRetrieval(u, v) > r {
				continue
			}
			var base graph.Cost
			inside := t.InSubtree(v, u)
			var sourceChild graph.NodeID = graph.None
			switch {
			case u == v:
				base = t.G.NodeStorage(v)
			case inside:
				sourceChild = t.ChildTowards(v, u)
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
			if t.InSubtree(v, u) && dp[v][u] < optVal[v] {
				optVal[v] = dp[v][u]
				optArg[v] = u
			}
		}
	}
	if optVal[t.Root] >= inf {
		return core.Solution{}, core.ErrInfeasible
	}
	return reconstructBMR(t, r, dp, optVal, optArg)
}

// reconstructBMR re-derives the argmin choices from the filled DP tables
// and validates the produced plan against the DP optimum.
func reconstructBMR(t *BiTree, r graph.Cost, dp [][]graph.Cost, optVal []graph.Cost, optArg []graph.NodeID) (core.Solution, error) {
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
	stack := []task{{t.Root, optArg[t.Root]}}
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, u := tk.v, tk.u
		var sourceChild graph.NodeID = graph.None
		switch {
		case u == v:
			p.Materialized[v] = true
		case t.InSubtree(v, u):
			sourceChild = t.ChildTowards(v, u)
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
	if c.Storage != optVal[t.Root] {
		return core.Solution{}, fmt.Errorf("dptree: internal error, plan storage %d != DP optimum %d", c.Storage, optVal[t.Root])
	}
	return core.Solution{Plan: p, Cost: c}, nil
}

// BMROnGraph runs the DP-BMR heuristic on an arbitrary version graph
// (Section 6.2): extract a spanning bidirectional tree rooted at version
// 0 and solve exactly on it under ctx, as BMR does. The result is optimal
// among plans confined to the extracted tree, hence an upper bound for
// the graph optimum.
func BMROnGraph(ctx context.Context, g *graph.Graph, r graph.Cost) (core.Solution, error) {
	t, err := FromGraph(g, 0)
	if err != nil {
		return core.Solution{}, err
	}
	return BMR(ctx, t, r)
}
