package dptree

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// maxLiveCells bounds the DP cells a BMR run holds at once: 8,192², the
// table of the largest tree the dense n×n kernel it replaced accepted.
// Live rows belong to distinct versions and have at most n cells each,
// so no tree of at most 8,192 versions reaches it.
const maxLiveCells = 8192 * 8192

// bmrRow is DP[v][·] over v's ball: cost[k] is the minimum storage of a
// partial solution on T[v] in which v is retrieved from u[k].
type bmrRow struct {
	u    []graph.NodeID
	cost []graph.Cost
}

// BMR solves BoundedMax Retrieval exactly on a bidirectional tree
// (Algorithm 2, Theorem 8): minimize total storage subject to
// max_v R(v) ≤ r.
//
// DP[v][u] is the minimum storage of a partial solution on the subtree
// T[v] in which v is retrieved from a materialized u (u == v means v is
// materialized); u may lie outside T[v], in which case only the last edge
// of the retrieval path is charged to the subproblem. It is finite only
// when R(u, v) ≤ r, so v's row covers just v's ball (BiTree.ball) and is
// dropped once v's parent's row is built. With B = Σ_v |ball(v)| ≤ n² a
// run takes O(B) time and holds the live rows plus one bit per (v, u,
// child of v); one that would hold more than 8,192² cells at once returns
// an error, not core.ErrInfeasible. Ties go to the least u.
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
	const inf = graph.Infinite
	rows := make([]bmrRow, n)
	// keep[v] has bit k·deg(v)+j set when child j of v, retrieved from the
	// k-th version u of v's ball through v, costs less than its own
	// optimum: the dense kernel's test dp[w][u] < optVal[w].
	keep := make([][]uint64, n)
	optVal := make([]graph.Cost, n)
	optArg := make([]graph.NodeID, n)
	pos := make([]int32, n) // position of u in the ball being built, or -1
	for i := range pos {
		pos[i] = -1
	}
	var ball []ballEntry
	var steps []ballStep
	live := 0

	// Reverse preorder = children before parents.
	for i := len(t.Order) - 1; i >= 0; i-- {
		if err := ctx.Err(); err != nil {
			return core.Solution{}, err
		}
		v := t.Order[i]
		ball, steps = t.ball(v, r, ball, steps)
		if live += len(ball); live > maxLiveCells {
			return core.Solution{}, fmt.Errorf("dptree: DP-BMR at bound %d would hold more than %d cells", r, maxLiveCells)
		}
		// Every child w contributes optVal[w] (finite: w can always be
		// materialized) unless u is in its row and w is u's source child
		// or cheaper retrieved from u: rows[w] adjusts those below.
		children := t.Children[v]
		var sum graph.Cost
		for _, w := range children {
			sum += optVal[w]
		}
		row := bmrRow{make([]graph.NodeID, len(ball)), make([]graph.Cost, len(ball))}
		cost := row.cost
		for k, e := range ball {
			pos[e.u] = int32(k)
			// Unless u == v, u's path enters v by a delta; a direction
			// missing from the graph leaves the cell infinite.
			row.u[k], cost[k] = e.u, inf
			if e.via == v {
				cost[k] = t.G.NodeStorage(v) + sum
			} else if d := t.entry(v, e.via); d.id != graph.None {
				cost[k] = d.storage + sum
			}
		}
		var bits []uint64
		if len(children) > 0 {
			bits = make([]uint64, (len(ball)*len(children)+63)/64)
		}
		for j, w := range children {
			for x, u := range rows[w].u {
				k, d := pos[u], rows[w].cost[x]
				if k < 0 || cost[k] >= inf {
					continue
				}
				switch {
				case ball[k].via == w:
					// u lies in T[w], so it is in w's ball too.
					if d >= inf {
						cost[k] = inf
					} else {
						cost[k] += d - optVal[w]
					}
				case d < optVal[w]:
					cost[k] += d - optVal[w]
					bit := int(k)*len(children) + j
					bits[bit/64] |= 1 << (bit % 64)
				}
			}
			live -= len(rows[w].u)
			rows[w] = bmrRow{}
		}
		// OPT[v] = min over descendants (v included), the least u on ties.
		optVal[v], optArg[v] = inf, v
		for k, e := range ball {
			pos[e.u] = -1
			c := cost[k]
			if e.via != graph.None && (c < optVal[v] || c == optVal[v] && c < inf && e.u < optArg[v]) {
				optVal[v], optArg[v] = c, e.u
			}
		}
		rows[v], keep[v] = row, bits
	}
	if optVal[0] >= inf {
		return core.Solution{}, core.ErrInfeasible
	}
	return reconstructBMR(t, r, keep, optVal[0], optArg)
}

// entry returns the delta through which a retrieval path enters v, as
// ball reports it in via: parent(v) → v for graph.None, via → v for a
// child.
func (t *BiTree) entry(v, via graph.NodeID) dirEdge {
	if via == graph.None {
		return t.down[v]
	}
	return t.up[via]
}

// reconstructBMR walks the argmin choices down from the root: each
// version's source is where its task's u enters it, and each child takes
// the same u when it is u's source child or its keep bit is set, its own
// optimum otherwise. It validates the plan against the DP optimum opt.
func reconstructBMR(t *BiTree, r graph.Cost, keep [][]uint64, opt graph.Cost, optArg []graph.NodeID) (core.Solution, error) {
	p := plan.New(t.G)
	var ball []ballEntry
	var steps []ballStep
	type task struct{ v, u graph.NodeID }
	stack := []task{{0, optArg[0]}}
	for len(stack) > 0 {
		tk := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		v, u := tk.v, tk.u
		ball, steps = t.ball(v, r, ball, steps)
		k := slices.IndexFunc(ball, func(e ballEntry) bool { return e.u == u })
		if k < 0 {
			return core.Solution{}, fmt.Errorf("dptree: internal error, %d is not in the ball of %d", u, v)
		}
		via := ball[k].via
		if via == v {
			p.Materialized[v] = true
		} else if id := t.entry(v, via).id; id != graph.None {
			p.Stored[id] = true
		} else {
			return core.Solution{}, ErrSynthesizedEdge
		}
		children := t.Children[v]
		for j, w := range children {
			bit := k*len(children) + j
			if w == via || keep[v][bit/64]&(1<<(bit%64)) != 0 {
				stack = append(stack, task{w, u})
			} else {
				stack = append(stack, task{w, optArg[w]})
			}
		}
	}
	c := plan.Evaluate(t.G, p)
	if !c.Feasible || c.MaxRetrieval > r {
		return core.Solution{}, fmt.Errorf("dptree: internal error, reconstructed plan violates constraint (max %d > %d)", c.MaxRetrieval, r)
	}
	if c.Storage != opt {
		return core.Solution{}, fmt.Errorf("dptree: internal error, plan storage %d != DP optimum %d", c.Storage, opt)
	}
	return core.Solution{Plan: p, Cost: c}, nil
}

// BMROnGraph runs the DP-BMR heuristic on an arbitrary version graph
// (Section 6.2): extract a spanning bidirectional tree rooted at version
// 0 and solve exactly on it under ctx, as BMR does, in the same time and
// memory and under the same bound on held cells. The result is optimal
// among plans confined to the extracted tree, hence an upper bound for
// the graph optimum.
func BMROnGraph(ctx context.Context, g *graph.Graph, r graph.Cost) (core.Solution, error) {
	t, err := FromGraph(g)
	if err != nil {
		return core.Solution{}, err
	}
	return BMR(ctx, t, r)
}
