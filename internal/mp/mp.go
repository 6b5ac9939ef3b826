// Package mp implements the Modified Prim's heuristic ("MP") of
// Bhattacherjee et al. [VLDB'15] for BoundedMax Retrieval, the previous
// best-performing heuristic the paper compares DP-BMR against in
// Section 7.3.
//
// MP grows a storage tree from the auxiliary root exactly like Prim's
// algorithm under storage weights, except that an edge (u,v) is only
// admissible when the resulting retrieval cost R(u) + r_{u,v} stays
// within the retrieval constraint. Materialization edges (v_aux, v) have
// retrieval 0 and are therefore always admissible, so MP always returns a
// feasible plan for any constraint ≥ 0.
package mp

import (
	"container/heap"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

type item struct {
	edge    graph.EdgeID
	storage graph.Cost
	newR    graph.Cost
}

type pq []item

func (q pq) Len() int { return len(q) }
func (q pq) Less(i, j int) bool {
	if q[i].storage != q[j].storage {
		return q[i].storage < q[j].storage
	}
	if q[i].newR != q[j].newR {
		return q[i].newR < q[j].newR
	}
	return q[i].edge < q[j].edge
}
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(item)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// Solve runs MP on g under max-retrieval constraint r. A negative r is
// core.ErrInfeasible.
func Solve(g *graph.Graph, r graph.Cost) (core.Solution, error) {
	x := graph.Extend(g)
	n := x.N()
	inTree := make([]bool, n)
	retr := make([]graph.Cost, n)
	parentEdge := make([]int32, n)
	for i := range parentEdge {
		parentEdge[i] = graph.None
	}
	q := &pq{}
	add := func(u graph.NodeID) {
		for _, id := range x.Out(u) {
			e := x.Edge(id)
			if inTree[e.To] {
				continue
			}
			nr := retr[u] + e.Retrieval
			if nr > r {
				continue // R(u) is final once u joins: safe to drop
			}
			heap.Push(q, item{edge: id, storage: e.Storage, newR: nr})
		}
	}
	inTree[x.Aux] = true
	add(x.Aux)
	joined := 1
	for q.Len() > 0 && joined < n {
		it := heap.Pop(q).(item)
		e := x.Edge(it.edge)
		if inTree[e.To] {
			continue
		}
		inTree[e.To] = true
		retr[e.To] = it.newR
		parentEdge[e.To] = int32(it.edge)
		joined++
		add(e.To)
	}
	if joined < n {
		// Only a negative r leaves a version out: it rules out even the
		// auxiliary edges, which retrieve for 0.
		return core.Solution{}, core.ErrInfeasible
	}
	p, err := plan.FromExtendedTree(x, parentEdge[:g.N()])
	if err != nil {
		return core.Solution{}, err
	}
	return core.Solution{Plan: p, Cost: plan.Evaluate(g, p)}, nil
}
