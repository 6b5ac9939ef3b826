package graphalg

import (
	"errors"

	"repro/internal/graph"
)

// ErrNoArborescence reports that no spanning arborescence rooted at the
// requested root exists (some node is unreachable).
var ErrNoArborescence = errors.New("graphalg: no spanning arborescence exists")

// MinArborescence computes a minimum-weight spanning arborescence of g
// rooted at root with respect to w, using the Chu-Liu/Edmonds algorithm
// (O(V·E)). It returns, for every node, the id of its incoming tree edge
// (graph.None for the root), together with the total weight.
//
// LMG and LMG-All initialize from this arborescence on the extended graph
// with storage weights (Algorithms 1 and 7, "minimum arborescence of
// G_aux rooted at v_aux w.r.t. weight function s").
//
// A re-plan runs it twice on graphs of the history's size: once for the
// min-storage arborescence its constraint, LMG and LMG-All share
// (core.WithMinStorage), and once for DP-MSR's spanning tree. The
// contraction levels share their memory: one edge list contracted in
// place and one block of scratch, with a level keeping only what its
// expansion reads. Ties break
// by edge order, at every level; installed plans depend on which edges
// come back, not only on the total (see referenceMinArborescence in the
// tests).
func MinArborescence(g *graph.Graph, root graph.NodeID, w Weight) (parentEdge []int32, total graph.Cost, err error) {
	const none = graph.None
	n := g.N()
	type arbEdge struct {
		u, v int32 // endpoints in the current level
		id   int32 // original edge id
		w    graph.Cost
	}
	edges := make([]arbEdge, g.M())
	for id := range edges {
		e := g.Edge(graph.EdgeID(id))
		edges[id] = arbEdge{int32(e.From), int32(e.To), int32(id), w(e)}
	}
	// level is what one contraction leaves for its expansion.
	type level struct {
		at      []int32 // original node -> node of this level
		bestID  []int32 // per node: original id of its cheapest incoming edge
		cycleID []int32 // per node: the cycle it was contracted into, or none
		cycles  int
	}
	var levels []level
	scratch := make([]int32, 4*n)
	best, mark, newID, entered := scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	bestW := make([]graph.Cost, n)

	cn, r := n, int32(root) // node count and root of the current level
	for {
		block := make([]int32, n+2*cn)
		lv := level{at: block[:n], bestID: block[n : n+cn], cycleID: block[n+cn:]}
		for x := range lv.at {
			if len(levels) == 0 {
				lv.at[x] = int32(x)
			} else {
				lv.at[x] = newID[levels[len(levels)-1].at[x]]
			}
		}
		// 1. Cheapest incoming edge per node.
		for v := 0; v < cn; v++ {
			best[v], mark[v], lv.cycleID[v] = none, none, none
		}
		for i, e := range edges {
			if e.v == r || e.u == e.v {
				continue
			}
			if best[e.v] == none || e.w < edges[best[e.v]].w {
				best[e.v] = int32(i)
			}
		}
		for v := int32(0); v < int32(cn); v++ {
			if v == r {
				lv.bestID[v] = none
				continue
			}
			if best[v] == none {
				return nil, 0, ErrNoArborescence
			}
			lv.bestID[v], bestW[v] = edges[best[v]].id, edges[best[v]].w
		}
		// 2. Detect cycles among the chosen edges.
		for v := int32(0); v < int32(cn); v++ {
			u := v
			for u != r && mark[u] == none && lv.cycleID[u] == none {
				mark[u] = v
				u = edges[best[u]].u
			}
			if u != r && lv.cycleID[u] == none && mark[u] == v {
				// New cycle through u.
				for x := u; ; {
					lv.cycleID[x] = int32(lv.cycles)
					if x = edges[best[x]].u; x == u {
						break
					}
				}
				lv.cycles++
			}
		}
		levels = append(levels, lv)
		if lv.cycles == 0 {
			break
		}
		// 3. Contract cycles. Nodes in cycle c map to new id c; remaining
		// nodes get fresh ids. Surviving edges keep their order.
		next := int32(lv.cycles)
		for v := 0; v < cn; v++ {
			if lv.cycleID[v] != none {
				newID[v] = lv.cycleID[v]
			} else {
				newID[v] = next
				next++
			}
		}
		kept := edges[:0]
		for _, e := range edges {
			nu, nv := newID[e.u], newID[e.v]
			if nu == nv {
				continue
			}
			if lv.cycleID[e.v] != none {
				e.w -= bestW[e.v]
			}
			kept = append(kept, arbEdge{nu, nv, e.id, e.w})
		}
		edges, cn, r = kept, int(next), newID[r]
	}

	// 4. Expand, deepest level first. A level starts from its cheapest
	// incoming edges; each edge the level below chose replaces the one at
	// its head, which for a cycle is the node the cycle is entered
	// through: that node alone drops its cycle edge.
	res := levels[len(levels)-1].bestID
	for li := len(levels) - 2; li >= 0; li-- {
		lv := levels[li]
		for c := 0; c < lv.cycles; c++ {
			entered[c] = none
		}
		for _, se := range res {
			if se == none {
				continue // the root of the level below
			}
			v := lv.at[g.Edge(graph.EdgeID(se)).To]
			lv.bestID[v] = se
			if c := lv.cycleID[v]; c != none {
				entered[c] = v
			}
		}
		for c := 0; c < lv.cycles; c++ {
			if entered[c] == none {
				return nil, 0, errors.New("graphalg: internal expansion left a cycle unentered")
			}
		}
		res = lv.bestID
	}
	parentEdge = append([]int32(nil), res...)
	for _, id := range parentEdge {
		if id != none {
			total += w(g.Edge(graph.EdgeID(id)))
		}
	}
	return parentEdge, total, nil
}
