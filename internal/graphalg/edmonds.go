package graphalg

import (
	"errors"

	"repro/internal/graph"
)

// ErrNoArborescence reports that no spanning arborescence rooted at the
// requested root exists (some node is unreachable).
var ErrNoArborescence = errors.New("graphalg: no spanning arborescence exists")

// MinArborescence computes a minimum-weight spanning arborescence of g
// rooted at root with respect to w. It returns, for every node, the id of
// its incoming tree edge (graph.None for the root), together with the
// total weight.
//
// LMG and LMG-All initialize from this arborescence on the extended graph
// with storage weights (Algorithms 1 and 7, "minimum arborescence of
// G_aux rooted at v_aux w.r.t. weight function s"). A re-plan runs it
// twice on graphs of the history's size: once for the min-storage
// arborescence its constraint and LMG-All share (core.WithMinStorage),
// and once for DP-MSR's spanning tree.
//
// The algorithm is Chu-Liu/Edmonds contraction as Tarjan organises it
// ("Finding optimum branchings", Networks 7, 1977, with the expansion
// corrected by Camerini, Fratta and Maffioli, Networks 9, 1979). Every
// component keeps its incoming edges in a leftist heap keyed by (reduced
// weight, edge id), with a lazy add; a union-find maps nodes to their
// component. A walk follows each component's cheapest incoming edge
// towards the root and contracts a cycle as soon as it closes: the
// members' heaps are reduced by the weight of the edge each one chose and
// melded. One pass over the contraction forest then expands the result.
// That is O(E log V) time and O(E) memory, however deep the contraction
// goes. A level-by-level formulation costs a pass over the edges per
// level, and a fork-heavy history, whose many 2-cycles nest one inside
// the next, contracts one cycle per level.
//
// Installed plans depend on which edges come back, not only on the total,
// so the edges are those of the level-by-level formulation, which
// contracts every cycle of the choice graph at once and breaks ties by
// the first cheapest edge in id order (referenceMinArborescence in the
// tests): a component's cheapest incoming edge depends only on its
// members; the cycles of the choice graph are disjoint, so contracting
// them in any order gives the same nested family; and the heap key
// (reduced weight, id) is that tie-break.
func MinArborescence(g *graph.Graph, root graph.NodeID, w Weight) (parentEdge []int32, total graph.Cost, err error) {
	const none = graph.None
	n := g.N()
	h := make(arbHeap, g.M())
	for id := range h {
		e := g.Edge(graph.EdgeID(id))
		h[id] = arbNode{w: w(e), from: e.From, left: none, right: none, rank: 1}
	}

	// Components are numbered 0..n-1 for the nodes and from n up, one per
	// contracted cycle; up is the contraction forest, child and sib list
	// each cycle's members.
	comps := make([]int32, 11*n)
	uf, up, in, heap := comps[:2*n], comps[2*n:4*n], comps[4*n:6*n], comps[6*n:8*n]
	sib, child := comps[8*n:10*n], comps[10*n:]
	for c := range comps {
		comps[c] = none
	}
	for c := range uf {
		uf[c] = int32(c)
	}
	for v := int32(0); v < int32(n); v++ {
		if v == root {
			continue
		}
		for _, id := range g.In(v) {
			heap[v] = h.meld(heap[v], id)
		}
	}
	find := func(x int32) int32 {
		for uf[x] != x {
			uf[x] = uf[uf[x]]
			x = uf[x]
		}
		return x
	}

	const (
		unseen = iota
		onPath
		done
	)
	state := make([]uint8, 2*n)
	if root >= 0 && int(root) < n {
		state[root] = done
	}
	next := int32(n)
	path := make([]int32, 0, n)
	for s := int32(0); s < int32(n); s++ {
		if state[s] != unseen {
			continue
		}
		a := s
		state[a] = onPath
		path = append(path[:0], a)
		for {
			// a, the top of the path, takes its cheapest incoming edge;
			// edges that now run inside a are dropped for good.
			e := heap[a]
			for ; e != none && find(h[e].from) == a; e = heap[a] {
				heap[a] = h.pop(e)
			}
			if e == none {
				return nil, 0, ErrNoArborescence
			}
			heap[a] = h.pop(e)
			in[a] = e
			b := find(h[e].from)
			if state[b] == done {
				break
			}
			if state[b] == unseen {
				state[b] = onPath
				path = append(path, b)
				a = b
				continue
			}
			// b is on the path: contract b..a into component c.
			c := next
			next++
			hc := none
			for {
				x := path[len(path)-1]
				path = path[:len(path)-1]
				hc = h.meld(hc, h.add(heap[x], -h[in[x]].w))
				uf[x], up[x] = c, c
				sib[x], child[c-int32(n)] = child[c-int32(n)], x
				if x == b {
					break
				}
			}
			heap[c], state[c] = hc, onPath
			path = append(path, c)
			a = c
		}
		for _, x := range path {
			state[x] = done
		}
	}

	// Expand. A component's chosen edge is final once nothing contracted
	// it further, or once the cycle that did is entered elsewhere; it
	// enters one node v, and every cycle between v and the component is
	// entered through v, so each of its other members keeps its own.
	parentEdge = make([]int32, n)
	for v := range parentEdge {
		parentEdge[v] = none
	}
	final := path[:0]
	for c := int32(0); c < next; c++ {
		if up[c] == none && c != root {
			final = append(final, c)
		}
	}
	for len(final) > 0 {
		c := final[len(final)-1]
		final = final[:len(final)-1]
		e := g.Edge(in[c])
		parentEdge[e.To] = in[c]
		total += w(e)
		for x := e.To; x != c; x = up[x] {
			for y := child[up[x]-int32(n)]; y != none; y = sib[y] {
				if y != x {
					final = append(final, y)
				}
			}
		}
	}
	return parentEdge, total, nil
}

// arbNode is one edge in a leftist heap of arbHeap, indexed by edge id.
// w is the edge's reduced weight; add is still owed to both subtrees.
type arbNode struct {
	w, add            graph.Cost
	from              int32
	left, right, rank int32
}

type arbHeap []arbNode

func (h arbHeap) less(a, b int32) bool {
	return h[a].w < h[b].w || h[a].w == h[b].w && a < b
}

// add adds d to every key of the heap rooted at x and returns x.
func (h arbHeap) add(x int32, d graph.Cost) int32 {
	if x != graph.None && d != 0 {
		h[x].w += d
		h[x].add += d
	}
	return x
}

func (h arbHeap) push(x int32) {
	if d := h[x].add; d != 0 {
		h.add(h[x].left, d)
		h.add(h[x].right, d)
		h[x].add = 0
	}
}

func (h arbHeap) rankOf(x int32) int32 {
	if x == graph.None {
		return 0
	}
	return h[x].rank
}

// meld merges the heaps rooted at a and b and returns the new root. It
// recurses along right spines, which are O(log size) long.
func (h arbHeap) meld(a, b int32) int32 {
	if a == graph.None {
		return b
	}
	if b == graph.None {
		return a
	}
	if h.less(b, a) {
		a, b = b, a
	}
	h.push(a)
	r := h.meld(h[a].right, b)
	if h.rankOf(h[a].left) < h.rankOf(r) {
		h[a].left, r = r, h[a].left
	}
	h[a].right = r
	h[a].rank = h.rankOf(r) + 1
	return a
}

// pop removes the root x and returns the root of what is left.
func (h arbHeap) pop(x int32) int32 {
	h.push(x)
	return h.meld(h[x].left, h[x].right)
}
