package graphalg

import (
	"errors"

	"repro/internal/graph"
)

// Tree is a rooted arborescence view over a graph, described by the id of
// each node's incoming edge. It keeps the per-node values the greedy
// heuristics query on every move — parent, depth, subtree size and
// retrieval cost — and Reattach updates them in place, touching only
// what the move changed.
type Tree struct {
	G          *graph.Graph
	Root       graph.NodeID
	ParentEdge []int32 // incoming edge id per node; graph.None at root
	Parent     []graph.NodeID
	Depth      []int32      // edges on the path from the root
	SubSize    []int        // nodes in subtree, including self
	Retrieval  []graph.Cost // R(v): path retrieval cost from root

	children [][]graph.NodeID
	childAt  []int32        // v's index in children[Parent[v]]
	touched  []graph.NodeID // Reattach's result, reused
}

// NewTree builds a Tree from parent edges. It fails if the edges do not
// form a spanning arborescence rooted at root.
func NewTree(g *graph.Graph, root graph.NodeID, parentEdge []int32) (*Tree, error) {
	n := g.N()
	if len(parentEdge) != n {
		return nil, errors.New("graphalg: parentEdge length mismatch")
	}
	t := &Tree{
		G:          g,
		Root:       root,
		ParentEdge: append([]int32(nil), parentEdge...),
		Parent:     make([]graph.NodeID, n),
		Depth:      make([]int32, n),
		SubSize:    make([]int, n),
		Retrieval:  make([]graph.Cost, n),
		children:   make([][]graph.NodeID, n),
		childAt:    make([]int32, n),
	}
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == root {
			if parentEdge[v] != graph.None {
				return nil, errors.New("graphalg: root has a parent edge")
			}
			t.Parent[v] = graph.None
			continue
		}
		id := parentEdge[v]
		if id == graph.None {
			return nil, errors.New("graphalg: non-root node without parent edge")
		}
		e := g.Edge(graph.EdgeID(id))
		if e.To != graph.NodeID(v) {
			return nil, errors.New("graphalg: parent edge does not enter its node")
		}
		t.Parent[v] = e.From
		t.childAt[v] = int32(len(t.children[e.From]))
		t.children[e.From] = append(t.children[e.From], graph.NodeID(v))
	}
	// Preorder from the root: depths and retrieval costs parent first,
	// then subtree sizes in reverse. A node the walk misses sits on a
	// cycle.
	order := append(make([]graph.NodeID, 0, n), root)
	for i := 0; i < len(order); i++ {
		u := order[i]
		for _, c := range t.children[u] {
			t.Depth[c] = t.Depth[u] + 1
			t.Retrieval[c] = t.Retrieval[u] + g.Edge(graph.EdgeID(t.ParentEdge[c])).Retrieval
			order = append(order, c)
		}
	}
	if len(order) != n {
		return nil, ErrNoArborescence
	}
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		t.SubSize[v]++
		if v != root {
			t.SubSize[t.Parent[v]] += t.SubSize[v]
		}
	}
	return t, nil
}

// IsDescendant reports whether v is in the subtree rooted at u (v == u
// counts). It walks up from v, so it costs Depth[v] - Depth[u] steps.
func (t *Tree) IsDescendant(u, v graph.NodeID) bool {
	for t.Depth[v] > t.Depth[u] {
		v = t.Parent[v]
	}
	return v == u
}

// StorageCost is the total storage of the tree edges (on an extended
// graph this includes materialization costs via auxiliary edges).
func (t *Tree) StorageCost() graph.Cost {
	var s graph.Cost
	for _, id := range t.ParentEdge {
		if id != graph.None {
			s += t.G.Edge(graph.EdgeID(id)).Storage
		}
	}
	return s
}

// Reattach replaces v's incoming edge with edge id (which must enter v)
// and updates the tree in place. Retrieval and Depth shift by one
// constant across subtree(v); SubSize changes on the old and the new
// parent's paths up to where they meet, and nowhere else. It returns
// the nodes whose values changed, subtree(v) and the two path segments,
// in slices that stay valid until the next Reattach. The new parent
// must not be in subtree(v): Reattach panics on the cycle.
func (t *Tree) Reattach(v graph.NodeID, id graph.EdgeID) (subtree, path []graph.NodeID) {
	e := t.G.Edge(id)
	if e.To != v {
		panic("graphalg: Reattach edge does not enter node")
	}
	old, u := t.Parent[v], e.From
	k := t.SubSize[v]
	buf := t.touched[:0]
	for a, b := old, u; a != b; {
		if t.Depth[a] >= t.Depth[b] {
			t.SubSize[a] -= k
			buf = append(buf, a)
			a = t.Parent[a]
		} else {
			if b == v {
				panic("graphalg: Reattach would create a cycle")
			}
			t.SubSize[b] += k
			buf = append(buf, b)
			b = t.Parent[b]
		}
	}
	np := len(buf)

	// Swap v out of old's children and append it to u's.
	cs := t.children[old]
	last := cs[len(cs)-1]
	cs[t.childAt[v]] = last
	t.childAt[last] = t.childAt[v]
	t.children[old] = cs[:len(cs)-1]
	t.childAt[v] = int32(len(t.children[u]))
	t.children[u] = append(t.children[u], v)
	t.Parent[v] = u
	t.ParentEdge[v] = int32(id)

	dr := t.Retrieval[u] + e.Retrieval - t.Retrieval[v]
	dd := t.Depth[u] + 1 - t.Depth[v]
	buf = append(buf, v)
	for i := np; i < len(buf); i++ {
		w := buf[i]
		t.Retrieval[w] += dr
		t.Depth[w] += dd
		buf = append(buf, t.children[w]...)
	}
	t.touched = buf
	return buf[np:], buf[:np]
}
