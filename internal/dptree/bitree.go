// Package dptree implements the paper's dynamic programs on bidirectional
// trees: DP-BMR, the exact O(n²) algorithm for BoundedMax Retrieval
// (Section 4, Algorithm 2), and DP-MSR, the FPTAS-style DP for MinSum
// Retrieval (Sections 5.1 and 6.2) with the practical speedups described
// in Section 6.2 (storage pruning, geometric discretization, dominance
// pruning). It also provides the tree-extraction heuristics that make
// both DPs applicable to arbitrary version graphs (Section 6.2).
//
// What DP-MSR costs: one merge per tree edge, each walking every pair of
// (accumulated state of the parent, final state of the child) and offering
// up to three candidates per pair — so at most 3·MaxStates² candidates per
// merge once MaxStates caps the state sets, n-1 merges per run. A
// candidate costs one ρ-bucket lookup and one probe of the run's flat,
// pointer-free candidate table, and of a parent state's independent
// candidates only the first of each ρ-bucket is offered at all, as no
// later one can win; nothing is allocated per candidate, and only the
// states that survive a merge (at most MaxStates) go to the heap.
// Geometric buckets come from a table built once per run that equals
// 1 + int64(math.Log(float64(x))/math.Log1p(ε)) for every x (see
// bucketer). A run is a pure function of its tree and options: the same
// states, frontier and plans on every call, whatever else runs beside it.
// DP-MSR stops at the merge and DP-BMR at the node where it sees its
// context done. Every entry point returns core.Solution, and a constraint
// no plan meets is core.ErrInfeasible.
package dptree

import (
	"errors"
	"fmt"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/graphalg"
)

// ErrSynthesizedEdge reports that an optimal tree plan needs a delta in a
// direction the original graph does not provide.
var ErrSynthesizedEdge = errors.New("dptree: plan requires a delta missing from the graph")

// ErrNotBiTree reports that the input is not a bidirectional tree.
var ErrNotBiTree = errors.New("dptree: input is not a bidirectional tree")

// dirEdge is one direction of a tree edge.
type dirEdge struct {
	id      graph.EdgeID // id in the original graph, or graph.None if synthesized
	storage graph.Cost
	retr    graph.Cost
}

// BiTree is a rooted bidirectional tree over (a spanning tree of) a
// version graph. For every non-root node v it keeps the delta in both
// directions between v and its parent. Directions missing from the
// original graph are synthesized with the mirrored costs (the
// tree-extraction step of Section 6.2 does this implicitly); plans that
// end up storing a synthesized delta are rejected with
// ErrSynthesizedEdge.
type BiTree struct {
	G        *graph.Graph
	Root     graph.NodeID
	Parent   []graph.NodeID
	Children [][]graph.NodeID
	Order    []graph.NodeID // preorder
	down     []dirEdge      // parent(v) → v
	up       []dirEdge      // v → parent(v)

	depth    []int32
	anc      [][]graph.NodeID // binary lifting table
	upSum    []graph.Cost     // Σ r of up edges from v to root
	downSum  []graph.Cost     // Σ r of down edges from root to v
	tin, tou []int32          // Euler intervals for subtree tests
}

// FromParents builds a BiTree over g from a parent assignment (parent of
// root is graph.None; every other node has exactly one parent, forming a
// spanning tree). For each tree edge the cheapest delta (by s+r, ties by
// id) in each direction is selected.
func FromParents(g *graph.Graph, root graph.NodeID, parent []graph.NodeID) (*BiTree, error) {
	n := g.N()
	if len(parent) != n {
		return nil, fmt.Errorf("dptree: parent vector has length %d, want %d", len(parent), n)
	}
	t := &BiTree{
		G:        g,
		Root:     root,
		Parent:   append([]graph.NodeID(nil), parent...),
		Children: make([][]graph.NodeID, n),
		down:     make([]dirEdge, n),
		up:       make([]dirEdge, n),
	}
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == root {
			if parent[v] != graph.None {
				return nil, errors.New("dptree: root has a parent")
			}
			continue
		}
		p := parent[v]
		if p < 0 || int(p) >= n {
			return nil, fmt.Errorf("dptree: node %d has invalid parent %d", v, p)
		}
		t.Children[p] = append(t.Children[p], graph.NodeID(v))
		d, dok := cheapest(g, p, graph.NodeID(v))
		u, uok := cheapest(g, graph.NodeID(v), p)
		switch {
		case !dok && !uok:
			// Phantom link joining two components of a disconnected
			// graph: the DP may never store it (id None in both
			// directions), so the components are solved independently.
			d = dirEdge{id: graph.None}
			u = dirEdge{id: graph.None}
		case !dok:
			d = dirEdge{id: graph.None, storage: u.storage, retr: u.retr}
		case !uok:
			u = dirEdge{id: graph.None, storage: d.storage, retr: d.retr}
		}
		t.down[v] = d
		t.up[v] = u
	}
	if err := t.index(); err != nil {
		return nil, err
	}
	return t, nil
}

// FromBiTreeGraph builds a BiTree from a graph whose underlying
// undirected graph is a tree, rooted at root.
func FromBiTreeGraph(g *graph.Graph, root graph.NodeID) (*BiTree, error) {
	if !g.UnderlyingUndirectedIsTree() {
		return nil, ErrNotBiTree
	}
	n := g.N()
	parent := make([]graph.NodeID, n)
	for i := range parent {
		parent[i] = graph.None
	}
	visited := make([]bool, n)
	stack := []graph.NodeID{root}
	visited[root] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, id := range g.Out(v) {
			w := g.Edge(id).To
			if !visited[w] {
				visited[w] = true
				parent[w] = v
				stack = append(stack, w)
			}
		}
		for _, id := range g.In(v) {
			w := g.Edge(id).From
			if !visited[w] {
				visited[w] = true
				parent[w] = v
				stack = append(stack, w)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !visited[v] {
			return nil, ErrNotBiTree
		}
	}
	return FromParents(g, root, parent)
}

// cheapest returns the min-(s+r) delta from u to v in g.
func cheapest(g *graph.Graph, u, v graph.NodeID) (dirEdge, bool) {
	best := dirEdge{id: graph.None}
	found := false
	for _, id := range g.Out(u) {
		e := g.Edge(id)
		if e.To != v {
			continue
		}
		if !found || e.Storage+e.Retrieval < best.storage+best.retr {
			best = dirEdge{id: id, storage: e.Storage, retr: e.Retrieval}
			found = true
		}
	}
	return best, found
}

// index computes preorder, depths, lifting tables and prefix path costs.
func (t *BiTree) index() error {
	n := t.G.N()
	t.Order = make([]graph.NodeID, 0, n)
	t.depth = make([]int32, n)
	t.upSum = make([]graph.Cost, n)
	t.downSum = make([]graph.Cost, n)
	stack := []graph.NodeID{t.Root}
	seen := make([]bool, n)
	seen[t.Root] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.Order = append(t.Order, v)
		for _, c := range t.Children[v] {
			if seen[c] {
				return errors.New("dptree: parent assignment has a cycle")
			}
			seen[c] = true
			t.depth[c] = t.depth[v] + 1
			t.upSum[c] = t.upSum[v] + t.up[c].retr
			t.downSum[c] = t.downSum[v] + t.down[c].retr
			stack = append(stack, c)
		}
	}
	if len(t.Order) != n {
		return errors.New("dptree: parent assignment does not span the graph")
	}
	// Euler intervals via a second pass: preorder position and subtree
	// extent. Preorder guarantees each subtree occupies a contiguous
	// block only if children are visited consecutively, which the stack
	// DFS above ensures per branch; compute intervals explicitly instead.
	t.tin = make([]int32, n)
	t.tou = make([]int32, n)
	var clock int32
	type frame struct {
		node graph.NodeID
		next int
	}
	frames := []frame{{t.Root, 0}}
	t.tin[t.Root] = clock
	clock++
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if f.next < len(t.Children[f.node]) {
			c := t.Children[f.node][f.next]
			f.next++
			t.tin[c] = clock
			clock++
			frames = append(frames, frame{c, 0})
			continue
		}
		t.tou[f.node] = clock
		clock++
		frames = frames[:len(frames)-1]
	}
	logN := 1
	for 1<<logN < n {
		logN++
	}
	t.anc = make([][]graph.NodeID, logN+1)
	base := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		if t.Parent[v] == graph.None {
			base[v] = graph.NodeID(v)
		} else {
			base[v] = t.Parent[v]
		}
	}
	t.anc[0] = base
	for k := 1; k <= logN; k++ {
		prev := t.anc[k-1]
		cur := make([]graph.NodeID, n)
		for v := 0; v < n; v++ {
			cur[v] = prev[prev[v]]
		}
		t.anc[k] = cur
	}
	return nil
}

// LCA returns the lowest common ancestor of u and v.
func (t *BiTree) LCA(u, v graph.NodeID) graph.NodeID {
	if t.depth[u] < t.depth[v] {
		u, v = v, u
	}
	diff := uint32(t.depth[u] - t.depth[v])
	for diff != 0 {
		k := bits.TrailingZeros32(diff)
		u = t.anc[k][u]
		diff &= diff - 1
	}
	if u == v {
		return u
	}
	for k := len(t.anc) - 1; k >= 0; k-- {
		if t.anc[k][u] != t.anc[k][v] {
			u = t.anc[k][u]
			v = t.anc[k][v]
		}
	}
	return t.Parent[u]
}

// PathRetrieval returns R(u,v): the retrieval cost of the unique directed
// path u → v in the tree (up edges from u to the LCA, then down edges to
// v).
func (t *BiTree) PathRetrieval(u, v graph.NodeID) graph.Cost {
	l := t.LCA(u, v)
	return (t.upSum[u] - t.upSum[l]) + (t.downSum[v] - t.downSum[l])
}

// DownEdge returns the delta parent(v) → v.
func (t *BiTree) DownEdge(v graph.NodeID) (id graph.EdgeID, storage, retrieval graph.Cost) {
	d := t.down[v]
	return d.id, d.storage, d.retr
}

// UpEdge returns the delta v → parent(v).
func (t *BiTree) UpEdge(v graph.NodeID) (id graph.EdgeID, storage, retrieval graph.Cost) {
	u := t.up[v]
	return u.id, u.storage, u.retr
}

// N returns the number of nodes.
func (t *BiTree) N() int { return t.G.N() }

// InSubtree reports whether u lies in the subtree rooted at v (u == v
// counts).
func (t *BiTree) InSubtree(v, u graph.NodeID) bool {
	return t.tin[v] <= t.tin[u] && t.tou[u] <= t.tou[v]
}

// ChildTowards returns the child of v on the path from v to its
// descendant u (u must lie strictly inside v's subtree).
func (t *BiTree) ChildTowards(v, u graph.NodeID) graph.NodeID {
	diff := uint32(t.depth[u] - t.depth[v] - 1)
	for diff != 0 {
		k := bits.TrailingZeros32(diff)
		u = t.anc[k][u]
		diff &= diff - 1
	}
	return u
}

// FromGraph is step 1 of the DP heuristics on an arbitrary version graph
// (Section 6.2): the BiTree over ExtractSpanningTree's parents, rooted at
// root. An empty graph gives an empty tree, which both DPs answer with
// the empty plan.
func FromGraph(g *graph.Graph, root graph.NodeID) (*BiTree, error) {
	if g.N() == 0 {
		return &BiTree{G: g}, nil
	}
	parent, err := ExtractSpanningTree(g, root)
	if err != nil {
		return nil, err
	}
	return FromParents(g, root, parent)
}

// ExtractSpanningTree computes the spanning-tree parent assignment used
// by the DP heuristics on general graphs (Section 6.2, step 1): a minimum
// arborescence of g rooted at root under s+r weights, falling back to an
// undirected Prim tree on min-(s+r) skeleton weights when g is not
// root-reachable.
func ExtractSpanningTree(g *graph.Graph, root graph.NodeID) ([]graph.NodeID, error) {
	if parents, _, err := graphalg.MinArborescence(g, root, graphalg.SumWeight); err == nil {
		out := make([]graph.NodeID, g.N())
		for v := range out {
			if parents[v] == graph.None {
				out[v] = graph.None
			} else {
				out[v] = g.Edge(graph.EdgeID(parents[v])).From
			}
		}
		return out, nil
	}
	// Undirected Prim fallback.
	n := g.N()
	const inf = graph.Infinite
	adj := make([]map[graph.NodeID]graph.Cost, n)
	for i := range adj {
		adj[i] = map[graph.NodeID]graph.Cost{}
	}
	addSkel := func(a, b graph.NodeID, w graph.Cost) {
		if cur, ok := adj[a][b]; !ok || w < cur {
			adj[a][b] = w
		}
	}
	for _, e := range g.Edges() {
		w := e.Storage + e.Retrieval
		addSkel(e.From, e.To, w)
		addSkel(e.To, e.From, w)
	}
	parent := make([]graph.NodeID, n)
	key := make([]graph.Cost, n)
	inTree := make([]bool, n)
	for i := range parent {
		parent[i] = graph.None
		key[i] = inf
	}
	key[root] = 0
	for it := 0; it < n; it++ {
		best := graph.NodeID(graph.None)
		bestKey := inf
		for v := 0; v < n; v++ {
			if !inTree[v] && key[v] < bestKey {
				best, bestKey = graph.NodeID(v), key[v]
			}
		}
		if best == graph.NodeID(graph.None) {
			// Disconnected graph: start the next component, hanging its
			// root off the global root by a phantom (never-storable)
			// link.
			for v := 0; v < n; v++ {
				if !inTree[v] {
					best = graph.NodeID(v)
					parent[best] = root
					break
				}
			}
		}
		inTree[best] = true
		for w, c := range adj[best] {
			if !inTree[w] && c < key[w] {
				key[w] = c
				parent[w] = best
			}
		}
	}
	return parent, nil
}
