// Package dptree implements the paper's dynamic programs on bidirectional
// trees: DP-BMR, the exact algorithm for BoundedMax Retrieval (Section 4,
// Algorithm 2), and DP-MSR, the FPTAS-style DP for MinSum Retrieval
// (Sections 5.1 and 6.2) with the practical speedups described in Section
// 6.2 (storage pruning, geometric discretization, dominance pruning). It
// also provides the tree-extraction heuristics that make both DPs
// applicable to arbitrary version graphs (Section 6.2).
//
// What DP-MSR costs: one merge per tree edge, n-1 merges per run, each
// over every pair of (accumulated state of the parent, final state of the
// child) with up to three candidates per pair — so at most 3·MaxStates²
// candidates per merge once MaxStates caps the state sets. No candidate
// is offered per pair: each option walks one side of the merge with the
// other side's state fixed, and offers only the least of each ρ-bucket
// run, as no other in it can win. The run's flat, pointer-free candidate
// table keeps a row per candidate class (a key less its ρ-bucket): a walk
// looks its class up once, and each offer indexes the class's row by
// ρ-bucket, hashing and comparing no key; nothing is allocated per
// candidate. Before the cap, one sweep over the sorted table drops every
// candidate that another of its kind dominates, no worse in σ, in ρ and
// in k (rooted) or γ (from below), which is all a later merge reads: the
// state sets are Pareto sets, as in Nemhauser and Ullmann's DP, and the
// cap's slots go to states that can still win. Uncapped, exact mode's
// Best is unchanged by it, and FuzzMergeKernelMatchesReference checks
// that the bucketed modes' never gets dearer; capped, it keeps feasible
// budgets the cap alone lost (ROADMAP.md, item 11). The states that
// survive a merge (at most MaxStates) hold no pointers either: their
// values go to a pooled buffer per node, returned
// once the parent has merged the node, and how each came about to one
// record in a log that is compacted to what the unmerged nodes' states
// reach whenever it has doubled, and at the end to what the root's states
// reach.
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

	"repro/internal/graph"
	"repro/internal/graphalg"
)

// ErrSynthesizedEdge reports that an optimal tree plan needs a delta in a
// direction the original graph does not provide.
var ErrSynthesizedEdge = errors.New("dptree: plan requires a delta missing from the graph")

// dirEdge is one direction of a tree edge.
type dirEdge struct {
	id      graph.EdgeID // id in the original graph, or graph.None if synthesized
	storage graph.Cost
	retr    graph.Cost
}

// BiTree is a bidirectional tree over (a spanning tree of) a version
// graph, rooted at version 0. For every non-root node v it keeps the
// delta in both directions between v and its parent. Directions missing
// from the original graph are synthesized with the mirrored costs (the
// tree-extraction step of Section 6.2 does this implicitly); plans that
// end up storing a synthesized delta are rejected with
// ErrSynthesizedEdge.
type BiTree struct {
	G        *graph.Graph
	Parent   []graph.NodeID
	Children [][]graph.NodeID
	Order    []graph.NodeID // preorder
	down     []dirEdge      // parent(v) → v
	up       []dirEdge      // v → parent(v)
}

// FromParents builds a BiTree over g from a parent assignment (parent of
// version 0 is graph.None; every other node has exactly one parent,
// forming a spanning tree). For each tree edge the cheapest delta (by
// s+r, ties by id) in each direction is selected.
func FromParents(g *graph.Graph, parent []graph.NodeID) (*BiTree, error) {
	n := g.N()
	if len(parent) != n {
		return nil, fmt.Errorf("dptree: parent vector has length %d, want %d", len(parent), n)
	}
	t := &BiTree{
		G:        g,
		Parent:   append([]graph.NodeID(nil), parent...),
		Children: make([][]graph.NodeID, n),
		down:     make([]dirEdge, n),
		up:       make([]dirEdge, n),
	}
	if n > 0 && parent[0] != graph.None {
		return nil, errors.New("dptree: version 0 has a parent")
	}
	for v := 1; v < n; v++ {
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

// index computes the preorder, refusing a parent assignment with a cycle
// or one that does not span the graph.
func (t *BiTree) index() error {
	n := t.G.N()
	t.Order = make([]graph.NodeID, 0, n)
	stack := []graph.NodeID{0}
	seen := make([]bool, n)
	seen[0] = true
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		t.Order = append(t.Order, v)
		for _, c := range t.Children[v] {
			if seen[c] {
				return errors.New("dptree: parent assignment has a cycle")
			}
			seen[c] = true
			stack = append(stack, c)
		}
	}
	if len(t.Order) != n {
		return errors.New("dptree: parent assignment does not span the graph")
	}
	return nil
}

// ballEntry is one version u of v's retrieval ball, with where the tree
// path u → v enters v: via is v itself when u == v, v's child on the path
// when u lies below v, and graph.None when u lies outside v's subtree
// (the path ends with the down edge parent(v) → v).
type ballEntry struct{ u, via graph.NodeID }

// ballStep is a version x the ball walk has reached at retrieval cost
// cost. from is the child it came up from (v itself at the start), or
// graph.None once the walk has gone down.
type ballStep struct {
	x, via, from graph.NodeID
	cost         graph.Cost
}

// ball returns in out, v first, every version u with R(u, v) ≤ r, where
// R(u, v) is the retrieval cost of the tree path u → v. It walks
// backwards from v along retrieval paths: to the parent of x at the cost
// of x's down edge, into a child c at the cost of c's up edge; once the
// walk has gone down it never goes up again. The order depends only on
// the tree, v and r. stack is scratch, returned for reuse.
func (t *BiTree) ball(v graph.NodeID, r graph.Cost, out []ballEntry, stack []ballStep) ([]ballEntry, []ballStep) {
	out = out[:0]
	stack = append(stack[:0], ballStep{v, v, v, 0})
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		out = append(out, ballEntry{s.x, s.via})
		for _, c := range t.Children[s.x] {
			via := s.via
			if via == v { // only v's own step has via v
				via = c
			}
			if cost := s.cost + t.up[c].retr; c != s.from && cost <= r {
				stack = append(stack, ballStep{c, via, graph.None, cost})
			}
		}
		if p := t.Parent[s.x]; s.from != graph.None && p != graph.None {
			if cost := s.cost + t.down[s.x].retr; cost <= r {
				stack = append(stack, ballStep{p, graph.None, s.x, cost})
			}
		}
	}
	return out, stack
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

// FromGraph is step 1 of the DP heuristics on an arbitrary version graph
// (Section 6.2): the BiTree over ExtractSpanningTree's parents. An empty
// graph gives an empty tree, which both DPs answer with the empty plan.
func FromGraph(g *graph.Graph) (*BiTree, error) {
	if g.N() == 0 {
		return &BiTree{G: g}, nil
	}
	parent, err := ExtractSpanningTree(g)
	if err != nil {
		return nil, err
	}
	return FromParents(g, parent)
}

// ExtractSpanningTree computes the spanning-tree parent assignment used
// by the DP heuristics on general graphs (Section 6.2, step 1): a minimum
// arborescence of g rooted at version 0 under s+r weights, falling back to
// an undirected Prim tree on min-(s+r) skeleton weights when version 0
// does not reach every version.
func ExtractSpanningTree(g *graph.Graph) ([]graph.NodeID, error) {
	if parents, _, err := graphalg.MinArborescence(g, 0, graphalg.SumWeight); err == nil {
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
	key[0] = 0
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
			// root off version 0 by a phantom (never-storable) link.
			for v := 0; v < n; v++ {
				if !inTree[v] {
					best = graph.NodeID(v)
					parent[best] = 0
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
