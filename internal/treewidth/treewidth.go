// Package treewidth computes tree decompositions of the underlying
// undirected graph of a version graph (Section 5.2). It provides the
// min-degree and min-fill elimination heuristics, a degeneracy-style
// lower bound and validity checking. The bounded-treewidth DP of Section
// 5.3, which would run over these decompositions, is not built.
//
// The paper's footnote 7 observes that real version graphs have low
// treewidth (datasharing 2, styleguide 3, leetcode 6); the same holds for
// the synthetic datasets of this repository, as the tests document.
package treewidth

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
)

// Heuristic selects the elimination-order heuristic.
type Heuristic int

// Elimination heuristics.
const (
	MinDegree Heuristic = iota
	MinFill
)

// Decomposition is a tree decomposition: one bag per node of a tree.
type Decomposition struct {
	Bags [][]graph.NodeID
	Adj  [][]int // tree adjacency between bags
}

// Width is max |bag| − 1.
func (d *Decomposition) Width() int {
	w := 0
	for _, b := range d.Bags {
		if len(b) > w {
			w = len(b)
		}
	}
	return w - 1
}

// skeleton builds undirected adjacency sets, merging parallel and
// antiparallel deltas.
func skeleton(g *graph.Graph) []map[graph.NodeID]bool {
	adj := make([]map[graph.NodeID]bool, g.N())
	for i := range adj {
		adj[i] = map[graph.NodeID]bool{}
	}
	for _, e := range g.Edges() {
		adj[e.From][e.To] = true
		adj[e.To][e.From] = true
	}
	return adj
}

// Decompose computes a tree decomposition via the chosen elimination
// heuristic. The width is an upper bound on the true treewidth.
func Decompose(g *graph.Graph, h Heuristic) *Decomposition {
	n := g.N()
	d := &Decomposition{}
	if n == 0 {
		d.Bags = [][]graph.NodeID{{}}
		d.Adj = [][]int{nil}
		return d
	}
	adj := skeleton(g)
	eliminated := make([]bool, n)
	bagOf := make([]int, n) // vertex → index of the bag created at its elimination
	order := make([]graph.NodeID, 0, n)

	fillCount := func(v graph.NodeID) int {
		nbrs := make([]graph.NodeID, 0, len(adj[v]))
		for w := range adj[v] {
			nbrs = append(nbrs, w)
		}
		fill := 0
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				if !adj[nbrs[i]][nbrs[j]] {
					fill++
				}
			}
		}
		return fill
	}

	for len(order) < n {
		best := graph.NodeID(-1)
		bestScore := int(^uint(0) >> 1)
		for v := 0; v < n; v++ {
			if eliminated[v] {
				continue
			}
			var score int
			if h == MinFill {
				score = fillCount(graph.NodeID(v))
			} else {
				score = len(adj[v])
			}
			if score < bestScore {
				bestScore = score
				best = graph.NodeID(v)
			}
		}
		v := best
		bag := []graph.NodeID{v}
		for w := range adj[v] {
			bag = append(bag, w)
		}
		sort.Slice(bag, func(i, j int) bool { return bag[i] < bag[j] })
		bagOf[v] = len(d.Bags)
		d.Bags = append(d.Bags, bag)
		d.Adj = append(d.Adj, nil)
		// Clique-ify the neighborhood, then remove v.
		nbrs := make([]graph.NodeID, 0, len(adj[v]))
		for w := range adj[v] {
			nbrs = append(nbrs, w)
		}
		for i := 0; i < len(nbrs); i++ {
			for j := i + 1; j < len(nbrs); j++ {
				adj[nbrs[i]][nbrs[j]] = true
				adj[nbrs[j]][nbrs[i]] = true
			}
			delete(adj[nbrs[i]], v)
		}
		eliminated[v] = true
		order = append(order, v)
	}
	// Connect each bag to the bag of the earliest-later-eliminated
	// member of its neighborhood; bags of the last component go to the
	// final bag.
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = i
	}
	for i, v := range order {
		bag := d.Bags[bagOf[v]]
		next := -1
		for _, w := range bag {
			if w == v {
				continue
			}
			if next == -1 || pos[w] < pos[next] {
				next = int(w)
			}
		}
		var parent int
		if next >= 0 {
			parent = bagOf[next]
		} else if i+1 < len(order) {
			parent = bagOf[order[i+1]]
		} else {
			continue // root
		}
		d.Adj[bagOf[v]] = append(d.Adj[bagOf[v]], parent)
		d.Adj[parent] = append(d.Adj[parent], bagOf[v])
	}
	return d
}

// Validate checks the three conditions of Definition 11 plus tree-ness.
func (d *Decomposition) Validate(g *graph.Graph) error {
	n := g.N()
	nb := len(d.Bags)
	if nb == 0 {
		return errors.New("treewidth: empty decomposition")
	}
	// Tree-ness: connected with nb-1 edges.
	edgeCount := 0
	for _, a := range d.Adj {
		edgeCount += len(a)
	}
	if edgeCount != 2*(nb-1) {
		return fmt.Errorf("treewidth: %d adjacency entries, want %d", edgeCount, 2*(nb-1))
	}
	visited := make([]bool, nb)
	stack := []int{0}
	visited[0] = true
	count := 1
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, o := range d.Adj[b] {
			if !visited[o] {
				visited[o] = true
				count++
				stack = append(stack, o)
			}
		}
	}
	if count != nb {
		return errors.New("treewidth: decomposition tree is disconnected")
	}
	// (i) coverage of vertices; (ii) connected occurrence subtrees;
	// (iii) coverage of edges.
	occ := make([][]int, n)
	for bi, bag := range d.Bags {
		for _, v := range bag {
			occ[v] = append(occ[v], bi)
		}
	}
	for v := 0; v < n; v++ {
		if len(occ[v]) == 0 {
			return fmt.Errorf("treewidth: vertex %d in no bag", v)
		}
		inSet := make(map[int]bool, len(occ[v]))
		for _, b := range occ[v] {
			inSet[b] = true
		}
		seen := map[int]bool{occ[v][0]: true}
		st := []int{occ[v][0]}
		for len(st) > 0 {
			b := st[len(st)-1]
			st = st[:len(st)-1]
			for _, o := range d.Adj[b] {
				if inSet[o] && !seen[o] {
					seen[o] = true
					st = append(st, o)
				}
			}
		}
		if len(seen) != len(occ[v]) {
			return fmt.Errorf("treewidth: occurrence subtree of vertex %d disconnected", v)
		}
	}
	for _, e := range g.Edges() {
		ok := false
		for _, bag := range d.Bags {
			hasU, hasV := false, false
			for _, w := range bag {
				if w == e.From {
					hasU = true
				}
				if w == e.To {
					hasV = true
				}
			}
			if hasU && hasV {
				ok = true
				break
			}
		}
		if !ok {
			return fmt.Errorf("treewidth: edge (%d,%d) in no bag", e.From, e.To)
		}
	}
	return nil
}

// LowerBoundMMD computes the maximum-minimum-degree lower bound on
// treewidth: repeatedly delete a minimum-degree vertex; the largest
// minimum degree seen bounds the treewidth from below.
func LowerBoundMMD(g *graph.Graph) int {
	adj := skeleton(g)
	alive := g.N()
	removed := make([]bool, g.N())
	bound := 0
	for alive > 0 {
		best, bestDeg := -1, int(^uint(0)>>1)
		for v := 0; v < g.N(); v++ {
			if !removed[v] && len(adj[v]) < bestDeg {
				best, bestDeg = v, len(adj[v])
			}
		}
		if bestDeg > bound && bestDeg < alive {
			bound = bestDeg
		}
		for w := range adj[best] {
			delete(adj[w], graph.NodeID(best))
		}
		removed[best] = true
		alive--
	}
	return bound
}
