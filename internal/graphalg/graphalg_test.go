package graphalg

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
)

// bellmanFord is an independent O(VE) shortest-path oracle.
func bellmanFord(g *graph.Graph, src graph.NodeID, w Weight) []graph.Cost {
	dist := make([]graph.Cost, g.N())
	for i := range dist {
		dist[i] = graph.Infinite
	}
	dist[src] = 0
	for i := 0; i < g.N(); i++ {
		for _, e := range g.Edges() {
			if dist[e.From] < graph.Infinite && dist[e.From]+w(e) < dist[e.To] {
				dist[e.To] = dist[e.From] + w(e)
			}
		}
	}
	return dist
}

func TestDijkstraAgainstBellmanFord(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 40; it++ {
		g := graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(14), ExtraEdges: rng.Intn(25)}, rng)
		src := graph.NodeID(rng.Intn(g.N()))
		for _, w := range []Weight{RetrievalWeight, StorageWeight, SumWeight} {
			got, parents := Dijkstra(g, []graph.NodeID{src}, w, nil)
			want := bellmanFord(g, src, w)
			for v := range got {
				if got[v] != want[v] {
					t.Fatalf("it %d node %d: dijkstra %d bellman-ford %d", it, v, got[v], want[v])
				}
			}
			// Parent edges reconstruct the distances.
			for v := range got {
				if graph.NodeID(v) == src || got[v] == graph.Infinite {
					if parents[v] != graph.None {
						t.Fatalf("unexpected parent for node %d", v)
					}
					continue
				}
				e := g.Edge(graph.EdgeID(parents[v]))
				if e.To != graph.NodeID(v) || got[e.From]+w(e) != got[v] {
					t.Fatalf("parent edge of %d inconsistent", v)
				}
			}
		}
	}
}

func TestDijkstraMultiSourceAndAdmit(t *testing.T) {
	g := graph.Chain(6, 10, 1, 5)
	dist, _ := Dijkstra(g, []graph.NodeID{0, 3}, RetrievalWeight, nil)
	want := []graph.Cost{0, 5, 10, 0, 5, 10}
	for v, d := range dist {
		if d != want[v] {
			t.Fatalf("node %d: dist %d want %d", v, d, want[v])
		}
	}
	// Forbid the edge 3→4: nodes 4,5 must route from 0 (cost grows) — but
	// 0 only reaches them through 3→4 too, so they become unreachable.
	dist, _ = Dijkstra(g, []graph.NodeID{0, 3}, RetrievalWeight, func(id graph.EdgeID) bool { return g.Edge(id).From != 3 })
	if dist[4] != graph.Infinite || dist[5] != graph.Infinite {
		t.Fatalf("admit filter ignored: %v", dist)
	}
	// No sources at all.
	dist, _ = Dijkstra(g, nil, RetrievalWeight, nil)
	for _, d := range dist {
		if d != graph.Infinite {
			t.Fatal("no-source Dijkstra should reach nothing")
		}
	}
}

// bruteMinArborescence enumerates all parent assignments.
func bruteMinArborescence(g *graph.Graph, root graph.NodeID, w Weight) (graph.Cost, bool) {
	n := g.N()
	choice := make([]int32, n) // edge id per node
	best := graph.Infinite
	found := false
	var rec func(v int, sum graph.Cost)
	rec = func(v int, sum graph.Cost) {
		if sum >= best {
			return
		}
		if v == n {
			// Check that the parent pointers are acyclic (reach root).
			for u := 0; u < n; u++ {
				x := u
				steps := 0
				for graph.NodeID(x) != root {
					x = int(g.Edge(graph.EdgeID(choice[x])).From)
					steps++
					if steps > n {
						return
					}
				}
			}
			best, found = sum, true
			return
		}
		if graph.NodeID(v) == root {
			rec(v+1, sum)
			return
		}
		for _, id := range g.In(graph.NodeID(v)) {
			choice[v] = int32(id)
			rec(v+1, sum+w(g.Edge(id)))
		}
	}
	rec(0, 0)
	return best, found
}

func TestEdmondsAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 120; it++ {
		n := 2 + rng.Intn(6)
		g := graph.New("r")
		for i := 0; i < n; i++ {
			g.AddNode(1 + graph.Cost(rng.Int63n(50)))
		}
		m := rng.Intn(3 * n)
		for i := 0; i < m; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u == v {
				continue
			}
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+graph.Cost(rng.Int63n(40)), 1+graph.Cost(rng.Int63n(40)))
		}
		root := graph.NodeID(rng.Intn(n))
		for _, w := range []Weight{StorageWeight, RetrievalWeight} {
			wantCost, feasible := bruteMinArborescence(g, root, w)
			parents, gotCost, err := MinArborescence(g, root, w)
			if !feasible {
				if err == nil {
					t.Fatalf("it %d: edmonds found arborescence on infeasible instance", it)
				}
				continue
			}
			if err != nil {
				t.Fatalf("it %d: edmonds failed on feasible instance: %v", it, err)
			}
			if gotCost != wantCost {
				t.Fatalf("it %d: edmonds cost %d, brute force %d", it, gotCost, wantCost)
			}
			if _, err := NewTree(g, root, parents); err != nil {
				t.Fatalf("it %d: edmonds output is not an arborescence: %v", it, err)
			}
		}
	}
}

func TestEdmondsOnExtendedGraph(t *testing.T) {
	// On the extended Figure 1 graph with storage weights, the minimum
	// arborescence is the minimum storage solution (Figure 1(iii)):
	// materialize v1, store all four natural deltas of the tree.
	x := graph.Extend(graph.Figure1())
	parents, total, err := MinArborescence(x.Graph, x.Aux, StorageWeight)
	if err != nil {
		t.Fatal(err)
	}
	// v1 materialized: its parent edge is the auxiliary edge.
	if !x.IsAuxEdge(graph.EdgeID(parents[0])) {
		t.Fatal("v1 should be materialized in the min-storage plan")
	}
	// Min storage: s(v1)=10000 + edges 200+50+200 + delta to v5 via v3
	// (200) and v3 via v1 (1000). Tree: v1→v2 (200), v2→v4 (50),
	// v1→v3 (1000), v3→v5 (200): total 10000+200+50+1000+200 = 11450.
	if total != 11450 {
		t.Fatalf("min storage = %d, want 11450", total)
	}
}

func TestEdmondsInfeasible(t *testing.T) {
	g := graph.NewWithNodes("d", 3, 1)
	g.AddEdge(0, 1, 1, 1)
	// Node 2 unreachable from 0.
	if _, _, err := MinArborescence(g, 0, StorageWeight); err == nil {
		t.Fatal("expected ErrNoArborescence")
	}
	// Single node: trivially feasible.
	s := graph.NewWithNodes("one", 1, 5)
	parents, total, err := MinArborescence(s, 0, StorageWeight)
	if err != nil || total != 0 || parents[0] != graph.None {
		t.Fatalf("single-node arborescence: %v %d %v", parents, total, err)
	}
}

func TestTreeStructures(t *testing.T) {
	x := graph.Extend(graph.Figure1())
	parents, _, err := MinArborescence(x.Graph, x.Aux, StorageWeight)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := NewTree(x.Graph, x.Aux, parents)
	if err != nil {
		t.Fatal(err)
	}
	if tr.SubSize[x.Aux] != 6 {
		t.Fatalf("root subtree size %d", tr.SubSize[x.Aux])
	}
	// R(v4) = r(v1,v2)+r(v2,v4) = 200+400 = 600 in the min-storage tree.
	if tr.Retrieval[3] != 600 {
		t.Fatalf("R(v4) = %d", tr.Retrieval[3])
	}
	var total, max graph.Cost
	for _, r := range tr.Retrieval {
		total += r
		max = maxCost(max, r)
	}
	if total != 0+200+3000+600+3550 {
		t.Fatalf("total retrieval %d", total)
	}
	if max != 3550 {
		t.Fatalf("max retrieval %d", max)
	}
	if tr.StorageCost() != 11450 {
		t.Fatalf("storage %d", tr.StorageCost())
	}
	// Descendant queries.
	if !tr.IsDescendant(1, 3) || tr.IsDescendant(3, 1) || !tr.IsDescendant(x.Aux, 4) || !tr.IsDescendant(2, 2) {
		t.Fatal("descendant queries wrong")
	}
	// Reattach v5 (node 4) to be materialized.
	before := tr.StorageCost()
	tr.Reattach(4, x.AuxEdge(4))
	if tr.Retrieval[4] != 0 {
		t.Fatal("materialized node should have zero retrieval")
	}
	if tr.StorageCost() != before-200+10120 {
		t.Fatalf("storage after reattach %d", tr.StorageCost())
	}
	if tr.SubSize[2] != 1 {
		t.Fatalf("v3 subtree size after reattach %d", tr.SubSize[2])
	}
}

func maxCost(a, b graph.Cost) graph.Cost {
	if a > b {
		return a
	}
	return b
}

func TestNewTreeRejectsCycle(t *testing.T) {
	g := graph.NewWithNodes("c", 3, 1)
	e01 := g.AddEdge(0, 1, 1, 1)
	e12 := g.AddEdge(1, 2, 1, 1)
	e21 := g.AddEdge(2, 1, 1, 1)
	_ = e01
	// 1 and 2 point at each other; 0 is root but 1,2 unreachable.
	if _, err := NewTree(g, 0, []int32{graph.None, int32(e21), int32(e12)}); err == nil {
		t.Fatal("cycle accepted")
	}
	// Valid chain accepted.
	if _, err := NewTree(g, 0, []int32{graph.None, int32(e01), int32(e12)}); err != nil {
		t.Fatal(err)
	}
}

// TestReattachMatchesNewTree applies random acyclic moves and checks,
// after each, that the in-place update equals a tree built from scratch
// on the same parent edges, and that the nodes Reattach reports are
// exactly the ones whose values changed.
func TestReattachMatchesNewTree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for it := 0; it < 200; it++ {
		x := graph.Extend(graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(12), ExtraEdges: rng.Intn(30), Bidirected: rng.Intn(2) == 0}, rng))
		parents, _, err := MinArborescence(x.Graph, x.Aux, StorageWeight)
		if err != nil {
			t.Fatal(err)
		}
		tr, err := NewTree(x.Graph, x.Aux, parents)
		if err != nil {
			t.Fatal(err)
		}
		for mv := 0; mv < 20; mv++ {
			id := graph.EdgeID(rng.Intn(x.M()))
			e := x.Edge(id)
			if tr.IsDescendant(e.To, e.From) {
				continue
			}
			before := append([]int(nil), tr.SubSize...)
			beforeR := append([]graph.Cost(nil), tr.Retrieval...)
			subtree, path := tr.Reattach(e.To, id)
			want, err := NewTree(x.Graph, x.Aux, tr.ParentEdge)
			if err != nil {
				t.Fatalf("it %d move %d: %v", it, mv, err)
			}
			for v := range want.Parent {
				if tr.Parent[v] != want.Parent[v] || tr.Depth[v] != want.Depth[v] ||
					tr.SubSize[v] != want.SubSize[v] || tr.Retrieval[v] != want.Retrieval[v] {
					t.Fatalf("it %d move %d node %d: got (p %d d %d s %d r %d), want (p %d d %d s %d r %d)", it, mv, v,
						tr.Parent[v], tr.Depth[v], tr.SubSize[v], tr.Retrieval[v],
						want.Parent[v], want.Depth[v], want.SubSize[v], want.Retrieval[v])
				}
			}
			reported := map[graph.NodeID]bool{}
			for _, v := range subtree {
				if !tr.IsDescendant(e.To, v) {
					t.Fatalf("it %d move %d: %d reported in subtree(%d)", it, mv, v, e.To)
				}
				reported[v] = true
			}
			if len(subtree) != tr.SubSize[e.To] {
				t.Fatalf("it %d move %d: %d subtree nodes reported, subtree has %d", it, mv, len(subtree), tr.SubSize[e.To])
			}
			for _, v := range path {
				reported[v] = true
			}
			for v := range want.Parent {
				changed := before[v] != tr.SubSize[v] || beforeR[v] != tr.Retrieval[v]
				if changed && !reported[graph.NodeID(v)] {
					t.Fatalf("it %d move %d: node %d changed but was not reported", it, mv, v)
				}
			}
		}
	}
}

func TestShortestPathTreeIsSPTBaseline(t *testing.T) {
	// Problem 2: minimize max retrieval with unbounded storage. From
	// v_aux every node is reachable at cost 0 via materialization, so the
	// SPT materializes everything.
	x := graph.Extend(graph.Figure1())
	dist, parents := ShortestPathTree(x.Graph, x.Aux, RetrievalWeight)
	for v := 0; v < 5; v++ {
		if dist[v] != 0 || !x.IsAuxEdge(graph.EdgeID(parents[v])) {
			t.Fatalf("node %d not materialized in SPT", v)
		}
	}
}
