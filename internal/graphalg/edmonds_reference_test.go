package graphalg_test

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/reductions"
	"repro/internal/repogen"
)

// referenceMinArborescence is MinArborescence as it stood before its
// per-level map and slices were replaced by shared scratch: one recursive
// call per contraction level, a fresh edge list, index list and
// map[int32]int per level. LMG and LMG-All start from the edges it
// returns, so the rewrite is pinned to it edge for edge, not only on the
// total: a different tie-break would move installed plans.
func referenceMinArborescence(g *graph.Graph, root graph.NodeID, w graphalg.Weight) (parentEdge []int32, total graph.Cost, err error) {
	n := g.N()
	type arbEdge struct {
		u, v int
		w    graph.Cost
		id   int32 // original edge id
	}
	edges := make([]arbEdge, 0, g.M())
	for id := 0; id < g.M(); id++ {
		e := g.Edge(graph.EdgeID(id))
		edges = append(edges, arbEdge{int(e.From), int(e.To), w(e), int32(id)})
	}

	var solve func(n, root int, edges []arbEdge) ([]int32, error)
	solve = func(n, root int, edges []arbEdge) ([]int32, error) {
		const none = -1
		// 1. Cheapest incoming edge per node.
		best := make([]int, n)
		for i := range best {
			best[i] = none
		}
		for i, e := range edges {
			if e.v == root || e.u == e.v {
				continue
			}
			if best[e.v] == none || e.w < edges[best[e.v]].w {
				best[e.v] = i
			}
		}
		for v := 0; v < n; v++ {
			if v != root && best[v] == none {
				return nil, graphalg.ErrNoArborescence
			}
		}
		// 2. Detect cycles among the chosen edges.
		cycleID := make([]int, n)
		visitMark := make([]int, n)
		for i := range cycleID {
			cycleID[i] = none
			visitMark[i] = none
		}
		cycles := 0
		for v := 0; v < n; v++ {
			u := v
			for u != root && visitMark[u] == none && cycleID[u] == none {
				visitMark[u] = v
				u = edges[best[u]].u
			}
			if u != root && cycleID[u] == none && visitMark[u] == v {
				// New cycle through u.
				x := u
				for {
					cycleID[x] = cycles
					x = edges[best[x]].u
					if x == u {
						break
					}
				}
				cycles++
			}
		}
		if cycles == 0 {
			res := make([]int32, n)
			for v := 0; v < n; v++ {
				if v == root {
					res[v] = graph.None
				} else {
					res[v] = edges[best[v]].id
				}
			}
			return res, nil
		}
		// 3. Contract cycles. Nodes in cycle c map to new id c;
		// remaining nodes get fresh ids.
		newID := make([]int, n)
		next := cycles
		for v := 0; v < n; v++ {
			if cycleID[v] != none {
				newID[v] = cycleID[v]
			} else {
				newID[v] = next
				next++
			}
		}
		contracted := make([]arbEdge, 0, len(edges))
		// For expansion we remember which original (sub)edge each
		// contracted edge came from, via an index into edges.
		fromIdx := make([]int, 0, len(edges))
		for i, e := range edges {
			nu, nv := newID[e.u], newID[e.v]
			if nu == nv {
				continue
			}
			we := e.w
			if cycleID[e.v] != none {
				we -= edges[best[e.v]].w
			}
			contracted = append(contracted, arbEdge{nu, nv, we, e.id})
			fromIdx = append(fromIdx, i)
		}
		sub, err := solve(next, newID[root], contracted)
		if err != nil {
			return nil, err
		}
		// 4. Expand: map chosen contracted edges back; inside each
		// cycle keep all best edges except the one entering at the
		// node through which the cycle is entered.
		res := make([]int32, n)
		for i := range res {
			res[i] = graph.None
		}
		entered := make([]int, cycles) // node of each cycle whose best edge is dropped
		for i := range entered {
			entered[i] = none
		}
		// sub[c] is an original edge id; we need the edge's endpoint v
		// in the *current* level. Build a lookup from original id to
		// current-level index of contracted edges chosen.
		// Original edge ids are unique per level, since each current-level
		// edge descends from a distinct original edge.
		idToCur := make(map[int32]int, len(contracted))
		for ci, i := range fromIdx {
			idToCur[contracted[ci].id] = i
		}
		for c := 0; c < next; c++ {
			se := sub[c]
			if se == graph.None {
				continue
			}
			i, ok := idToCur[se]
			if !ok {
				return nil, errors.New("graphalg: internal expansion error")
			}
			e := edges[i]
			res[e.v] = e.id
			if cycleID[e.v] != none {
				entered[cycleID[e.v]] = e.v
			}
		}
		for v := 0; v < n; v++ {
			if v == root || res[v] != graph.None {
				continue
			}
			if cycleID[v] != none && entered[cycleID[v]] != v {
				res[v] = edges[best[v]].id
			}
		}
		// Any remaining unset node (shouldn't happen) is an error.
		for v := 0; v < n; v++ {
			if v != root && res[v] == graph.None {
				return nil, errors.New("graphalg: internal expansion left node unattached")
			}
		}
		return res, nil
	}

	parentEdge, err = solve(n, int(root), edges)
	if err != nil {
		return nil, 0, err
	}
	for v := 0; v < n; v++ {
		if parentEdge[v] != graph.None {
			total += w(g.Edge(graph.EdgeID(parentEdge[v])))
		}
	}
	return parentEdge, total, nil
}

// requireSameArborescence runs both kernels on g from root under each
// weight and requires the same error or the same edge into every node.
// It returns how many nodes ended up with an edge dearer than their
// cheapest incoming one: each is a cycle the kernel had to contract.
func requireSameArborescence(t *testing.T, name string, g *graph.Graph, root graph.NodeID) (broken int) {
	t.Helper()
	for wi, w := range []graphalg.Weight{graphalg.StorageWeight, graphalg.RetrievalWeight, graphalg.SumWeight} {
		want, wantTotal, wantErr := referenceMinArborescence(g, root, w)
		got, gotTotal, gotErr := graphalg.MinArborescence(g, root, w)
		if !errors.Is(gotErr, wantErr) || (wantErr == nil) != (gotErr == nil) {
			t.Fatalf("%s, weight %d: error %v, reference %v", name, wi, gotErr, wantErr)
		}
		if gotTotal != wantTotal || !slices.Equal(got, want) {
			t.Fatalf("%s, weight %d, root %d: total %d, reference %d; edges\n%v\nreference\n%v",
				name, wi, root, gotTotal, wantTotal, got, want)
		}
		for v, e := range got {
			if e == graph.None {
				continue
			}
			for _, in := range g.In(graph.NodeID(v)) {
				if w(g.Edge(in)) < w(g.Edge(graph.EdgeID(e))) {
					broken++
					break
				}
			}
		}
	}
	return broken
}

// TestMinArborescenceMatchesReference pins the kernel edge for edge on
// the graphs re-plans run it on (natural histories whose reverse edges
// make a 2-cycle out of almost every pair, so contraction runs many
// levels deep), on the paper's reduction graphs (unit weights: every
// choice is a tie) and on graphs that leave nodes unreachable.
func TestMinArborescenceMatchesReference(t *testing.T) {
	broken := 0
	for seed := int64(1); seed <= 12; seed++ {
		spec := repogen.Spec{
			Name: "pin", Commits: 20 + int(seed)*23, ExtraBiEdges: int(seed) * 7,
			AvgNodeCost: 5000, AvgDeltaCost: graph.Cost(3 + 40*(seed%4)), BranchProb: 0.2, Seed: seed,
		}
		g := repogen.Generate(spec)
		x := graph.Extend(g)
		broken += requireSameArborescence(t, fmt.Sprintf("generate seed %d, extended", seed), x.Graph, x.Aux)
		broken += requireSameArborescence(t, fmt.Sprintf("generate seed %d, from a version", seed), g, graph.NodeID(int(seed)%g.N()))

		repo := repogen.GenerateRepo("pin-repo", 30+int(seed)*9, seed)
		x = graph.Extend(repo.Graph)
		broken += requireSameArborescence(t, fmt.Sprintf("repo seed %d, extended", seed), x.Graph, x.Aux)
		broken += requireSameArborescence(t, fmt.Sprintf("repo seed %d, from its root", seed), repo.Graph, 0)
	}
	if broken < 1000 {
		t.Fatalf("the generated histories broke %d cycles: contraction was hardly exercised", broken)
	}

	sc, err := reductions.SetCoverToBMR(reductions.SetCover{
		NumElements: 7,
		Sets:        [][]int{{0, 1, 2}, {2, 3}, {3, 4, 5}, {5, 6}, {0, 6}, {1, 4}},
	}, 100)
	if err != nil {
		t.Fatal(err)
	}
	ss := reductions.SubsetSumToMSR(reductions.SubsetSum{Values: []graph.Cost{3, 5, 8, 13, 21}, Target: 20}, 1000)
	metric := reductions.Metric{{0, 2, 3, 4}, {2, 0, 2, 3}, {3, 2, 0, 2}, {4, 3, 2, 0}}
	cl, err := reductions.ClusterToVersioning(metric, 2, 50)
	if err != nil {
		t.Fatal(err)
	}
	adv, _ := reductions.AdversarialLMG(10, 4, 16)
	for name, g := range map[string]*graph.Graph{"setcover": sc.G, "subsetsum": ss.G, "cluster": cl.G, "adversarial": adv} {
		x := graph.Extend(g)
		requireSameArborescence(t, name+", extended", x.Graph, x.Aux)
		for v := 0; v < g.N(); v++ {
			requireSameArborescence(t, name, g, graph.NodeID(v))
		}
	}

	// Sparse random digraphs with few distinct weights: ties, parallel
	// edges, and roots that do not reach everything.
	rng := rand.New(rand.NewSource(99))
	infeasible := 0
	for it := 0; it < 400; it++ {
		n := 1 + rng.Intn(14)
		g := graph.NewWithNodes("sparse", n, 1)
		for i := rng.Intn(3 * n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), 1+graph.Cost(rng.Intn(4)), 1+graph.Cost(rng.Intn(4)))
			}
		}
		root := graph.NodeID(rng.Intn(n))
		if _, _, err := referenceMinArborescence(g, root, graphalg.StorageWeight); err != nil {
			infeasible++
		}
		requireSameArborescence(t, fmt.Sprintf("sparse %d", it), g, root)
	}
	if infeasible < 50 || infeasible > 350 {
		t.Fatalf("%d of 400 sparse graphs are infeasible: the mix covers one side only", infeasible)
	}
}
