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
	referenceLevels = 0
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
		referenceLevels++
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

// referenceLevels is how many contraction levels the last
// referenceMinArborescence call ran.
var referenceLevels int

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
// choice is a tie), on graphs that leave nodes unreachable and on
// fork-heavy histories, which contract one cycle per level.
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

	// Fork-heavy histories: many children of a few versions, whose
	// reverse deltas are often cheaper than their forward ones. Each
	// parent and its cheapest child make a 2-cycle, and contracting it
	// leaves the next child the cheapest way in, so the cycles nest one
	// inside the next, hundreds deep.
	for seed := int64(1); seed <= 4; seed++ {
		g := forkHistory(rand.New(rand.NewSource(seed)), 8, 150*int(seed), 7)
		x := graph.Extend(g)
		requireSameArborescence(t, fmt.Sprintf("fork seed %d, extended", seed), x.Graph, x.Aux)
		requireSameArborescence(t, fmt.Sprintf("fork seed %d, from its root", seed), g, 0)
		referenceMinArborescence(x.Graph, x.Aux, graphalg.StorageWeight)
		if referenceLevels < g.N()/3 {
			t.Fatalf("fork seed %d contracted %d levels deep on %d versions: the forks did not nest", seed, referenceLevels, g.N())
		}
	}
}

// forkHistory is a version graph shaped like a fork-heavy repository: a
// chain of chain versions, then children versions, each a child of one of
// the chain's last `last` versions (the later ones likelier). A delta's
// storage and retrieval cost a few dozen units, and its reverse is cheaper
// than its forward delta about half the time; a version stored whole costs
// a hundred times more.
func forkHistory(rng *rand.Rand, chain, children, last int) *graph.Graph {
	g := graph.New("fork")
	delta := func(u, v graph.NodeID) {
		f := 10 + graph.Cost(rng.Intn(40))
		r := f + graph.Cost(rng.Intn(21)) - 10
		g.AddEdge(u, v, f, f)
		g.AddEdge(v, u, r, r)
	}
	for v := 0; v < chain+children; v++ {
		g.AddNode(3000 + graph.Cost(rng.Intn(100)))
		switch {
		case v == 0:
		case v < chain:
			delta(graph.NodeID(v-1), graph.NodeID(v))
		default:
			p := chain - 1 - min(rng.Intn(last), rng.Intn(last))
			delta(graph.NodeID(p), graph.NodeID(v))
		}
	}
	return g
}

// randomTieGraph is a digraph on at most maxN nodes whose edge costs take
// a handful of values, so that ties decide most choices, with parallel
// edges and, for about a fifth of the graphs, too few edges to reach
// every node.
func randomTieGraph(rng *rand.Rand, maxN int) *graph.Graph {
	n := 1 + rng.Intn(maxN)
	g := graph.NewWithNodes("ties", n, 1+graph.Cost(rng.Intn(3)))
	weights := 1 + rng.Intn(4)
	m := n + rng.Intn(3*n)
	if rng.Intn(5) == 0 {
		m = rng.Intn(n)
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u == v {
			continue
		}
		for k := 1 + rng.Intn(3)/2; k > 0; k-- {
			g.AddEdge(graph.NodeID(u), graph.NodeID(v), graph.Cost(rng.Intn(weights)), graph.Cost(rng.Intn(weights)))
		}
	}
	return g
}

// TestMinArborescenceTieHeavy is a randomized differential against the
// reference: 2,400 graphs of up to 60 nodes with at most four distinct
// costs, rooted at a node and, extended, at the auxiliary root.
func TestMinArborescenceTieHeavy(t *testing.T) {
	rng := rand.New(rand.NewSource(58))
	infeasible := 0
	for it := 0; it < 2400; it++ {
		g := randomTieGraph(rng, 60)
		root := graph.NodeID(rng.Intn(g.N()))
		if _, _, err := referenceMinArborescence(g, root, graphalg.StorageWeight); err != nil {
			infeasible++
		}
		requireSameArborescence(t, fmt.Sprintf("ties %d", it), g, root)
		if it%2 == 0 {
			x := graph.Extend(g)
			requireSameArborescence(t, fmt.Sprintf("ties %d, extended", it), x.Graph, x.Aux)
		}
	}
	if infeasible < 300 || infeasible > 2100 {
		t.Fatalf("%d of 2400 tie-heavy graphs are infeasible: the mix covers one side only", infeasible)
	}
}

// FuzzMinArborescenceMatchesReference decodes a graph of at most 32 nodes
// from the input, with costs 0-7 so that ties dominate, and requires the
// kernel to return the reference's edges, total and error under every
// weight. The first byte picks the node count, the second the root (a
// value past the last node roots the extended graph at its auxiliary
// node), and every further three bytes an edge: tail, head, and its
// storage (low three bits) and retrieval (next three) costs.
func FuzzMinArborescenceMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 0x09, 1, 2, 0x12, 2, 1, 0x00})
	f.Add([]byte{4, 9, 0, 1, 0x3f, 1, 0, 0x00, 1, 2, 0x01, 2, 1, 0x01, 2, 3, 0x07, 3, 2, 0x07})
	f.Add([]byte{5, 1, 0, 1, 1, 1, 2, 1, 2, 0, 1, 3, 4, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		n := 1 + int(data[0])%32
		g := graph.NewWithNodes("fuzz", n, 1+graph.Cost(data[0]>>5))
		for e := data[2:]; len(e) >= 3; e = e[3:] {
			u, v := int(e[0])%n, int(e[1])%n
			if u != v {
				g.AddEdge(graph.NodeID(u), graph.NodeID(v), graph.Cost(e[2]&7), graph.Cost(e[2]>>3&7))
			}
		}
		if root := int(data[1]); root < n {
			requireSameArborescence(t, "fuzz", g, graph.NodeID(root))
		} else {
			x := graph.Extend(g)
			requireSameArborescence(t, "fuzz, extended", x.Graph, x.Aux)
		}
	})
}
