package lmg

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/plan"
	"repro/internal/repogen"
)

// figure2 builds the adversarial chain of Theorem 1 (Figure 2) with
// ε = b/c: node costs a, b, c; edge (A,B) has both costs (1-ε)b and
// edge (B,C) has both costs (1-ε)c.
func figure2(a, b, c graph.Cost) *graph.Graph {
	g := graph.New("figure2")
	va := g.AddNode(a)
	vb := g.AddNode(b)
	vc := g.AddNode(c)
	ab := b - b*b/c // (1-b/c)·b
	bc := c - b     // (1-b/c)·c
	g.AddEdge(va, vb, ab, ab)
	g.AddEdge(vb, vc, bc, bc)
	return g
}

func TestTheorem1LMGArbitrarilyBad(t *testing.T) {
	// With a = 10^6, b = 100, c = 10^4 (ε = 0.01), any storage constraint
	// in [a+(1-ε)b+c, a+b+c) makes LMG pick option (1) (materialize B)
	// with final retrieval (1-ε)c, while the optimum (materialize C) has
	// retrieval (1-ε)b — a gap of c/b = 100.
	g := figure2(1_000_000, 100, 10_000)
	if g.GeneralizedTriangleViolations() != 0 {
		t.Fatal("adversarial instance must satisfy the triangle inequality")
	}
	s := graph.Cost(1_000_000 + 99 + 10_000)
	res, err := LMG(context.Background(), g, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.SumRetrieval != 9900 {
		t.Fatalf("LMG retrieval = %d, Theorem 1 predicts 9900", res.Cost.SumRetrieval)
	}
	opt, err := bruteforce.SolveMSR(g, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost.SumRetrieval != 99 {
		t.Fatalf("optimum = %d, want 99", opt.Cost.SumRetrieval)
	}
	if res.Cost.SumRetrieval/opt.Cost.SumRetrieval != 100 {
		t.Fatalf("LMG/OPT ratio = %d, want c/b = 100", res.Cost.SumRetrieval/opt.Cost.SumRetrieval)
	}
}

func TestLMGFigure1(t *testing.T) {
	g := graph.Figure1()
	// Generous budget: everything materialized, retrieval 0.
	res, err := LMG(context.Background(), g, g.TotalNodeStorage())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.SumRetrieval != 0 {
		t.Fatalf("unconstrained LMG retrieval %d", res.Cost.SumRetrieval)
	}
	// Infeasible budget.
	if _, err := LMG(context.Background(), g, 100); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want core.ErrInfeasible", err)
	}
	if _, err := LMGAll(context.Background(), g, 100); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want core.ErrInfeasible", err)
	}
}

func randomInstance(rng *rand.Rand) *graph.Graph {
	return graph.Random(graph.RandomOptions{
		Nodes:      2 + rng.Intn(6),
		ExtraEdges: rng.Intn(8),
		Bidirected: rng.Intn(2) == 0,
	}, rng)
}

func TestHeuristicsFeasibleAndAboveOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for it := 0; it < 60; it++ {
		g := randomInstance(rng)
		mst, err := core.MST(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		minCost, minStorage := mst.Cost, mst.Cost.Storage
		// Sweep three budgets between min storage and full
		// materialization.
		total := g.TotalNodeStorage()
		for _, frac := range []graph.Cost{0, 1, 2} {
			s := minStorage + (total-minStorage)*frac/2
			if s < minStorage {
				s = minStorage
			}
			opt, err := bruteforce.SolveMSR(g, s, 0)
			if err != nil {
				t.Fatalf("it %d: %v", it, err)
			}
			for name, run := range map[string]func() (core.Solution, error){
				"LMG":    func() (core.Solution, error) { return LMG(context.Background(), g, s) },
				"LMGAll": func() (core.Solution, error) { return LMGAll(context.Background(), g, s) },
			} {
				res, err := run()
				if err != nil {
					t.Fatalf("it %d %s: %v", it, name, err)
				}
				if !res.Cost.Feasible {
					t.Fatalf("it %d %s: infeasible plan", it, name)
				}
				if res.Cost.Storage > s {
					t.Fatalf("it %d %s: storage %d > budget %d", it, name, res.Cost.Storage, s)
				}
				if res.Cost.SumRetrieval < opt.Cost.SumRetrieval {
					t.Fatalf("it %d %s: retrieval %d beats optimum %d (impossible)",
						it, name, res.Cost.SumRetrieval, opt.Cost.SumRetrieval)
				}
				if res.Cost.SumRetrieval > minCost.SumRetrieval {
					t.Fatalf("it %d %s: retrieval %d worse than the untouched min-storage tree %d",
						it, name, res.Cost.SumRetrieval, minCost.SumRetrieval)
				}
			}
		}
	}
}

func TestLMGAllTerminatesOnZeroCostEdges(t *testing.T) {
	// Zero-retrieval zero-storage deltas invite infinite swap loops; the
	// strictness guard must terminate.
	g := graph.NewWithNodes("z", 4, 10)
	g.AddBiEdge(0, 1, 0, 0)
	g.AddBiEdge(1, 2, 0, 0)
	g.AddBiEdge(2, 3, 0, 0)
	g.AddBiEdge(0, 3, 0, 0)
	res, err := LMGAll(context.Background(), g, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Feasible {
		t.Fatal("infeasible")
	}
	if res.Cost.SumRetrieval != 0 {
		t.Fatalf("retrieval %d", res.Cost.SumRetrieval)
	}
}

func TestRatioLess(t *testing.T) {
	// 3/2 < 2/1; huge values exercise the 128-bit path.
	if !ratioLess(3, 2, 2, 1) {
		t.Fatal("3/2 should be < 2/1")
	}
	if ratioLess(2, 1, 3, 2) {
		t.Fatal("2/1 should not be < 3/2")
	}
	big := graph.Cost(3_000_000_000_000)
	if !ratioLess(big, big+1, big, big) {
		t.Fatal("big/(big+1) should be < big/big")
	}
	if ratioLess(big, big, big, big) {
		t.Fatal("equal ratios are not less")
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.NewWithNodes("one", 1, 42)
	for _, run := range []func() (core.Solution, error){
		func() (core.Solution, error) { return LMG(context.Background(), g, 42) },
		func() (core.Solution, error) { return LMGAll(context.Background(), g, 42) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.Storage != 42 || res.Cost.SumRetrieval != 0 {
			t.Fatalf("single node cost %+v", res.Cost)
		}
	}
}

// --- the reference: LMG and LMG-All as a full scan per move ---
//
// referenceLMG and referenceLMGAll are the heuristics as they were before
// the incremental engine: every move rescans all candidates and
// refreshes the whole tree with a DFS. The engine must make the same
// moves in the same order (TestLMGMovesMatchReference,
// FuzzLMGAllMatchesReference).

// referenceTree is the tree the reference scans: Reattach recomputes
// retrieval, subtree sizes and Euler intervals from scratch.
type referenceTree struct {
	g          *graph.Graph
	root       graph.NodeID
	parentEdge []int32
	parent     []graph.NodeID
	children   [][]graph.NodeID
	subSize    []int
	tin, tout  []int32
	retrieval  []graph.Cost
}

func newReferenceTree(g *graph.Graph, root graph.NodeID, parentEdge []int32) *referenceTree {
	n := g.N()
	t := &referenceTree{
		g:          g,
		root:       root,
		parentEdge: append([]int32(nil), parentEdge...),
		parent:     make([]graph.NodeID, n),
		children:   make([][]graph.NodeID, n),
		subSize:    make([]int, n),
		tin:        make([]int32, n),
		tout:       make([]int32, n),
		retrieval:  make([]graph.Cost, n),
	}
	for v := 0; v < n; v++ {
		if graph.NodeID(v) == root {
			t.parent[v] = graph.None
			continue
		}
		e := g.Edge(graph.EdgeID(parentEdge[v]))
		t.parent[v] = e.From
		t.children[e.From] = append(t.children[e.From], graph.NodeID(v))
	}
	t.refresh()
	return t
}

func (t *referenceTree) refresh() {
	var order []graph.NodeID
	var clock int32
	type frame struct {
		node graph.NodeID
		next int
	}
	frames := []frame{{t.root, 0}}
	t.tin[t.root] = clock
	clock++
	order = append(order, t.root)
	t.retrieval[t.root] = 0
	for len(frames) > 0 {
		f := &frames[len(frames)-1]
		if f.next < len(t.children[f.node]) {
			c := t.children[f.node][f.next]
			f.next++
			t.tin[c] = clock
			clock++
			order = append(order, c)
			t.retrieval[c] = t.retrieval[f.node] + t.g.Edge(graph.EdgeID(t.parentEdge[c])).Retrieval
			frames = append(frames, frame{c, 0})
			continue
		}
		t.tout[f.node] = clock
		clock++
		frames = frames[:len(frames)-1]
	}
	if len(order) != t.g.N() {
		panic("reference tree is not an arborescence")
	}
	for i := range t.subSize {
		t.subSize[i] = 1
	}
	for i := len(order) - 1; i > 0; i-- {
		v := order[i]
		t.subSize[t.parent[v]] += t.subSize[v]
	}
}

func (t *referenceTree) isDescendant(u, v graph.NodeID) bool {
	return t.tin[u] <= t.tin[v] && t.tout[v] <= t.tout[u]
}

func (t *referenceTree) storageCost() graph.Cost {
	var s graph.Cost
	for _, id := range t.parentEdge {
		if id != graph.None {
			s += t.g.Edge(graph.EdgeID(id)).Storage
		}
	}
	return s
}

func (t *referenceTree) reattach(v graph.NodeID, id graph.EdgeID) {
	e := t.g.Edge(id)
	old := t.parent[v]
	cs := t.children[old]
	for i, c := range cs {
		if c == v {
			t.children[old] = append(cs[:i], cs[i+1:]...)
			break
		}
	}
	t.parent[v] = e.From
	t.parentEdge[v] = int32(id)
	t.children[e.From] = append(t.children[e.From], v)
	t.refresh()
}

// referenceRun is the reference move loop: scan picks the best move of
// each round. It returns the moves made and the final result.
func referenceRun(g *graph.Graph, s graph.Cost, scan func(*graph.Extended, *referenceTree, graph.Cost, graph.Cost) (move, bool)) ([]move, core.Solution, error) {
	x := graph.Extend(g)
	parents, _, err := graphalg.MinArborescence(x.Graph, x.Aux, graphalg.StorageWeight)
	if err != nil {
		return nil, core.Solution{}, err
	}
	t := newReferenceTree(x.Graph, x.Aux, parents)
	storage := t.storageCost()
	if storage > s {
		return nil, core.Solution{}, core.ErrInfeasible
	}
	var moves []move
	for {
		best, ok := scan(x, t, storage, s)
		if !ok {
			break
		}
		t.reattach(best.v, best.edge)
		storage += best.costUp
		moves = append(moves, best)
	}
	p, err := plan.FromExtendedTree(x, t.parentEdge[:g.N()])
	if err != nil {
		return nil, core.Solution{}, err
	}
	return moves, core.Solution{Plan: p, Cost: plan.Evaluate(g, p)}, nil
}

// referenceLMG is Algorithm 1 as a node loop per move.
func referenceLMG(g *graph.Graph, s graph.Cost) ([]move, core.Solution, error) {
	return referenceRun(g, s, func(x *graph.Extended, t *referenceTree, storage, s graph.Cost) (move, bool) {
		var best move
		found := false
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			if t.parent[v] == x.Aux {
				continue // already materialized
			}
			costUp := g.NodeStorage(v) - x.Edge(graph.EdgeID(t.parentEdge[v])).Storage
			if storage+costUp > s {
				continue
			}
			gain := graph.Cost(t.subSize[v]) * t.retrieval[v]
			if gain <= 0 {
				continue
			}
			m := move{edge: x.AuxEdge(v), v: v, gain: gain, costUp: costUp}
			if !found || m.better(best) {
				best, found = m, true
			}
		}
		return best, found
	})
}

// referenceLMGAll is Algorithm 7 as a scan of every edge per move.
func referenceLMGAll(g *graph.Graph, s graph.Cost) ([]move, core.Solution, error) {
	return referenceRun(g, s, func(x *graph.Extended, t *referenceTree, storage, s graph.Cost) (move, bool) {
		var best move
		found := false
		for id := 0; id < x.M(); id++ {
			e := x.Edge(graph.EdgeID(id))
			v := e.To
			if int(v) >= x.Base.N() {
				continue // no edges may enter v_aux
			}
			if t.parentEdge[v] == int32(id) {
				continue // no-op
			}
			// u must not be a descendant of v (would create a cycle).
			if t.isDescendant(v, e.From) {
				continue
			}
			newR := t.retrieval[e.From] + e.Retrieval
			gain := graph.Cost(t.subSize[v]) * (t.retrieval[v] - newR)
			if gain < 0 {
				continue // line 9-10: retrieval must not worsen
			}
			costUp := e.Storage - x.Edge(graph.EdgeID(t.parentEdge[v])).Storage
			if storage+costUp > s {
				continue
			}
			if gain == 0 && costUp >= 0 {
				continue // no strict improvement: avoids swap cycles
			}
			c := move{edge: graph.EdgeID(id), v: v, gain: gain, costUp: costUp}
			if !found || c.better(best) {
				best, found = c, true
			}
		}
		return best, found
	})
}

// engineMoves runs the engine as run does and returns its moves, and
// how many of them lowered storage enough for the cheapest set-aside
// candidate to fit.
func engineMoves(g *graph.Graph, s graph.Cost, all bool) ([]move, int, error) {
	gr, err := start(context.Background(), g, s, all)
	if err != nil {
		return nil, 0, err
	}
	var moves []move
	reoffers := 0
	for {
		m, ok := gr.best()
		if !ok {
			return moves, reoffers, nil
		}
		if a := gr.aside.moves; len(a) > 0 && gr.storage+m.costUp+a[0].costUp <= gr.budget {
			reoffers++
		}
		gr.apply(m)
		moves = append(moves, m)
	}
}

// matchReference checks that LMG and LMG-All make the reference's moves
// on g at budget s, in the same order, and return its result. It
// returns the number of set-aside re-offers LMG-All made.
func matchReference(t testing.TB, name string, g *graph.Graph, s graph.Cost) int {
	t.Helper()
	reoffers := 0
	for _, alg := range []struct {
		name string
		all  bool
		ref  func(*graph.Graph, graph.Cost) ([]move, core.Solution, error)
		run  func(context.Context, *graph.Graph, graph.Cost) (core.Solution, error)
	}{
		{"LMG", false, referenceLMG, LMG},
		{"LMG-All", true, referenceLMGAll, LMGAll},
	} {
		wantMoves, want, wantErr := alg.ref(g, s)
		gotMoves, n, err := engineMoves(g, s, alg.all)
		if alg.all {
			reoffers += n
		}
		if !errors.Is(err, wantErr) {
			t.Fatalf("%s %s s=%d: engine error %v, reference %v", name, alg.name, s, err, wantErr)
		}
		for i := 0; i < len(wantMoves) || i < len(gotMoves); i++ {
			if i >= len(wantMoves) || i >= len(gotMoves) || gotMoves[i] != wantMoves[i] {
				var got, want any = "none", "none"
				if i < len(gotMoves) {
					got = gotMoves[i]
				}
				if i < len(wantMoves) {
					want = wantMoves[i]
				}
				t.Fatalf("%s %s s=%d: move %d is %+v, reference %+v (%d moves against %d)",
					name, alg.name, s, i, got, want, len(gotMoves), len(wantMoves))
			}
		}
		res, err := alg.run(context.Background(), g, s)
		if !errors.Is(err, wantErr) {
			t.Fatalf("%s %s s=%d: error %v, reference %v", name, alg.name, s, err, wantErr)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("%s %s s=%d: result %+v, reference %+v", name, alg.name, s, res.Cost, want.Cost)
		}
	}
	return reoffers
}

// TestLMGMovesMatchReference pins both heuristics move for move to the
// reference on the Table 4 datasets and the Theorem 1 chains, from 1.1×
// to 5× the min-storage arborescence.
func TestLMGMovesMatchReference(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"theorem1":       figure2(1_000_000, 100, 10_000),
		"theorem1-tight": figure2(1_000, 10, 100),
		"theorem1-wide":  figure2(10_000_000, 1_000, 1_000_000),
	}
	for _, name := range []string{"datasharing", "styleguide", "LeetCodeAnimation", "996.ICU"} {
		g, err := repogen.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		graphs[name] = g
	}
	for name, g := range graphs {
		mst, err := core.MST(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		msa := mst.Cost.Storage
		for _, f := range []float64{1.1, 1.5, 2, 3, 5} {
			matchReference(t, name, g, graph.Cost(float64(msa)*f))
		}
	}
	// The Theorem 1 budget, where LMG materializes B.
	matchReference(t, "theorem1", graphs["theorem1"], 1_000_000+99+10_000)
}

// fuzzInstance decodes a small graph and a budget: data[0] picks the
// node count, data[1] the budget from the min-storage arborescence's
// (0) to materializing everything (7), the next bytes each node's
// storage and then, four bytes an edge, from, to, storage and
// retrieval. Costs stay below 16, so zero costs and equal ratios are
// common.
func fuzzInstance(data []byte) (*graph.Graph, graph.Cost) {
	at := func(i int) int {
		if i < len(data) {
			return int(data[i])
		}
		return 0
	}
	n := 2 + at(0)%7
	g := graph.New("fuzz")
	for v := 0; v < n; v++ {
		g.AddNode(graph.Cost(at(2+v) % 16))
	}
	for i := 2 + n; i+3 < len(data) && g.M() < 40; i += 4 {
		u, v := graph.NodeID(at(i)%n), graph.NodeID(at(i+1)%n)
		if u != v {
			g.AddEdge(u, v, graph.Cost(at(i+2)%8), graph.Cost(at(i+3)%8))
		}
	}
	mst, err := core.MST(context.Background(), g)
	if err != nil {
		panic(err)
	}
	msa := mst.Cost.Storage
	return g, msa + (g.TotalNodeStorage()-msa)*graph.Cost(at(1)%8)/7
}

// TestLMGAllSetAsideMatchesReference runs the reference comparison over
// random fuzz instances and checks that some of them made LMG-All offer
// set-aside candidates again after a move lowered storage.
func TestLMGAllSetAsideMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	reoffers := 0
	for it := 0; it < 3000; it++ {
		data := make([]byte, 2+rng.Intn(120))
		rng.Read(data)
		g, s := fuzzInstance(data)
		reoffers += matchReference(t, fmt.Sprintf("it %d (%x)", it, data), g, s)
	}
	if reoffers == 0 {
		t.Fatal("no run offered set-aside candidates again")
	}
	t.Logf("%d set-aside re-offers", reoffers)
}

// FuzzLMGAllMatchesReference compares LMG and LMG-All with the
// reference, move for move, on small graphs with zero-cost edges, equal
// ratios, budgets at the min-storage arborescence and moves that lower
// storage.
func FuzzLMGAllMatchesReference(f *testing.F) {
	f.Add([]byte{3, 0, 5, 5, 5, 5, 5, 0, 1, 0, 0, 1, 2, 0, 0, 2, 3, 0, 0, 3, 4, 0, 0})
	f.Add([]byte{4, 3, 9, 3, 7, 2, 11, 1, 0, 1, 2, 3, 1, 2, 3, 2, 4, 2, 6, 3, 0, 1, 1, 4, 5, 7, 2, 1, 5, 4, 4})
	f.Add([]byte{6, 7, 15, 15, 15, 15, 15, 15, 15, 15, 0, 1, 3, 1, 1, 2, 3, 1, 2, 3, 3, 1, 3, 4, 3, 1, 4, 5, 3, 1, 5, 6, 3, 1, 6, 7, 3, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, s := fuzzInstance(data)
		matchReference(t, "fuzz", g, s)
	})
}
