package dptree

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/repogen"
)

func TestBMRExactOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for it := 0; it < 40; it++ {
		g := graph.RandomBiTree(2+rng.Intn(6), 60, 12, rng)
		bt, err := FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		maxR := g.MaxEdgeRetrieval() * graph.Cost(g.N())
		for _, r := range []graph.Cost{0, maxR / 3, maxR / 2, maxR} {
			got, err := BMR(context.Background(), bt, r)
			if err != nil {
				t.Fatalf("it %d r=%d: %v", it, r, err)
			}
			want, err := bruteforce.SolveBMR(g, r, 0)
			if err != nil {
				t.Fatalf("it %d r=%d: %v", it, r, err)
			}
			if got.Cost.Storage != want.Cost.Storage {
				t.Fatalf("it %d r=%d: DP-BMR %d, brute force %d", it, r, got.Cost.Storage, want.Cost.Storage)
			}
			if got.Cost.MaxRetrieval > r {
				t.Fatalf("it %d r=%d: constraint violated (%d)", it, r, got.Cost.MaxRetrieval)
			}
		}
	}
}

func TestBMRMonotoneInConstraint(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	g := graph.RandomBiTree(40, 1000, 50, rng)
	bt, err := FromGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	prev := graph.Infinite
	for r := graph.Cost(0); r <= 2000; r += 100 {
		res, err := BMR(context.Background(), bt, r)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.Storage > prev {
			t.Fatalf("r=%d: storage %d > previous %d (DP-BMR must be monotone, §7.3)", r, res.Cost.Storage, prev)
		}
		prev = res.Cost.Storage
	}
}

func TestBMRInfeasibleAndTrivial(t *testing.T) {
	g := graph.RandomBiTree(5, 100, 10, rand.New(rand.NewSource(2)))
	bt, _ := FromGraph(g)
	if _, err := BMR(context.Background(), bt, -1); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	res, err := BMR(context.Background(), bt, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Storage != g.TotalNodeStorage() {
		t.Fatalf("BMR(0) = %d, want materialize-all %d", res.Cost.Storage, g.TotalNodeStorage())
	}
	// Degenerate inputs: the empty graph and a single version.
	if res, err := BMROnGraph(context.Background(), graph.New("empty"), 0); err != nil || !res.Cost.Feasible || res.Cost.Storage != 0 {
		t.Fatalf("empty graph: %+v %v", res.Cost, err)
	}
	one, err := FromGraph(graph.NewWithNodes("one", 1, 3))
	if err != nil {
		t.Fatal(err)
	}
	if res, err := BMR(context.Background(), one, 0); err != nil || res.Cost.Storage != 3 {
		t.Fatalf("single node: %+v %v", res.Cost, err)
	}
}

func TestMSRExactOnRandomTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for it := 0; it < 40; it++ {
		g := graph.RandomBiTree(2+rng.Intn(6), 60, 12, rng)
		bt, err := FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		minStorage := msrMinStorage(t, g)
		total := g.TotalNodeStorage()
		for _, s := range []graph.Cost{minStorage, (minStorage + total) / 2, total} {
			got, err := MSR(context.Background(), bt, s, MSROptions{})
			if err != nil {
				t.Fatalf("it %d s=%d: %v", it, s, err)
			}
			want, err := bruteforce.SolveMSR(g, s, 0)
			if err != nil {
				t.Fatalf("it %d s=%d: %v", it, s, err)
			}
			if got.Cost.SumRetrieval != want.Cost.SumRetrieval {
				t.Fatalf("it %d s=%d: DP-MSR %d, brute force %d", it, s, got.Cost.SumRetrieval, want.Cost.SumRetrieval)
			}
			if got.Cost.Storage > s {
				t.Fatalf("it %d s=%d: storage %d over budget", it, s, got.Cost.Storage)
			}
		}
	}
}

func msrMinStorage(t *testing.T, g *graph.Graph) graph.Cost {
	t.Helper()
	res, err := bruteforce.SolveBMR(g, graph.Infinite/2, 0)
	if err != nil {
		t.Fatal(err)
	}
	return res.Cost.Storage
}

func TestMSRFrontierMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for it := 0; it < 15; it++ {
		g := graph.RandomBiTree(2+rng.Intn(5), 40, 8, rng)
		bt, err := FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		dp, err := MSRFrontier(context.Background(), bt, MSROptions{})
		if err != nil {
			t.Fatal(err)
		}
		got := dp.Frontier()
		want, err := bruteforce.SumFrontier(g, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Points) != len(want.Points) {
			t.Fatalf("it %d: frontier sizes %d vs %d\n got %+v\nwant %+v", it, len(got.Points), len(want.Points), got.Points, want.Points)
		}
		for i := range got.Points {
			if got.Points[i] != want.Points[i] {
				t.Fatalf("it %d point %d: %+v vs %+v", it, i, got.Points[i], want.Points[i])
			}
		}
	}
}

func TestMSRBucketedStaysClose(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	for it := 0; it < 25; it++ {
		n := 2 + rng.Intn(7)
		g := graph.RandomBiTree(n, 80, 15, rng)
		bt, err := FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		s := g.TotalNodeStorage() * 2 / 3
		exact, err := MSR(context.Background(), bt, s, MSROptions{})
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				continue
			}
			t.Fatal(err)
		}
		for _, opt := range []MSROptions{
			{Epsilon: 0.1},
			{Epsilon: 0.1, Geometric: true},
			{Epsilon: 0.5, Geometric: true, MaxStates: 64},
		} {
			approx, err := MSR(context.Background(), bt, s, opt)
			if err != nil {
				t.Fatalf("it %d opts %+v: %v", it, opt, err)
			}
			if approx.Cost.Storage > s {
				t.Fatalf("it %d: budget violated", it)
			}
			if approx.Cost.SumRetrieval < exact.Cost.SumRetrieval {
				t.Fatalf("it %d: approx %d beats exact %d (impossible)",
					it, approx.Cost.SumRetrieval, exact.Cost.SumRetrieval)
			}
			// Generous absolute sanity bound: ε-bucketing may lose, but
			// not more than the theoretical worst case n²·r_max.
			slack := graph.Cost(float64(g.MaxEdgeRetrieval()) * float64(n*n) * opt.Epsilon)
			if approx.Cost.SumRetrieval > exact.Cost.SumRetrieval+slack+1 {
				t.Fatalf("it %d opts %+v: approx %d too far from exact %d",
					it, opt, approx.Cost.SumRetrieval, exact.Cost.SumRetrieval)
			}
		}
	}
}

func TestMSROnGraphHeuristicProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	for it := 0; it < 30; it++ {
		g := graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(5), ExtraEdges: rng.Intn(6), Bidirected: true}, rng)
		s := g.TotalNodeStorage()*2/3 + 1
		res, err := MSROnGraph(context.Background(), g, s, MSROptions{})
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				continue // tree restriction may make the budget infeasible
			}
			t.Fatalf("it %d: %v", it, err)
		}
		if !res.Cost.Feasible || res.Cost.Storage > s {
			t.Fatalf("it %d: bad plan %+v", it, res.Cost)
		}
		opt, err := bruteforce.SolveMSR(g, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.SumRetrieval < opt.Cost.SumRetrieval {
			t.Fatalf("it %d: heuristic %d beats optimum %d", it, res.Cost.SumRetrieval, opt.Cost.SumRetrieval)
		}
	}
}

// TestMSRTable4BudgetsFeasible is ROADMAP item 11's repro: two budgets
// the spanning tree admits but the serving tuning once called infeasible,
// because the state cap kept a node's least-storage states but dropped
// what its ancestors' merges needed of them. 996.ICU is asked for 1.5×
// its min storage and LeetCodeAnimation for exactly its min storage.
func TestMSRTable4BudgetsFeasible(t *testing.T) {
	for _, c := range []struct {
		dataset string
		times   float64
	}{{"996.ICU", 1.5}, {"LeetCodeAnimation", 1}} {
		g, err := repogen.Dataset(c.dataset)
		if err != nil {
			t.Fatal(err)
		}
		s := graph.Cost(c.times * float64(minStorage(t, g)))
		sol, err := MSROnGraph(context.Background(), g, s, DefaultMSROptions())
		if err != nil {
			t.Fatalf("%s at %g× its min storage (%d): %v", c.dataset, c.times, s, err)
		}
		if !sol.Cost.Feasible || sol.Cost.Storage > s {
			t.Fatalf("%s at %g× its min storage (%d): plan %+v", c.dataset, c.times, s, sol.Cost)
		}
		t.Logf("%s at %g×: storage %d of %d, ΣR %d", c.dataset, c.times, sol.Cost.Storage, s, sol.Cost.SumRetrieval)
	}
}

// TestMSRDeadlineInsideMerge runs uncapped DP-MSR on LeetCodeAnimation
// at 1.5× its min storage, whose big merges each offer millions of
// candidates and run for seconds to minutes, so the deadline lands
// inside one. The run must end with the deadline's error within a
// second of it. The test bounds its own wait, since a run that checks
// ctx only between merges does not return for minutes.
func TestMSRDeadlineInsideMerge(t *testing.T) {
	g, err := repogen.Dataset("LeetCodeAnimation")
	if err != nil {
		t.Fatal(err)
	}
	s := graph.Cost(1.5 * float64(minStorage(t, g)))
	const deadline, grace = 1500 * time.Millisecond, time.Second
	ctx, cancel := context.WithTimeout(context.Background(), deadline)
	defer cancel()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := MSROnGraph(ctx, g, s, MSROptions{})
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("err = %v, want context.DeadlineExceeded", err)
		}
		if late := time.Since(start) - deadline; late > grace {
			t.Fatalf("returned %v after its deadline", late)
		}
	case <-time.After(deadline + grace):
		t.Fatalf("still running %v after its deadline", grace)
	}
}

// TestSpanningTreeHoldsMSA pins that FromGraph's tree holds the min-storage
// arborescence of every Table 4 graph: each MSA delta is a tree edge with
// the MSA's own id and direction. So when DP-MSR answers infeasible at
// exactly the MSA's storage, the state cap lost the plan, not the tree.
func TestSpanningTreeHoldsMSA(t *testing.T) {
	for _, spec := range repogen.Table4Specs() {
		g, err := repogen.Dataset(spec.Name)
		if err != nil {
			t.Fatal(err)
		}
		bt, err := FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		msa, err := core.MinStorageOf(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		held := 0
		for v := 0; v < g.N(); v++ {
			id := graph.EdgeID(msa.ParentEdge[v])
			if msa.X.IsAuxEdge(id) {
				continue
			}
			e := g.Edge(id)
			switch {
			case bt.Parent[e.To] == e.From:
				if down, _, _ := bt.DownEdge(e.To); down != id {
					t.Fatalf("%s: MSA delta %d (%d→%d) is not the tree's, which stores %d", spec.Name, id, e.From, e.To, down)
				}
			case bt.Parent[e.From] == e.To:
				if up, _, _ := bt.UpEdge(e.From); up != id {
					t.Fatalf("%s: MSA delta %d (%d→%d) is not the tree's, which stores %d", spec.Name, id, e.From, e.To, up)
				}
			default:
				t.Fatalf("%s: MSA delta %d (%d→%d) joins no tree edge", spec.Name, id, e.From, e.To)
			}
			held++
		}
		t.Logf("%s: all %d MSA deltas are tree edges", spec.Name, held)
	}
}

func TestBMROnGraphHeuristicProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	for it := 0; it < 30; it++ {
		g := graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(5), ExtraEdges: rng.Intn(6), Bidirected: true}, rng)
		maxR := g.MaxEdgeRetrieval() * graph.Cost(g.N())
		for _, r := range []graph.Cost{0, maxR / 2} {
			res, err := BMROnGraph(context.Background(), g, r)
			if err != nil {
				t.Fatalf("it %d: %v", it, err)
			}
			if !res.Cost.Feasible || res.Cost.MaxRetrieval > r {
				t.Fatalf("it %d: bad plan %+v under r=%d", it, res.Cost, r)
			}
			opt, err := bruteforce.SolveBMR(g, r, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cost.Storage < opt.Cost.Storage {
				t.Fatalf("it %d: heuristic storage %d beats optimum %d", it, res.Cost.Storage, opt.Cost.Storage)
			}
		}
	}
}

func TestMSRSingleNodeAndEmpty(t *testing.T) {
	one := graph.NewWithNodes("one", 1, 7)
	bt, err := FromGraph(one)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MSR(context.Background(), bt, 7, MSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.Storage != 7 || res.Cost.SumRetrieval != 0 {
		t.Fatalf("single node %+v", res.Cost)
	}
	if _, err := MSR(context.Background(), bt, 6, MSROptions{}); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	empty := graph.New("empty")
	dp, err := MSRFrontierOnGraph(context.Background(), empty, MSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dp.Best(0); err != nil {
		t.Fatal(err)
	}
}

func TestExtractSpanningTreeFallback(t *testing.T) {
	// A graph where node 0 cannot reach node 2 (directed), but the
	// undirected skeleton is connected: Edmonds from 0 fails, Prim
	// fallback succeeds.
	g := graph.NewWithNodes("f", 3, 10)
	g.AddEdge(0, 1, 1, 1)
	g.AddEdge(2, 1, 1, 1)
	parent, err := ExtractSpanningTree(g)
	if err != nil {
		t.Fatal(err)
	}
	if parent[0] != graph.None {
		t.Fatal("root has parent")
	}
	count := 0
	for _, p := range parent {
		if p == graph.None {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d roots in spanning tree", count)
	}
	// Disconnected graphs get phantom links joining components; the DP
	// then solves each component independently.
	d := graph.NewWithNodes("d", 4, 10)
	d.AddBiEdge(0, 1, 3, 3)
	d.AddBiEdge(2, 3, 3, 3)
	dparent, err := ExtractSpanningTree(d)
	if err != nil {
		t.Fatal(err)
	}
	roots := 0
	for _, p := range dparent {
		if p == graph.None {
			roots++
		}
	}
	if roots != 1 {
		t.Fatalf("%d roots, want 1 (phantom-linked forest)", roots)
	}
	res, err := MSROnGraph(context.Background(), d, 26, MSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Feasible {
		t.Fatal("disconnected MSR plan infeasible")
	}
	if err := res.Plan.Validate(d); err != nil {
		t.Fatal(err)
	}
	// Each component materializes one node and stores one delta.
	if res.Cost.Storage != 10+3+10+3 || res.Cost.SumRetrieval != 6 {
		t.Fatalf("disconnected MSR cost %+v, want storage 26 retrieval 6", res.Cost)
	}
}

func TestSynthesizedEdgeNeverChosen(t *testing.T) {
	// Chain 0→1 with no reverse delta: the bidirectional tree
	// synthesizes 1→0. Retrieving 0 from a materialized 1 would be far
	// cheaper than materializing the expensive node 0, but the delta
	// does not exist, so both DPs must fall back to the only valid plan:
	// materialize 0 and retrieve 1 through the real delta.
	g := graph.New("syn")
	g.AddNode(1_000_000) // node 0: expensive
	g.AddNode(1)         // node 1: cheap
	g.AddEdge(0, 1, 1, 1)
	bt, err := FromParents(g, []graph.NodeID{graph.None, 0})
	if err != nil {
		t.Fatal(err)
	}
	res, err := BMR(context.Background(), bt, 100)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Plan.Materialized[0] || res.Cost.Storage != 1_000_001 {
		t.Fatalf("BMR chose an unrealizable plan: %+v", res.Cost)
	}
	msr, err := MSR(context.Background(), bt, graph.Infinite/2, MSROptions{})
	if err != nil {
		t.Fatal(err)
	}
	if msr.Cost.SumRetrieval != 0 && !msr.Plan.Materialized[0] {
		t.Fatalf("MSR chose an unrealizable plan: %+v", msr.Cost)
	}
	if err := msr.Plan.Validate(g); err != nil {
		t.Fatal(err)
	}
}
