package core_test

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dptree"
	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/plan"
)

func TestProblemStringRoundTrip(t *testing.T) {
	for p := core.ProblemMST; p <= core.ProblemBMR; p++ {
		got, err := core.ParseProblem(p.String())
		if err != nil || got != p {
			t.Fatalf("round trip of %v failed: %v %v", p, got, err)
		}
	}
	if _, err := core.ParseProblem("nope"); err == nil {
		t.Fatal("bogus problem accepted")
	}
	if core.Problem(99).String() == "" {
		t.Fatal("unknown problem should still print")
	}
}

func TestMSTAndSPTOnFigure1(t *testing.T) {
	g := graph.Figure1()
	mst, err := core.MST(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if mst.Cost.Storage != 11450 {
		t.Fatalf("MST storage %d", mst.Cost.Storage)
	}
	spt, err := core.SPT(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !spt.Cost.Feasible {
		t.Fatal("SPT infeasible")
	}
	// SPT minimizes R(v) from v1 for every v: R(v5) = min(200+2500,
	// 3000+550) = 2700.
	r := spt.Plan.Retrievals(g)
	if r[4] != 2700 {
		t.Fatalf("SPT R(v5) = %d, want 2700", r[4])
	}
	// Unreachable root errors.
	h := graph.NewWithNodes("u", 2, 5)
	if _, err := core.SPT(h, 0); err == nil {
		t.Fatal("SPT on disconnected graph should fail")
	}
}

// bruteBMRFunc adapts the brute-force BMR solver to a BoundedFunc.
func bruteBMRFunc(g *graph.Graph) core.BoundedFunc {
	return func(r graph.Cost) (core.Solution, error) { return bruteforce.SolveBMR(g, r, 0) }
}

// TestMinStorageMatchesEdmonds: MST's plan evaluates to the total
// weight of the min-storage arborescence, and keeps every version
// retrievable.
func TestMinStorageMatchesEdmonds(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for it := 0; it < 20; it++ {
		g := graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(10), ExtraEdges: rng.Intn(12), Bidirected: true}, rng)
		x := graph.Extend(g)
		_, total, err := graphalg.MinArborescence(x.Graph, x.Aux, graphalg.StorageWeight)
		if err != nil {
			t.Fatal(err)
		}
		sol, err := core.MST(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		if c := plan.Evaluate(g, sol.Plan); c != sol.Cost || c.Storage != total {
			t.Fatalf("arborescence weighs %d, MST reports %+v, plan evaluates to %+v", total, sol.Cost, c)
		}
		if !sol.Cost.Feasible {
			t.Fatal("min-storage plan infeasible")
		}
	}
}

// TestMinStorageOncePerContext checks that a context from
// WithMinStorage hands every caller for its graph one arborescence,
// computed once, that another graph gets its own, and that MST over it
// is MST over a fresh one.
func TestMinStorageOncePerContext(t *testing.T) {
	g, other := graph.Figure1(), graph.Figure1()
	ctx := core.WithMinStorage(context.Background(), g)
	if core.WithMinStorage(ctx, g) != ctx {
		t.Fatal("WithMinStorage wrapped a context that already carries g's arborescence")
	}
	a, err := core.MinStorageOf(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := core.MinStorageOf(ctx, g); b != a {
		t.Fatal("second MinStorageOf computed a new arborescence")
	}
	if c, _ := core.MinStorageOf(ctx, other); c == a {
		t.Fatal("another graph got g's arborescence")
	}
	if d, _ := core.MinStorageOf(context.Background(), g); d == a {
		t.Fatal("a context without one shared g's arborescence")
	}
	sol, err := core.MST(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	mst, err := core.MST(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Cost != mst.Cost {
		t.Fatalf("MST from the shared arborescence %+v, fresh %+v", sol.Cost, mst.Cost)
	}
}

func TestMMRViaBMRMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for it := 0; it < 25; it++ {
		g := graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(5), ExtraEdges: rng.Intn(5), Bidirected: true}, rng)
		s := g.TotalNodeStorage() * 2 / 3
		want, err := bruteforce.SolveMMR(g, s, 0)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				continue
			}
			t.Fatal(err)
		}
		got, err := core.MMRViaBMR(g, s, bruteBMRFunc(g))
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		if got.Cost.MaxRetrieval != want.Cost.MaxRetrieval {
			t.Fatalf("it %d: MMR via BMR %d, brute force %d", it, got.Cost.MaxRetrieval, want.Cost.MaxRetrieval)
		}
		if got.Cost.Storage > s {
			t.Fatalf("it %d: storage %d over budget %d", it, got.Cost.Storage, s)
		}
	}
}

func TestBSRViaMSRMatchesBruteForceOnTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	for it := 0; it < 20; it++ {
		g := graph.RandomBiTree(2+rng.Intn(5), 50, 10, rng)
		bt, err := dptree.FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		msr := func(s graph.Cost) (core.Solution, error) {
			return dptree.MSR(context.Background(), bt, s, dptree.MSROptions{})
		}
		maxSum := g.MaxEdgeRetrieval() * graph.Cost(g.N()*g.N())
		for _, r := range []graph.Cost{0, maxSum / 4, maxSum} {
			want, err := bruteforce.SolveBSR(g, r, 0)
			if err != nil {
				t.Fatal(err)
			}
			got, err := core.BSRViaMSR(g, r, msr)
			if err != nil {
				t.Fatalf("it %d r=%d: %v", it, r, err)
			}
			if got.Cost.Storage != want.Cost.Storage {
				t.Fatalf("it %d r=%d: BSR via MSR %d, brute force %d", it, r, got.Cost.Storage, want.Cost.Storage)
			}
			if got.Cost.SumRetrieval > r {
				t.Fatalf("it %d: retrieval bound violated", it)
			}
		}
	}
}

func TestMMRInfeasible(t *testing.T) {
	g := graph.Figure1()
	if _, err := core.MMRViaBMR(g, 1, bruteBMRFunc(g)); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

// TestMMRPipelineOnTrees validates the Table 3 "MMR via DP" pipeline end
// to end: binary-searching the exact tree DP-BMR yields the brute-force
// MMR optimum on bidirectional trees.
func TestMMRPipelineOnTrees(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for it := 0; it < 20; it++ {
		g := graph.RandomBiTree(2+rng.Intn(5), 50, 10, rng)
		bt, err := dptree.FromGraph(g)
		if err != nil {
			t.Fatal(err)
		}
		bmr := func(r graph.Cost) (core.Solution, error) { return dptree.BMR(context.Background(), bt, r) }
		s := g.TotalNodeStorage() * 2 / 3
		want, err := bruteforce.SolveMMR(g, s, 0)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				continue
			}
			t.Fatal(err)
		}
		got, err := core.MMRViaBMR(g, s, bmr)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		if got.Cost.MaxRetrieval != want.Cost.MaxRetrieval {
			t.Fatalf("it %d: MMR via tree DP %d, brute force %d", it, got.Cost.MaxRetrieval, want.Cost.MaxRetrieval)
		}
	}
}
