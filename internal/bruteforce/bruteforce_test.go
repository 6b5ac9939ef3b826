package bruteforce

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

func TestEnumerateCount(t *testing.T) {
	// Chain of 3: extended in-degrees are (1, 2, 2) → 4 assignments, of
	// which all are acyclic (the chain is a DAG).
	g := graph.Chain(3, 10, 1, 1)
	count := 0
	if err := Enumerate(g, 0, func(a Assignment) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 4 {
		t.Fatalf("chain-3 assignments = %d, want 4", count)
	}
	// Bidirectional pair: in-degrees (2,2) → 4 assignments, one of which
	// (mutual retrieval) is cyclic → 3 visited.
	b := graph.NewWithNodes("b", 2, 10)
	b.AddBiEdge(0, 1, 1, 1)
	count = 0
	if err := Enumerate(b, 0, func(a Assignment) { count++ }); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Fatalf("bi-pair acyclic assignments = %d, want 3", count)
	}
}

func TestEnumerateTooLarge(t *testing.T) {
	g := graph.Random(graph.RandomOptions{Nodes: 12, ExtraEdges: 40, Bidirected: true}, rand.New(rand.NewSource(1)))
	err := Enumerate(g, 1000, func(a Assignment) {})
	if !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestEnumerateCostsMatchPlanEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 10; it++ {
		g := graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(5), ExtraEdges: rng.Intn(5), Bidirected: true}, rng)
		x := graph.Extend(g)
		checked := 0
		err := Enumerate(g, 0, func(a Assignment) {
			if checked >= 50 {
				return
			}
			checked++
			p, err := plan.FromExtendedTree(x, a.ParentEdge)
			if err != nil {
				t.Fatalf("it %d: %v", it, err)
			}
			c := plan.Evaluate(g, p)
			if !c.Feasible {
				t.Fatalf("it %d: enumerated assignment infeasible", it)
			}
			if c.Storage != a.Storage || c.SumRetrieval > a.SumR || c.MaxRetrieval > a.MaxR {
				t.Fatalf("it %d: enumerate (%d,%d,%d) vs plan (%d,%d,%d)",
					it, a.Storage, a.SumR, a.MaxR, c.Storage, c.SumRetrieval, c.MaxRetrieval)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestSolveMSRFigure1(t *testing.T) {
	g := graph.Figure1()
	// With a generous budget covering plan (iv) of Figure 1 but not
	// materializing more, the optimum is at least as good as plan (iv)'s
	// total retrieval of 1350.
	res, err := SolveMSR(g, 20150, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.SumRetrieval > 1350 {
		t.Fatalf("MSR optimum %d, plan (iv) achieves 1350", res.Cost.SumRetrieval)
	}
	if res.Cost.Storage > 20150 {
		t.Fatalf("storage constraint violated: %d", res.Cost.Storage)
	}
	// With unlimited storage the optimum materializes everything.
	res, err = SolveMSR(g, g.TotalNodeStorage(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.SumRetrieval != 0 {
		t.Fatalf("unconstrained MSR should be 0, got %d", res.Cost.SumRetrieval)
	}
}

func TestSolveInfeasible(t *testing.T) {
	g := graph.Figure1()
	if _, err := SolveMSR(g, 1, 0); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
	if _, err := SolveBMR(g, -1, 0); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v", err)
	}
}

func TestSolveBMRMonotone(t *testing.T) {
	g := graph.Figure1()
	// Storage optimum is non-increasing in the retrieval budget.
	prev := graph.Infinite
	for _, r := range []graph.Cost{0, 500, 1000, 3000, 10000} {
		res, err := SolveBMR(g, r, 0)
		if err != nil {
			t.Fatalf("R=%d: %v", r, err)
		}
		if res.Cost.MaxRetrieval > r {
			t.Fatalf("R=%d: constraint violated (%d)", r, res.Cost.MaxRetrieval)
		}
		if res.Cost.Storage > prev {
			t.Fatalf("R=%d: storage %d increased above %d", r, res.Cost.Storage, prev)
		}
		prev = res.Cost.Storage
	}
	// R=0 forces materializing everything.
	res, _ := SolveBMR(g, 0, 0)
	if res.Cost.Storage != g.TotalNodeStorage() {
		t.Fatalf("BMR(0) storage %d, want %d", res.Cost.Storage, g.TotalNodeStorage())
	}
}

func TestSolveBSRAndMMRConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for it := 0; it < 10; it++ {
		g := graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(4), ExtraEdges: rng.Intn(4), Bidirected: true}, rng)
		// Lemma 7 duality: if MMR(S) = R*, then BMR(R*) has storage ≤ S.
		s := g.TotalNodeStorage() / 2
		mmr, err := SolveMMR(g, s, 0)
		if err != nil {
			if errors.Is(err, core.ErrInfeasible) {
				continue
			}
			t.Fatal(err)
		}
		bmr, err := SolveBMR(g, mmr.Cost.MaxRetrieval, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bmr.Cost.Storage > s {
			t.Fatalf("it %d: BMR(%d) storage %d > S=%d", it, mmr.Cost.MaxRetrieval, bmr.Cost.Storage, s)
		}
		// Same duality for sum variants.
		msr, err := SolveMSR(g, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		bsr, err := SolveBSR(g, msr.Cost.SumRetrieval, 0)
		if err != nil {
			t.Fatal(err)
		}
		if bsr.Cost.Storage > s {
			t.Fatalf("it %d: BSR storage %d > S=%d", it, bsr.Cost.Storage, s)
		}
	}
}

func TestFrontiers(t *testing.T) {
	g := graph.Figure1()
	sf, err := SumFrontier(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sf.Points) == 0 {
		t.Fatal("empty sum frontier")
	}
	// Strictly improving objective along increasing storage.
	for i := 1; i < len(sf.Points); i++ {
		if sf.Points[i].Objective >= sf.Points[i-1].Objective || sf.Points[i].Storage <= sf.Points[i-1].Storage {
			t.Fatalf("frontier not strictly improving at %d: %+v", i, sf.Points)
		}
	}
	// The cheapest point is the min-storage plan; the best point reaches 0.
	if sf.Points[len(sf.Points)-1].Objective != 0 {
		t.Fatal("frontier should reach zero retrieval")
	}
	mst, err := core.MST(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	if sf.Points[0].Storage != mst.Cost.Storage {
		t.Fatalf("frontier starts at %d, min storage is %d", sf.Points[0].Storage, mst.Cost.Storage)
	}
	mf, err := MaxFrontier(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	if mf.Points[len(mf.Points)-1].Objective != 0 {
		t.Fatal("max frontier should reach zero retrieval")
	}
}
