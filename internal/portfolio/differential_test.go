package portfolio

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// smallGraph returns a seeded random instance small enough for the
// bruteforce oracle (≤ 9 nodes).
func smallGraph(rng *rand.Rand) *graph.Graph {
	return graph.Random(graph.RandomOptions{
		Nodes:       2 + rng.Intn(7),
		ExtraEdges:  rng.Intn(5),
		Bidirected:  true,
		MaxNodeCost: 400,
		MaxEdgeCost: 60,
	}, rng)
}

// checkReport verifies one solver's outcome against the bruteforce
// optimum: feasible, within the regime's constraint, and never better
// than the exact optimum.
func checkReport(t *testing.T, iter int, problem core.Problem, constraint graph.Cost, rep Report, opt plan.Cost) {
	t.Helper()
	if rep.Err != nil {
		// Heuristics may individually declare infeasibility (e.g. the
		// tree DPs on a budget only non-tree plans meet); that is not a
		// correctness bug. Anything else is.
		if errors.Is(rep.Err, core.ErrInfeasible) {
			return
		}
		t.Fatalf("iter %d %s/%s: %v", iter, problem, rep.Solver, rep.Err)
	}
	if !rep.Cost.Feasible {
		t.Fatalf("iter %d %s/%s: infeasible plan accepted", iter, problem, rep.Solver)
	}
	switch problem {
	case core.ProblemMSR, core.ProblemMMR:
		if rep.Cost.Storage > constraint {
			t.Fatalf("iter %d %s/%s: storage %d > budget %d", iter, problem, rep.Solver, rep.Cost.Storage, constraint)
		}
	case core.ProblemBSR:
		if rep.Cost.SumRetrieval > constraint {
			t.Fatalf("iter %d %s/%s: Σ retrieval %d > bound %d", iter, problem, rep.Solver, rep.Cost.SumRetrieval, constraint)
		}
	case core.ProblemBMR:
		if rep.Cost.MaxRetrieval > constraint {
			t.Fatalf("iter %d %s/%s: max retrieval %d > bound %d", iter, problem, rep.Solver, rep.Cost.MaxRetrieval, constraint)
		}
	}
	if got, want := Objective(problem, rep.Cost), Objective(problem, opt); got < want {
		t.Fatalf("iter %d %s/%s: objective %d beats the exact optimum %d", iter, problem, rep.Solver, got, want)
	}
}

// TestDifferentialMSR cross-checks LMG, LMG-All and DP-MSR against the
// bruteforce MSR optimum on seeded random graphs.
func TestDifferentialMSR(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	e := New(Options{})
	ctx := context.Background()
	for iter := 0; iter < 30; iter++ {
		g := smallGraph(rng)
		mst, err := core.MST(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		minS := mst.Cost.Storage
		span := g.TotalNodeStorage() - minS
		s := minS + graph.Cost(rng.Int63n(span+1))

		opt, err := bruteforce.SolveMSR(g, s, 0)
		if err != nil {
			t.Fatalf("iter %d: oracle: %v", iter, err)
		}
		res, err := e.Solve(ctx, g, core.ProblemMSR, s)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for _, rep := range res.Reports {
			checkReport(t, iter, core.ProblemMSR, s, rep, opt.Cost)
		}
	}
}

// TestDifferentialBMR cross-checks MP and DP-BMR against the bruteforce
// BMR optimum.
func TestDifferentialBMR(t *testing.T) {
	rng := rand.New(rand.NewSource(202))
	e := New(Options{})
	ctx := context.Background()
	for iter := 0; iter < 30; iter++ {
		g := smallGraph(rng)
		mst, err := core.MST(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		maxR := mst.Cost.MaxRetrieval
		r := graph.Cost(rng.Int63n(maxR + 1))

		opt, err := bruteforce.SolveBMR(g, r, 0)
		if err != nil {
			t.Fatalf("iter %d: oracle: %v", iter, err)
		}
		res, err := e.Solve(ctx, g, core.ProblemBMR, r)
		if err != nil {
			t.Fatalf("iter %d: %v", iter, err)
		}
		for _, rep := range res.Reports {
			checkReport(t, iter, core.ProblemBMR, r, rep, opt.Cost)
		}
	}
}

// TestDifferentialMMRAndBSR checks the Lemma 7 lifted portfolios against
// the bruteforce MMR/BSR optima.
func TestDifferentialMMRAndBSR(t *testing.T) {
	rng := rand.New(rand.NewSource(303))
	e := New(Options{})
	ctx := context.Background()
	for iter := 0; iter < 15; iter++ {
		g := smallGraph(rng)
		mst, err := core.MST(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		minS := mst.Cost.Storage
		s := minS + graph.Cost(rng.Int63n(g.TotalNodeStorage()-minS+1))
		optMMR, err := bruteforce.SolveMMR(g, s, 0)
		if err != nil {
			t.Fatalf("iter %d: oracle MMR: %v", iter, err)
		}
		res, err := e.Solve(ctx, g, core.ProblemMMR, s)
		if err != nil {
			t.Fatalf("iter %d: MMR: %v", iter, err)
		}
		for _, rep := range res.Reports {
			checkReport(t, iter, core.ProblemMMR, s, rep, optMMR.Cost)
		}

		bound := optMMR.Cost.SumRetrieval + graph.Cost(rng.Int63n(200))
		optBSR, err := bruteforce.SolveBSR(g, bound, 0)
		if err != nil {
			t.Fatalf("iter %d: oracle BSR: %v", iter, err)
		}
		bres, err := e.Solve(ctx, g, core.ProblemBSR, bound)
		if err != nil {
			t.Fatalf("iter %d: BSR: %v", iter, err)
		}
		for _, rep := range bres.Reports {
			checkReport(t, iter, core.ProblemBSR, bound, rep, optBSR.Cost)
		}
	}
}
