package versioning

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/portfolio"
)

func engineTestGraph() *Graph {
	g := NewGraph("engine-test")
	var ids []NodeID
	for i := 0; i < 8; i++ {
		ids = append(ids, g.AddNode(1000+Cost(i)*37))
	}
	for i := 1; i < 8; i++ {
		g.AddBiEdge(ids[i-1], ids[i], 60+Cost(i), 50+Cost(i)*3)
	}
	g.AddBiEdge(ids[0], ids[4], 90, 40)
	g.AddBiEdge(ids[2], ids[7], 70, 35)
	return g
}

// TestEngineRacesPortfolios checks the public engine races multiple
// solvers for MSR and BMR and that the winning solution matches its own
// evaluation.
func TestEngineRacesPortfolios(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(EngineOptions{})
	ctx := context.Background()

	msr, err := e.Solve(ctx, g, ProblemMSR, g.TotalNodeStorage()/2)
	if err != nil {
		t.Fatal(err)
	}
	bmr, err := e.Solve(ctx, g, ProblemBMR, g.MaxEdgeRetrieval()*2)
	if err != nil {
		t.Fatal(err)
	}
	for name, res := range map[string]PortfolioResult{"MSR": msr, "BMR": bmr} {
		if len(res.Reports) < 2 {
			t.Fatalf("%s: raced %d solvers, want >= 2", name, len(res.Reports))
		}
		if res.Winner == "" {
			t.Fatalf("%s: no winner", name)
		}
		if got := Evaluate(g, res.Solution.Plan); got != res.Solution.Cost {
			t.Fatalf("%s: reported cost %+v != evaluated %+v", name, res.Solution.Cost, got)
		}
	}
}

// TestEngineRacesTheServingLineUp pins the MSR race to the paper's
// serving line-up: LMG, LMG-All and DP-MSR, the only families Member
// resolves for MSR.
func TestEngineRacesTheServingLineUp(t *testing.T) {
	g := engineTestGraph()
	res, err := NewEngine(EngineOptions{SolverTimeout: time.Second}).Solve(context.Background(), g, ProblemMSR, g.TotalNodeStorage()/2)
	if err != nil {
		t.Fatal(err)
	}
	var raced []string
	for _, r := range res.Reports {
		raced = append(raced, r.Solver)
	}
	if want := []string{"LMG", "LMG-All", "DP-MSR"}; !reflect.DeepEqual(raced, want) {
		t.Fatalf("MSR race ran %v, want %v", raced, want)
	}
	if _, err := portfolio.Member(ProblemMSR, "ilp"); err == nil || !strings.Contains(err.Error(), "lmg, lmg-all, dp") {
		t.Fatalf("Member(MSR, ilp) err = %v, want one naming lmg, lmg-all, dp", err)
	}
}

// TestEngineGenericSolve exercises Solve across every Problem constant.
func TestEngineGenericSolve(t *testing.T) {
	g := engineTestGraph()
	e := NewEngine(EngineOptions{})
	ctx := context.Background()
	total := g.TotalNodeStorage()
	for _, tc := range []struct {
		problem    Problem
		constraint Cost
	}{
		{ProblemMST, 0},
		{ProblemSPT, 0},
		{ProblemMSR, total},
		{ProblemMMR, total},
		{ProblemBSR, total * 8},
		{ProblemBMR, g.MaxEdgeRetrieval() * 8},
	} {
		res, err := e.Solve(ctx, g, tc.problem, tc.constraint)
		if err != nil {
			t.Fatalf("%s: %v", tc.problem, err)
		}
		if !res.Solution.Cost.Feasible {
			t.Fatalf("%s: infeasible winner", tc.problem)
		}
	}
}

// TestEngineCancellation checks a dead context aborts a solve up front.
func TestEngineCancellation(t *testing.T) {
	e := NewEngine(EngineOptions{SolverTimeout: time.Second})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Solve(ctx, engineTestGraph(), ProblemMSR, 1<<40); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestEngineInfeasible maps portfolio-wide infeasibility to the public
// sentinel.
func TestEngineInfeasible(t *testing.T) {
	e := NewEngine(EngineOptions{})
	if _, err := e.Solve(context.Background(), engineTestGraph(), ProblemMSR, 1); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

// TestSolveMSRDPTreeMatchesRace checks that the one-shot solver and the
// race's DP-MSR are one DP: SolveMSR(AlgDPTree) and the registry's DP-MSR
// member return the same plan.
func TestSolveMSRDPTreeMatchesRace(t *testing.T) {
	g := GenerateRepo("tuning", 120, 5).Graph
	min, err := MinStoragePlan(g)
	if err != nil {
		t.Fatal(err)
	}
	budget := 2 * min.Cost.Storage
	want, err := SolveMSR(g, budget, Options{Algorithm: AlgDPTree})
	if err != nil {
		t.Fatal(err)
	}
	var got Solution
	for _, s := range portfolio.DefaultRegistry(ProblemMSR) {
		if s.Name == "DP-MSR" {
			if got, err = s.Solve(context.Background(), g, budget); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got.Plan == nil {
		t.Fatal("no DP-MSR solver in the MSR portfolio")
	}
	if got.Cost != want.Cost || !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Fatalf("portfolio DP-MSR cost %+v, SolveMSR(AlgDPTree) %+v", got.Cost, want.Cost)
	}
}
