// Engine-plan invariants: every plan the portfolio engine returns, for
// every problem regime, must satisfy the structural properties of the
// model. Lives in package plan_test because the portfolio engine itself
// imports package plan.
package plan_test

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/portfolio"
)

// checkEnginePlan asserts the invariants of an engine-returned solution:
// every node retrievable, stored deltas forming valid (applicable) paths
// from materialized versions, and Evaluate agreeing with the
// solver-reported cost.
func checkEnginePlan(t *testing.T, g *graph.Graph, sol core.Solution) {
	t.Helper()
	p := sol.Plan
	if err := p.Validate(g); err != nil {
		t.Fatalf("engine plan invalid: %v", err)
	}
	retr := p.Retrievals(g)
	for v, r := range retr {
		if r >= graph.Infinite {
			t.Fatalf("version %d not retrievable", v)
		}
	}
	if len(p.MaterializedNodes()) == 0 && g.N() > 0 {
		t.Fatal("feasible plan with no materialized version")
	}
	// Every stored delta must be applicable: its source version is itself
	// retrievable, so the delta extends a valid path, and the shortest
	// stored path to its target never exceeds path-via-source.
	for _, id := range p.StoredEdges() {
		e := g.Edge(id)
		if retr[e.From] >= graph.Infinite {
			t.Fatalf("stored delta %d hangs off unretrievable version %d", id, e.From)
		}
		if retr[e.To] > retr[e.From]+e.Retrieval {
			t.Fatalf("delta %d: R(%d)=%d exceeds R(%d)+r=%d",
				id, e.To, retr[e.To], e.From, retr[e.From]+e.Retrieval)
		}
	}
	if got := plan.Evaluate(g, p); got != sol.Cost {
		t.Fatalf("Evaluate %+v != solver-reported cost %+v", got, sol.Cost)
	}
}

// TestEnginePlanInvariants runs the portfolio engine over seeded random
// graphs in all four constrained regimes and checks every returned plan.
func TestEnginePlanInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	e := portfolio.New(portfolio.Options{})
	ctx := context.Background()
	for iter := 0; iter < 12; iter++ {
		g := graph.Random(graph.RandomOptions{
			Nodes:      2 + rng.Intn(9),
			ExtraEdges: rng.Intn(8),
			Bidirected: true,
		}, rng)
		mst, err := core.MST(context.Background(), g)
		if err != nil {
			t.Fatal(err)
		}
		minCost, minS := mst.Cost, mst.Cost.Storage
		for _, tc := range []struct {
			problem    core.Problem
			constraint graph.Cost
		}{
			{core.ProblemMSR, minS + graph.Cost(rng.Int63n(g.TotalNodeStorage()-minS+1))},
			{core.ProblemMMR, g.TotalNodeStorage()},
			{core.ProblemBMR, graph.Cost(rng.Int63n(minCost.MaxRetrieval + 1))},
			{core.ProblemBSR, minCost.SumRetrieval},
		} {
			res, err := e.Solve(ctx, g, tc.problem, tc.constraint)
			if err != nil {
				t.Fatalf("iter %d %s: %v", iter, tc.problem, err)
			}
			checkEnginePlan(t, g, res.Solution)
		}
	}
}
