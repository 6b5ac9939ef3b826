package versioning

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/graph"
)

func TestQuickstartFlow(t *testing.T) {
	g := NewGraph("quick")
	v0 := g.AddNode(1000)
	v1 := g.AddNode(1100)
	v2 := g.AddNode(1050)
	g.AddBiEdge(v0, v1, 50, 60)
	g.AddBiEdge(v1, v2, 40, 45)

	for _, algo := range []Algorithm{Auto, AlgLMG, AlgLMGAll, AlgDPTree} {
		sol, err := SolveMSR(g, 1500, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("algo %d: %v", algo, err)
		}
		if !sol.Cost.Feasible || sol.Cost.Storage > 1500 {
			t.Fatalf("algo %d: bad solution %+v", algo, sol.Cost)
		}
	}
	if _, err := SolveMSR(g, 1, Options{}); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	if _, err := SolveMSR(g, 1500, Options{Algorithm: AlgMP}); err == nil {
		t.Fatal("MP should not solve MSR")
	}
}

func TestBMRAndDerivedProblems(t *testing.T) {
	g := graph.Figure1()
	for _, algo := range []Algorithm{Auto, AlgMP, AlgDPTree} {
		sol, err := SolveBMR(g, 600, Options{Algorithm: algo})
		if err != nil {
			t.Fatalf("algo %d: %v", algo, err)
		}
		if sol.Cost.MaxRetrieval > 600 {
			t.Fatalf("algo %d: constraint violated", algo)
		}
	}
	mmr, err := SolveMMR(g, 25000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if mmr.Cost.Storage > 25000 {
		t.Fatal("MMR storage over budget")
	}
	bsr, err := SolveBSR(g, 5000, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if bsr.Cost.SumRetrieval > 5000 {
		t.Fatal("BSR retrieval over budget")
	}
}

func TestBaselinesAndFrontier(t *testing.T) {
	g := graph.Figure1()
	mst, err := MinStoragePlan(g)
	if err != nil || mst.Cost.Storage != 11450 {
		t.Fatalf("MST: %+v %v", mst.Cost, err)
	}
	spt, err := ShortestPathPlan(g, 0)
	if err != nil || !spt.Cost.Feasible {
		t.Fatalf("SPT: %+v %v", spt.Cost, err)
	}
	pts, err := MSRFrontier(g)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 2 {
		t.Fatalf("frontier too small: %v", pts)
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Objective >= pts[i-1].Objective {
			t.Fatal("frontier not improving")
		}
	}
}

func TestDatasetAndRepoRoundTrip(t *testing.T) {
	g, err := Dataset("datasharing")
	if err != nil || g.N() != 29 {
		t.Fatalf("dataset: %v %v", g, err)
	}
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadGraph(&buf)
	if err != nil || back.N() != 29 {
		t.Fatalf("round trip: %v", err)
	}
	repo := GenerateRepo("r", 12, 3)
	sol, err := SolveMSR(repo.Graph, repo.Graph.TotalNodeStorage()/2, Options{})
	if err != nil {
		t.Fatal(err)
	}
	content, err := repo.Checkout(sol.Plan, 11)
	if err != nil {
		t.Fatal(err)
	}
	if len(content) == 0 {
		t.Fatal("empty checkout")
	}
	if Evaluate(repo.Graph, sol.Plan) != sol.Cost {
		t.Fatal("Evaluate mismatch")
	}
}
