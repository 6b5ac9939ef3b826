package plan

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/graphalg"
)

// figure1Plan builds the storage graph (iv) of Figure 1: materialize v1
// and v3, store deltas (v1,v2), (v2,v4), (v3,v5).
func figure1PlanIV(g *graph.Graph) *Plan {
	p := New(g)
	p.Materialized[0] = true // v1
	p.Materialized[2] = true // v3
	for id := graph.EdgeID(0); int(id) < g.M(); id++ {
		e := g.Edge(id)
		if (e.From == 0 && e.To == 1) || (e.From == 1 && e.To == 3) || (e.From == 2 && e.To == 4) {
			p.Stored[id] = true
		}
	}
	return p
}

func TestFigure1PlanIV(t *testing.T) {
	g := graph.Figure1()
	p := figure1PlanIV(g)
	c := Evaluate(g, p)
	if !c.Feasible {
		t.Fatal("plan (iv) infeasible")
	}
	// Storage: s(v1)+s(v3) + s(v1,v2)+s(v2,v4)+s(v3,v5)
	want := graph.Cost(10000 + 9700 + 200 + 50 + 200)
	if c.Storage != want {
		t.Fatalf("storage %d want %d", c.Storage, want)
	}
	// Retrievals: v1=0, v2=200, v3=0, v4=600, v5=550.
	r := p.Retrievals(g)
	wantR := []graph.Cost{0, 200, 0, 600, 550}
	for v, x := range wantR {
		if r[v] != x {
			t.Fatalf("R(v%d) = %d want %d", v+1, r[v], x)
		}
	}
	if c.SumRetrieval != 1350 || c.MaxRetrieval != 600 {
		t.Fatalf("sum %d max %d", c.SumRetrieval, c.MaxRetrieval)
	}
	if err := p.Validate(g); err != nil {
		t.Fatal(err)
	}
}

func TestMaterializeAll(t *testing.T) {
	g := graph.Figure1()
	p := MaterializeAll(g)
	c := Evaluate(g, p)
	if c.Storage != g.TotalNodeStorage() || c.SumRetrieval != 0 || c.MaxRetrieval != 0 || !c.Feasible {
		t.Fatalf("materialize-all cost %+v", c)
	}
}

func TestInfeasiblePlan(t *testing.T) {
	g := graph.Figure1()
	p := New(g)
	p.Materialized[0] = true // nothing else stored: v2..v5 unreachable
	c := Evaluate(g, p)
	if c.Feasible {
		t.Fatal("plan with unreachable versions marked feasible")
	}
	if err := p.Validate(g); err == nil {
		t.Fatal("Validate accepted infeasible plan")
	}
	// Shape mismatch.
	if err := New(graph.Chain(3, 1, 1, 1)).Validate(g); err == nil {
		t.Fatal("Validate accepted shape mismatch")
	}
}

func TestEmptyPlanOnEmptyGraph(t *testing.T) {
	g := graph.New("empty")
	c := Evaluate(g, New(g))
	if !c.Feasible || c.Storage != 0 {
		t.Fatalf("empty plan cost %+v", c)
	}
}

func TestFromExtendedTree(t *testing.T) {
	g := graph.Figure1()
	x := graph.Extend(g)
	parents, _, err := graphalg.MinArborescence(x.Graph, x.Aux, graphalg.StorageWeight)
	if err != nil {
		t.Fatal(err)
	}
	p, err := FromExtendedTree(x, parents)
	if err != nil {
		t.Fatal(err)
	}
	c := Evaluate(g, p)
	if c.Storage != 11450 {
		t.Fatalf("min-storage plan storage %d", c.Storage)
	}
	if !c.Feasible {
		t.Fatal("min-storage plan infeasible")
	}
	// Malformed inputs.
	if _, err := FromExtendedTree(x, parents[:2]); err == nil {
		t.Fatal("short parent vector accepted")
	}
	bad := append([]int32(nil), parents...)
	bad[0] = graph.None
	if _, err := FromExtendedTree(x, bad); err == nil {
		t.Fatal("missing parent accepted")
	}
}

func TestFrontier(t *testing.T) {
	f := &Frontier{}
	f.Add(10, 100)
	f.Add(5, 300)
	f.Add(7, 200)
	if f.Points[0].Storage != 5 || f.Points[2].Storage != 10 {
		t.Fatal("frontier not sorted")
	}
}

func TestPlanCloneIndependence(t *testing.T) {
	g := graph.Figure1()
	p := figure1PlanIV(g)
	c := p.Clone()
	c.Materialized[4] = true
	c.Stored[0] = false
	if p.Materialized[4] || !p.Stored[0] {
		t.Fatal("clone mutation leaked")
	}
}
