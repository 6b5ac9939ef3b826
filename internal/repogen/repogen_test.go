package repogen

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lmg"
	"repro/internal/mp"
	"repro/internal/plan"
)

// Table 4 targets: name → (nodes, edges, avg node cost, avg delta cost).
var table4Targets = map[string][4]int64{
	"datasharing":       {29, 74, 7672, 395},
	"styleguide":        {493, 1250, 1_400_000, 8659},
	"996.ICU":           {3189, 9210, 15_000_000, 337_038},
	"LeetCodeAnimation": {246, 628, 170_000_000, 12_000_000},
	"freeCodeCamp":      {31270, 71534, 25_000_000, 14800},
}

func TestTable4Statistics(t *testing.T) {
	for _, spec := range Table4Specs() {
		g := Generate(spec)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		want := table4Targets[spec.Name]
		st := g.Stats()
		if int64(st.Nodes) != want[0] {
			t.Fatalf("%s: %d nodes, want %d", spec.Name, st.Nodes, want[0])
		}
		// Edge counts may fall slightly short when random merge pairs
		// coincide; allow 2%.
		if int64(st.Edges) > want[1] || int64(st.Edges) < want[1]*98/100 {
			t.Fatalf("%s: %d edges, want ≈%d", spec.Name, st.Edges, want[1])
		}
		within := func(got, want int64, tolPct int64) bool {
			lo := want * (100 - tolPct) / 100
			hi := want * (100 + tolPct) / 100
			return got >= lo && got <= hi
		}
		if !within(st.AvgNodeCost, want[2], 10) {
			t.Fatalf("%s: avg node cost %d, want ≈%d", spec.Name, st.AvgNodeCost, want[2])
		}
		if !within(st.AvgEdgeCost, want[3], 10) {
			t.Fatalf("%s: avg delta cost %d, want ≈%d", spec.Name, st.AvgEdgeCost, want[3])
		}
		// Natural graphs are single-weight (simple diff, Section 7.1).
		for _, e := range g.Edges() {
			if e.Storage != e.Retrieval {
				t.Fatalf("%s: natural graph must be single-weight", spec.Name)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	spec := Table4Specs()[0]
	a, b := Generate(spec), Generate(spec)
	if a.M() != b.M() || a.N() != b.N() {
		t.Fatal("non-deterministic topology")
	}
	for i := 0; i < a.M(); i++ {
		if a.Edge(graph.EdgeID(i)) != b.Edge(graph.EdgeID(i)) {
			t.Fatal("non-deterministic costs")
		}
	}
}

func TestDatasetLookup(t *testing.T) {
	g, err := Dataset("datasharing")
	if err != nil || g.N() != 29 {
		t.Fatalf("Dataset(datasharing) = %v, %v", g, err)
	}
	if _, err := Dataset("missing"); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestLeetCodeER(t *testing.T) {
	for _, p := range []float64{0.05, 0.2, 1} {
		g := LeetCodeER(p, 7)
		if g.N() != 246 {
			t.Fatalf("p=%g: %d nodes", p, g.N())
		}
		wantEdges := int(float64(246*245) * p)
		slack := wantEdges / 5
		if p == 1 && g.M() != 246*245 {
			t.Fatalf("complete graph has %d edges", g.M())
		}
		if g.M() < wantEdges-slack || g.M() > wantEdges+slack {
			t.Fatalf("p=%g: %d edges, want ≈%d", p, g.M(), wantEdges)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestGenerateRepoCheckoutMinStorage(t *testing.T) {
	r := GenerateRepo("repo", 40, 99)
	if err := r.Graph.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(r.Deltas) != r.Graph.M() {
		t.Fatalf("%d deltas for %d edges", len(r.Deltas), r.Graph.M())
	}
	mst, err := core.MST(context.Background(), r.Graph)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < r.Graph.N(); v++ {
		got, err := r.Checkout(mst.Plan, v)
		if err != nil {
			t.Fatalf("checkout %d: %v", v, err)
		}
		if !reflect.DeepEqual(got, r.Contents[v]) {
			t.Fatalf("checkout %d produced wrong content", v)
		}
	}
}

func TestGenerateRepoCheckoutUnderSolverPlans(t *testing.T) {
	r := GenerateRepo("repo", 30, 5)
	total := r.Graph.TotalNodeStorage()
	res, err := lmg.LMGAll(context.Background(), r.Graph, total/2)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < r.Graph.N(); v++ {
		got, err := r.Checkout(res.Plan, v)
		if err != nil {
			t.Fatalf("checkout %d: %v", v, err)
		}
		if !reflect.DeepEqual(got, r.Contents[v]) {
			t.Fatalf("LMG-All plan checkout %d wrong", v)
		}
	}
	bres, err := mp.Solve(r.Graph, r.Graph.MaxEdgeRetrieval()*3)
	if err != nil {
		t.Fatal(err)
	}
	for v := graph.NodeID(0); int(v) < r.Graph.N(); v++ {
		got, err := r.Checkout(bres.Plan, v)
		if err != nil {
			t.Fatalf("checkout %d: %v", v, err)
		}
		if !reflect.DeepEqual(got, r.Contents[v]) {
			t.Fatalf("MP plan checkout %d wrong", v)
		}
	}
}

func TestCheckoutFailsWhenUnreachable(t *testing.T) {
	r := GenerateRepo("repo", 5, 3)
	p := plan.New(r.Graph)
	p.Materialized[0] = true
	if _, err := r.Checkout(p, 4); err == nil {
		t.Fatal("unreachable checkout succeeded")
	}
}

func TestJitterBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1000; i++ {
		v := jitter(rng, 1000, 0.3)
		if v < 700 || v > 1300 {
			t.Fatalf("jitter out of bounds: %d", v)
		}
	}
	if jitter(rng, 0, 0.5) != 1 {
		t.Fatal("jitter floor")
	}
}

func TestEmptySpecs(t *testing.T) {
	if g := Generate(Spec{Name: "empty"}); g.N() != 0 {
		t.Fatal("empty spec produced nodes")
	}
	if r := GenerateRepo("empty", 0, 1); r.Graph.N() != 0 {
		t.Fatal("empty repo produced nodes")
	}
}

func TestGenerateRepoParents(t *testing.T) {
	r := GenerateRepo("parents", 60, 21)
	if len(r.Parents) != r.Graph.N() {
		t.Fatalf("Parents covers %d of %d versions", len(r.Parents), r.Graph.N())
	}
	if r.Parents[0] != graph.None {
		t.Fatalf("root parent = %d, want graph.None", r.Parents[0])
	}
	for v := 1; v < r.Graph.N(); v++ {
		p := r.Parents[v]
		if p < 0 || p >= graph.NodeID(v) {
			t.Fatalf("version %d has parent %d outside [0, %d)", v, p, v)
		}
		// The forward delta parent->v must exist so the history can be
		// replayed through versioning.Repository.Commit.
		found := false
		for _, id := range r.Graph.In(graph.NodeID(v)) {
			if r.Graph.Edge(id).From == p {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("no delta %d->%d despite Parents", p, v)
		}
	}
}
