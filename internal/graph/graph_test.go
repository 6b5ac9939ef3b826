package graph

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestEmptyGraph(t *testing.T) {
	g := New("empty")
	if g.N() != 0 || g.M() != 0 {
		t.Fatalf("empty graph has n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("empty graph invalid: %v", err)
	}
	if g.TotalNodeStorage() != 0 || g.MaxEdgeRetrieval() != 0 {
		t.Fatal("empty graph has nonzero costs")
	}
}

func TestAddNodeEdge(t *testing.T) {
	g := New("t")
	a := g.AddNode(10)
	b := g.AddNode(20)
	e := g.AddEdge(a, b, 3, 4)
	if g.N() != 2 || g.M() != 1 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if got := g.Edge(e); got.From != a || got.To != b || got.Storage != 3 || got.Retrieval != 4 {
		t.Fatalf("edge = %+v", got)
	}
	if len(g.Out(a)) != 1 || len(g.In(b)) != 1 || len(g.Out(b)) != 0 || len(g.In(a)) != 0 {
		t.Fatal("adjacency wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("validate: %v", err)
	}
	if g.TotalNodeStorage() != 30 {
		t.Fatalf("total node storage = %d", g.TotalNodeStorage())
	}
	if g.MaxEdgeRetrieval() != 4 {
		t.Fatalf("max retrieval = %d", g.MaxEdgeRetrieval())
	}
}

func TestAddEdgePanics(t *testing.T) {
	cases := []func(*Graph){
		func(g *Graph) { g.AddEdge(0, 0, 1, 1) }, // self-loop
		func(g *Graph) { g.AddEdge(0, 5, 1, 1) }, // missing node
		func(g *Graph) { g.AddEdge(0, 1, -1, 1) },
		func(g *Graph) { g.AddEdge(0, 1, 1, -1) },
		func(g *Graph) { g.AddNode(-3) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			g := NewWithNodes("t", 2, 1)
			f(g)
		}()
	}
}

func TestBiEdge(t *testing.T) {
	g := NewWithNodes("t", 2, 5)
	e1, e2 := g.AddBiEdge(0, 1, 7, 9)
	if g.Edge(e1).From != 0 || g.Edge(e2).From != 1 {
		t.Fatal("bi-edge directions wrong")
	}
	if g.Edge(e1).Storage != 7 || g.Edge(e2).Retrieval != 9 {
		t.Fatal("bi-edge costs wrong")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Figure1()
	c := g.Clone()
	c.SetNodeStorage(0, 1)
	c.SetEdgeCosts(0, 1, 1)
	c.AddNode(5)
	c.AddEdge(0, 5, 2, 2)
	if g.NodeStorage(0) != 10000 || g.Edge(0).Storage != 200 {
		t.Fatal("clone mutation leaked into original")
	}
	if g.N() != 5 || g.M() != 5 {
		t.Fatal("clone append leaked into original")
	}
	if err := c.Validate(); err != nil {
		t.Fatalf("mutated clone invalid: %v", err)
	}
}

func TestFigure1Shape(t *testing.T) {
	g := Figure1()
	if g.N() != 5 || g.M() != 5 {
		t.Fatalf("figure1: n=%d m=%d", g.N(), g.M())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.AvgNodeCost != (10000+10100+9700+9800+10120)/5 {
		t.Fatalf("avg node cost %d", st.AvgNodeCost)
	}
}

func TestExtend(t *testing.T) {
	g := Figure1()
	x := Extend(g)
	if x.N() != 6 || x.M() != 10 {
		t.Fatalf("extended n=%d m=%d", x.N(), x.M())
	}
	if x.Aux != 5 {
		t.Fatalf("aux = %d", x.Aux)
	}
	for v := NodeID(0); v < 5; v++ {
		id := x.AuxEdge(v)
		if !x.IsAuxEdge(id) {
			t.Fatalf("aux edge %d not flagged", id)
		}
		e := x.Edge(id)
		if e.From != x.Aux || e.To != v || e.Storage != g.NodeStorage(v) || e.Retrieval != 0 {
			t.Fatalf("aux edge for %d = %+v", v, e)
		}
	}
	for id := EdgeID(0); int(id) < g.M(); id++ {
		if x.IsAuxEdge(id) {
			t.Fatalf("base edge %d flagged aux", id)
		}
		if x.Edge(id) != g.Edge(id) {
			t.Fatalf("base edge %d mutated", id)
		}
	}
	// Extension must not mutate the base graph.
	if g.N() != 5 || g.M() != 5 {
		t.Fatal("Extend mutated base")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	g := Figure1()
	var buf bytes.Buffer
	if err := g.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != g.Name || got.N() != g.N() || got.M() != g.M() {
		t.Fatalf("round trip mismatch: %+v", got.Stats())
	}
	for i := 0; i < g.M(); i++ {
		if got.Edge(EdgeID(i)) != g.Edge(EdgeID(i)) {
			t.Fatalf("edge %d mismatch", i)
		}
	}
	for v := 0; v < g.N(); v++ {
		if got.NodeStorage(NodeID(v)) != g.NodeStorage(NodeID(v)) {
			t.Fatalf("node %d mismatch", v)
		}
	}
}

func TestReadRejectsInvalid(t *testing.T) {
	cases := []string{
		`{"name":"x","nodes":[1],"edges":[{"from":0,"to":0,"storage":1,"retrieval":1}]}`,
		`{"name":"x","nodes":[1],"edges":[{"from":0,"to":7,"storage":1,"retrieval":1}]}`,
		`{"name":"x","nodes":[-1],"edges":[]}`,
		`{"name":"x","nodes":[1,1],"edges":[{"from":0,"to":1,"storage":-4,"retrieval":1}]}`,
		`not json`,
	}
	for i, c := range cases {
		if _, err := Read(bytes.NewReader([]byte(c))); err == nil {
			t.Errorf("case %d: accepted invalid input", i)
		}
	}
}

func TestCompress(t *testing.T) {
	g := Figure1()
	rng := rand.New(rand.NewSource(1))
	c := Compress(g, rng)
	if c.N() != g.N() || c.M() != g.M() {
		t.Fatal("compress changed topology")
	}
	for id := EdgeID(0); int(id) < c.M(); id++ {
		orig, comp := g.Edge(id), c.Edge(id)
		if comp.Storage > orig.Storage || comp.Storage <= 0 {
			t.Fatalf("edge %d storage %d -> %d not shrunk", id, orig.Storage, comp.Storage)
		}
		want := orig.Retrieval + (orig.Retrieval+4)/5
		if comp.Retrieval != want {
			t.Fatalf("edge %d retrieval %d -> %d, want %d", id, orig.Retrieval, comp.Retrieval, want)
		}
	}
	for v := NodeID(0); int(v) < c.N(); v++ {
		if c.NodeStorage(v) > g.NodeStorage(v) || c.NodeStorage(v) <= 0 {
			t.Fatalf("node %d storage %d -> %d", v, g.NodeStorage(v), c.NodeStorage(v))
		}
	}
	// Determinism for a fixed seed.
	c2 := Compress(g, rand.New(rand.NewSource(1)))
	for id := EdgeID(0); int(id) < c.M(); id++ {
		if c.Edge(id) != c2.Edge(id) {
			t.Fatal("Compress not deterministic under fixed seed")
		}
	}
}

func TestERDeltas(t *testing.T) {
	g := NewWithNodes("base", 20, 100)
	cost := func(u, v NodeID, rng *rand.Rand) (Cost, Cost) { return 10, 20 }
	full := ERDeltas(g, 1, cost, rand.New(rand.NewSource(7)))
	if full.M() != 20*19 {
		t.Fatalf("complete ER graph has %d edges, want %d", full.M(), 20*19)
	}
	empty := ERDeltas(g, 0, cost, rand.New(rand.NewSource(7)))
	if empty.M() != 0 {
		t.Fatalf("p=0 ER graph has %d edges", empty.M())
	}
	half := ERDeltas(g, 0.5, cost, rand.New(rand.NewSource(7)))
	if half.M()%2 != 0 {
		t.Fatal("ER deltas must come in symmetric pairs")
	}
	if half.M() == 0 || half.M() == full.M() {
		t.Fatalf("p=0.5 ER graph has suspicious edge count %d", half.M())
	}
	if err := half.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestGeneralizedTriangleViolations(t *testing.T) {
	// Figure 2 adversarial chain satisfies the triangle inequality
	// (checked in the paper's proof of Theorem 1).
	g := New("fig2")
	a := g.AddNode(1000000)
	b := g.AddNode(100)
	c := g.AddNode(10000)
	g.AddEdge(a, b, 99, 99) // (1-b/c)*b with b/c = 0.01
	g.AddEdge(b, c, 9900, 9900)
	if v := g.GeneralizedTriangleViolations(); v != 0 {
		t.Fatalf("figure-2 chain has %d violations, want 0", v)
	}
	// A graph violating s_u + s_uv >= s_v.
	h := New("bad")
	x := h.AddNode(1)
	y := h.AddNode(100)
	h.AddEdge(x, y, 1, 1)
	if v := h.GeneralizedTriangleViolations(); v != 1 {
		t.Fatalf("want 1 violation, got %d", v)
	}
	// A two-hop composition cheaper than a direct delta.
	k := NewWithNodes("hop", 3, 1000)
	k.AddEdge(0, 1, 1, 1)
	k.AddEdge(1, 2, 1, 1)
	k.AddEdge(0, 2, 1, 100)
	if v := k.GeneralizedTriangleViolations(); v != 1 {
		t.Fatalf("want 1 hop violation, got %d", v)
	}
}

func TestRandomGraphProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 25; i++ {
		g := Random(RandomOptions{Nodes: 1 + rng.Intn(12), ExtraEdges: rng.Intn(10), Bidirected: i%2 == 0, SingleWeight: i%3 == 0}, rng)
		if err := g.Validate(); err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
		if i%3 == 0 {
			for _, e := range g.Edges() {
				if e.Storage != e.Retrieval {
					t.Fatal("SingleWeight violated")
				}
			}
		}
	}
}

func TestChain(t *testing.T) {
	g := Chain(4, 100, 5, 7)
	if g.N() != 4 || g.M() != 3 {
		t.Fatalf("chain n=%d m=%d", g.N(), g.M())
	}
	for i, e := range g.Edges() {
		if e.From != NodeID(i) || e.To != NodeID(i+1) {
			t.Fatalf("chain edge %d = %+v", i, e)
		}
	}
}

func TestStatsEmptyEdges(t *testing.T) {
	g := NewWithNodes("x", 3, 9)
	st := g.Stats()
	if st.AvgNodeCost != 9 || st.AvgEdgeCost != 0 {
		t.Fatalf("stats %+v", st)
	}
}
