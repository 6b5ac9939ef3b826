package treewidth

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/repogen"
)

func decomposeBoth(t *testing.T, g *graph.Graph) []*Decomposition {
	t.Helper()
	var out []*Decomposition
	for _, h := range []Heuristic{MinDegree, MinFill} {
		d := Decompose(g, h)
		if err := d.Validate(g); err != nil {
			t.Fatalf("heuristic %d: %v", h, err)
		}
		out = append(out, d)
	}
	return out
}

func TestTreeHasWidthOne(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for it := 0; it < 10; it++ {
		g := graph.RandomBiTree(2+rng.Intn(20), 10, 5, rng)
		for _, d := range decomposeBoth(t, g) {
			if d.Width() != 1 {
				t.Fatalf("tree decomposed with width %d", d.Width())
			}
		}
	}
}

func TestCliqueWidth(t *testing.T) {
	g := graph.NewWithNodes("k5", 5, 1)
	for u := graph.NodeID(0); u < 5; u++ {
		for v := u + 1; v < 5; v++ {
			g.AddBiEdge(u, v, 1, 1)
		}
	}
	for _, d := range decomposeBoth(t, g) {
		if d.Width() != 4 {
			t.Fatalf("K5 width %d, want 4", d.Width())
		}
	}
	if lb := LowerBoundMMD(g); lb != 4 {
		t.Fatalf("K5 MMD bound %d, want 4", lb)
	}
}

func TestCycleWidthTwo(t *testing.T) {
	g := graph.NewWithNodes("c8", 8, 1)
	for i := 0; i < 8; i++ {
		g.AddBiEdge(graph.NodeID(i), graph.NodeID((i+1)%8), 1, 1)
	}
	for _, d := range decomposeBoth(t, g) {
		if d.Width() != 2 {
			t.Fatalf("cycle width %d, want 2", d.Width())
		}
	}
	if lb := LowerBoundMMD(g); lb != 2 {
		t.Fatalf("cycle MMD bound %d, want 2", lb)
	}
}

func TestLowerBoundNeverExceedsHeuristicWidth(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 25; it++ {
		g := graph.Random(graph.RandomOptions{Nodes: 2 + rng.Intn(15), ExtraEdges: rng.Intn(20), Bidirected: true}, rng)
		lb := LowerBoundMMD(g)
		for _, d := range decomposeBoth(t, g) {
			if lb > d.Width() {
				t.Fatalf("it %d: lower bound %d > heuristic width %d", it, lb, d.Width())
			}
		}
	}
}

func TestDatasetTreewidthsAreLow(t *testing.T) {
	// Footnote 7: version graphs in practice have low treewidth. The
	// synthetic datasets must preserve that property.
	if testing.Short() {
		t.Skip("dataset generation in -short mode")
	}
	for _, name := range []string{"datasharing", "styleguide"} {
		g, err := repogen.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		d := Decompose(g, MinDegree)
		if err := d.Validate(g); err != nil {
			t.Fatal(err)
		}
		if d.Width() > 8 {
			t.Fatalf("%s: width %d, expected low treewidth", name, d.Width())
		}
	}
}

func TestNiceOnSingleNodeAndEmpty(t *testing.T) {
	one := graph.NewWithNodes("one", 1, 1)
	d := Decompose(one, MinFill)
	if err := d.Validate(one); err != nil {
		t.Fatal(err)
	}
	empty := graph.New("empty")
	de := Decompose(empty, MinDegree)
	if err := de.Validate(empty); err != nil {
		t.Fatal(err)
	}
}

func TestDisconnectedGraph(t *testing.T) {
	g := graph.NewWithNodes("d", 6, 1)
	g.AddBiEdge(0, 1, 1, 1)
	g.AddBiEdge(2, 3, 1, 1)
	g.AddBiEdge(4, 5, 1, 1)
	d := Decompose(g, MinDegree)
	if err := d.Validate(g); err != nil {
		t.Fatal(err)
	}
	if d.Width() != 1 {
		t.Fatalf("forest width %d", d.Width())
	}
}
