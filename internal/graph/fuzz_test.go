package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// FuzzJSONRoundTrip fuzzes the JSON codec: any input Read accepts must
// Write back to a form Read re-accepts as a structurally identical graph.
// Seed corpus: testdata/fuzz/FuzzJSONRoundTrip plus the generated seeds
// below. Run with: go test -fuzz=FuzzJSONRoundTrip ./internal/graph
func FuzzJSONRoundTrip(f *testing.F) {
	seed := func(g *Graph) {
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	seed(New("empty"))
	seed(Figure1())
	seed(Chain(6, 100, 7, 9))
	rng := rand.New(rand.NewSource(23))
	seed(Random(RandomOptions{Nodes: 9, ExtraEdges: 6, Bidirected: true}, rng))
	f.Add([]byte(`{"name":"x","nodes":[1,2],"edges":[{"from":0,"to":1,"storage":3,"retrieval":4}]}`))
	f.Add([]byte(`{"nodes":[],"edges":[]}`))
	f.Add([]byte(`{"name":"bad","nodes":[1],"edges":[{"from":0,"to":0}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := Read(bytes.NewReader(data))
		if err != nil {
			return // rejected input: nothing to round-trip
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Read accepted an invalid graph: %v", err)
		}
		var buf bytes.Buffer
		if err := g.Write(&buf); err != nil {
			t.Fatalf("Write failed on an accepted graph: %v", err)
		}
		g2, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("Read rejected Write output: %v", err)
		}
		if g.Name != g2.Name || g.N() != g2.N() || g.M() != g2.M() {
			t.Fatalf("round trip changed shape: %q %d/%d -> %q %d/%d",
				g.Name, g.N(), g.M(), g2.Name, g2.N(), g2.M())
		}
		if !reflect.DeepEqual(g.NodeStorages(), g2.NodeStorages()) {
			t.Fatal("round trip changed node costs")
		}
		if !reflect.DeepEqual(g.Edges(), g2.Edges()) {
			t.Fatal("round trip changed edges")
		}
	})
}
