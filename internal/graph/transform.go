package graph

import "math/rand"

// Compress applies the paper's "random compression" transform (Section
// 7.1): every storage cost (node and edge) is scaled by an independent
// uniform factor in [0.3, 1) to simulate compression, and every edge
// retrieval cost is increased by 20% to simulate decompression overhead.
// The result is a new graph whose storage and retrieval weights are no
// longer proportional, exercising the two-weight-function setting.
//
// The transform is deterministic given rng.
func Compress(g *Graph, rng *rand.Rand) *Graph {
	c := g.Clone()
	c.Name = g.Name + "-compressed"
	scale := func(s Cost) Cost {
		f := 0.3 + 0.7*rng.Float64()
		v := Cost(float64(s) * f)
		if s > 0 && v == 0 {
			v = 1
		}
		return v
	}
	for v := NodeID(0); int(v) < c.N(); v++ {
		c.SetNodeStorage(v, scale(c.NodeStorage(v)))
	}
	for id := EdgeID(0); int(id) < c.M(); id++ {
		e := c.Edge(id)
		r := e.Retrieval + (e.Retrieval+4)/5 // ×1.2 rounded up
		c.SetEdgeCosts(id, scale(e.Storage), r)
	}
	return c
}

// ERDeltaCost models the cost of an "unnatural" delta between two
// arbitrary versions u,v for the Erdős–Rényi construction.
type ERDeltaCost func(u, v NodeID, rng *rand.Rand) (storage, retrieval Cost)

// ERDeltas builds the paper's ER construction (Section 7.1): the node set
// (and materialization costs) of g are kept, but instead of the natural
// parent/child deltas, for every unordered pair {u,v} with probability p
// both deltas (u,v) and (v,u) are constructed, and with probability 1-p
// neither is. Costs come from cost; the paper observes unnatural deltas
// are roughly 10× costlier than natural ones on LeetCode.
//
// p = 1 yields the complete bidirectional graph ("LeetCode (complete)").
func ERDeltas(g *Graph, p float64, cost ERDeltaCost, rng *rand.Rand) *Graph {
	out := New(g.Name)
	for v := NodeID(0); int(v) < g.N(); v++ {
		out.AddNode(g.NodeStorage(v))
	}
	for u := NodeID(0); int(u) < g.N(); u++ {
		for v := u + 1; int(v) < g.N(); v++ {
			if p < 1 && rng.Float64() >= p {
				continue
			}
			s1, r1 := cost(u, v, rng)
			out.AddEdge(u, v, s1, r1)
			s2, r2 := cost(v, u, rng)
			out.AddEdge(v, u, s2, r2)
		}
	}
	return out
}
