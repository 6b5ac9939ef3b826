// Package graph implements the version-graph model of Bhattacherjee et
// al. [VLDB'15] as used by Guo et al. (arXiv:2402.11741): a directed graph
// whose vertices are dataset versions carrying a materialization (storage)
// cost and whose edges are deltas carrying a storage cost and a retrieval
// cost.
//
// The package also provides the auxiliary-root extension used by every
// algorithm in the paper, the experiment transforms of Section 7 (random
// compression and Erdős–Rényi delta construction), JSON (de)serialization,
// and structural validation helpers such as the generalized triangle
// inequality check of Section 2.2.
package graph

import (
	"fmt"
	"math"
)

// Cost is the integral cost unit of the model. The paper assumes all
// storage and retrieval costs are natural numbers (Section 2.1: "there is
// usually a smallest unit of cost in the real world").
type Cost = int64

// Infinite is a sentinel cost larger than any achievable retrieval or
// storage cost on a valid instance. It is safe to add two Infinite/2
// values without overflowing int64.
const Infinite Cost = math.MaxInt64 / 4

// NodeID indexes a version in a Graph. Versions are dense integers
// 0..N()-1.
type NodeID = int32

// EdgeID indexes a delta in a Graph. Deltas are dense integers 0..M()-1.
type EdgeID = int32

// None marks the absence of a node or edge reference.
const None int32 = -1

// Edge is a delta between two versions. Storing the edge costs Storage;
// once From has been retrieved, To can be retrieved for an additional
// Retrieval cost.
type Edge struct {
	From      NodeID `json:"from"`
	To        NodeID `json:"to"`
	Storage   Cost   `json:"storage"`
	Retrieval Cost   `json:"retrieval"`
}

// Graph is a version graph. The zero value is an empty graph ready to use.
//
// Graphs are append-only: nodes and edges can be added but not removed,
// which lets algorithms hold stable NodeID/EdgeID references. Derived
// structures (adjacency lists) are maintained incrementally.
type Graph struct {
	// Name labels the instance in experiment output (e.g. "datasharing").
	Name string

	nodeStorage []Cost
	edges       []Edge
	out         [][]EdgeID
	in          [][]EdgeID
}

// New returns an empty named graph.
func New(name string) *Graph { return &Graph{Name: name} }

// NewWithNodes returns a named graph with n nodes all having
// materialization cost s.
func NewWithNodes(name string, n int, s Cost) *Graph {
	g := New(name)
	for i := 0; i < n; i++ {
		g.AddNode(s)
	}
	return g
}

// N is the number of versions.
func (g *Graph) N() int { return len(g.nodeStorage) }

// M is the number of deltas.
func (g *Graph) M() int { return len(g.edges) }

// AddNode appends a version with materialization cost s and returns its id.
func (g *Graph) AddNode(s Cost) NodeID {
	if s < 0 {
		panic("graph: negative node storage cost")
	}
	g.nodeStorage = append(g.nodeStorage, s)
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	return NodeID(len(g.nodeStorage) - 1)
}

// AddEdge appends a delta (u,v) with storage cost s and retrieval cost r
// and returns its id. Self-loops are rejected; parallel edges are allowed
// (they occur naturally when both a natural and an ER delta connect the
// same pair).
func (g *Graph) AddEdge(u, v NodeID, s, r Cost) EdgeID {
	if u == v {
		panic("graph: self-loop delta")
	}
	if u < 0 || int(u) >= g.N() || v < 0 || int(v) >= g.N() {
		panic(fmt.Sprintf("graph: edge (%d,%d) references missing node (n=%d)", u, v, g.N()))
	}
	if s < 0 || r < 0 {
		panic("graph: negative edge cost")
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, Edge{From: u, To: v, Storage: s, Retrieval: r})
	g.out[u] = append(g.out[u], id)
	g.in[v] = append(g.in[v], id)
	return id
}

// AddBiEdge adds the pair of deltas (u,v) and (v,u) with identical costs
// and returns both ids. Natural version graphs built from parent/child
// commits use bidirectional deltas (Section 7.1).
func (g *Graph) AddBiEdge(u, v NodeID, s, r Cost) (EdgeID, EdgeID) {
	return g.AddEdge(u, v, s, r), g.AddEdge(v, u, s, r)
}

// Edge returns the delta with the given id.
func (g *Graph) Edge(id EdgeID) Edge { return g.edges[id] }

// Edges returns the delta slice. The caller must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// NodeStorage returns the materialization cost of v.
func (g *Graph) NodeStorage(v NodeID) Cost { return g.nodeStorage[v] }

// NodeStorages returns the per-node materialization costs. The caller must
// not modify the slice.
func (g *Graph) NodeStorages() []Cost { return g.nodeStorage }

// SetNodeStorage overwrites the materialization cost of v.
func (g *Graph) SetNodeStorage(v NodeID, s Cost) {
	if s < 0 {
		panic("graph: negative node storage cost")
	}
	g.nodeStorage[v] = s
}

// SetEdgeCosts overwrites the costs of edge id.
func (g *Graph) SetEdgeCosts(id EdgeID, s, r Cost) {
	if s < 0 || r < 0 {
		panic("graph: negative edge cost")
	}
	g.edges[id].Storage = s
	g.edges[id].Retrieval = r
}

// Out returns the ids of edges leaving v. The caller must not modify it.
func (g *Graph) Out(v NodeID) []EdgeID { return g.out[v] }

// In returns the ids of edges entering v. The caller must not modify it.
func (g *Graph) In(v NodeID) []EdgeID { return g.in[v] }

// Clone returns a deep copy of g.
func (g *Graph) Clone() *Graph {
	c := &Graph{
		Name:        g.Name,
		nodeStorage: append([]Cost(nil), g.nodeStorage...),
		edges:       append([]Edge(nil), g.edges...),
		out:         make([][]EdgeID, len(g.out)),
		in:          make([][]EdgeID, len(g.in)),
	}
	for i := range g.out {
		c.out[i] = append([]EdgeID(nil), g.out[i]...)
	}
	for i := range g.in {
		c.in[i] = append([]EdgeID(nil), g.in[i]...)
	}
	return c
}

// TotalNodeStorage is the storage cost of materializing every version
// (option (ii) of Figure 1), an upper bound for any sensible storage
// constraint.
func (g *Graph) TotalNodeStorage() Cost {
	var t Cost
	for _, s := range g.nodeStorage {
		t += s
	}
	return t
}

// MaxEdgeRetrieval returns max_e r_e (r_max in the paper), or 0 on an
// edgeless graph.
func (g *Graph) MaxEdgeRetrieval() Cost {
	var m Cost
	for _, e := range g.edges {
		if e.Retrieval > m {
			m = e.Retrieval
		}
	}
	return m
}

// Stats summarizes an instance in the shape of Table 4.
type Stats struct {
	Name         string
	Nodes        int
	Edges        int
	AvgNodeCost  Cost // average materialization cost s_v
	AvgEdgeCost  Cost // average delta storage cost s_e
	AvgRetrieval Cost // average delta retrieval cost r_e
}

// Stats computes the Table 4 summary of g.
func (g *Graph) Stats() Stats {
	st := Stats{Name: g.Name, Nodes: g.N(), Edges: g.M()}
	if st.Nodes > 0 {
		st.AvgNodeCost = g.TotalNodeStorage() / Cost(st.Nodes)
	}
	if st.Edges > 0 {
		var s, r Cost
		for _, e := range g.edges {
			s += e.Storage
			r += e.Retrieval
		}
		st.AvgEdgeCost = s / Cost(st.Edges)
		st.AvgRetrieval = r / Cost(st.Edges)
	}
	return st
}

// Validate checks internal consistency: adjacency lists match the edge
// slice, every cost is non-negative, and every node is coverable (either
// materializable or reachable — with at least one in-edge — so that some
// feasible plan exists).
func (g *Graph) Validate() error {
	for v := 0; v < g.N(); v++ {
		if g.nodeStorage[v] < 0 {
			return fmt.Errorf("graph %q: node %d has negative storage", g.Name, v)
		}
	}
	var outCount, inCount int
	for v := 0; v < g.N(); v++ {
		outCount += len(g.out[v])
		inCount += len(g.in[v])
		for _, id := range g.out[v] {
			if g.edges[id].From != NodeID(v) {
				return fmt.Errorf("graph %q: out-list of %d holds edge %d from %d", g.Name, v, id, g.edges[id].From)
			}
		}
		for _, id := range g.in[v] {
			if g.edges[id].To != NodeID(v) {
				return fmt.Errorf("graph %q: in-list of %d holds edge %d to %d", g.Name, v, id, g.edges[id].To)
			}
		}
	}
	if outCount != g.M() || inCount != g.M() {
		return fmt.Errorf("graph %q: adjacency covers %d/%d edges, want %d", g.Name, outCount, inCount, g.M())
	}
	for i, e := range g.edges {
		if e.From == e.To {
			return fmt.Errorf("graph %q: edge %d is a self-loop", g.Name, i)
		}
		if e.Storage < 0 || e.Retrieval < 0 {
			return fmt.Errorf("graph %q: edge %d has negative cost", g.Name, i)
		}
	}
	return nil
}

// GeneralizedTriangleViolations counts violations of the generalized
// triangle inequality of Section 2.2: s_u + s_{u,v} ≥ s_v for every delta
// (u,v), and r_{u,w} + r_{w,v} ≥ r_{u,v} for every composable delta pair.
// It runs in O(Σ_w indeg(w)·outdeg(w)) and is intended for tests and
// instance diagnostics, not hot paths.
func (g *Graph) GeneralizedTriangleViolations() int {
	violations := 0
	for _, e := range g.edges {
		if g.nodeStorage[e.From]+e.Storage < g.nodeStorage[e.To] {
			violations++
		}
	}
	// Direct deltas must not be beaten by two-hop compositions by more
	// than... they must satisfy r_{u,v} ≤ r_{u,w}+r_{w,v} whenever the
	// direct delta exists.
	type key struct{ u, v NodeID }
	direct := make(map[key]Cost, g.M())
	for _, e := range g.edges {
		k := key{e.From, e.To}
		if r, ok := direct[k]; !ok || e.Retrieval < r {
			direct[k] = e.Retrieval
		}
	}
	for w := NodeID(0); int(w) < g.N(); w++ {
		for _, inID := range g.in[w] {
			for _, outID := range g.out[w] {
				u, v := g.edges[inID].From, g.edges[outID].To
				if u == v {
					continue
				}
				if r, ok := direct[key{u, v}]; ok {
					if g.edges[inID].Retrieval+g.edges[outID].Retrieval < r {
						violations++
					}
				}
			}
		}
	}
	return violations
}
