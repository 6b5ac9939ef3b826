// Package plan represents and evaluates storage plans: the output of every
// solver in this repository. A plan materializes a subset of versions and
// stores a subset of deltas; the retrieval cost of each version is the
// shortest stored path from any materialized version (Section 2.1 of the
// paper).
package plan

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/graph"
	"repro/internal/graphalg"
)

// Plan is a storage plan over a version graph: Materialized[v] says the
// version is stored in full; Stored[e] says delta e is stored.
type Plan struct {
	Materialized []bool
	Stored       []bool
}

// New returns an empty plan shaped for g.
func New(g *graph.Graph) *Plan {
	return &Plan{
		Materialized: make([]bool, g.N()),
		Stored:       make([]bool, g.M()),
	}
}

// MaterializeAll returns the plan that stores every version explicitly
// (option (ii) of Figure 1).
func MaterializeAll(g *graph.Graph) *Plan {
	p := New(g)
	for i := range p.Materialized {
		p.Materialized[i] = true
	}
	return p
}

// Clone deep-copies p.
func (p *Plan) Clone() *Plan {
	return &Plan{
		Materialized: append([]bool(nil), p.Materialized...),
		Stored:       append([]bool(nil), p.Stored...),
	}
}

// StorageCost is Σ_{v∈M} s_v + Σ_{e∈F} s_e.
func (p *Plan) StorageCost(g *graph.Graph) graph.Cost {
	var t graph.Cost
	for v, m := range p.Materialized {
		if m {
			t += g.NodeStorage(graph.NodeID(v))
		}
	}
	for e, s := range p.Stored {
		if s {
			t += g.Edge(graph.EdgeID(e)).Storage
		}
	}
	return t
}

// MaterializedNodes lists the materialized versions in increasing id.
func (p *Plan) MaterializedNodes() []graph.NodeID {
	var out []graph.NodeID
	for v, m := range p.Materialized {
		if m {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// StoredEdges lists the stored deltas in increasing id.
func (p *Plan) StoredEdges() []graph.EdgeID {
	var out []graph.EdgeID
	for e, s := range p.Stored {
		if s {
			out = append(out, graph.EdgeID(e))
		}
	}
	return out
}

// Retrievals computes R(v) for every version via multi-source Dijkstra
// from the materialized set over the stored deltas. Unreachable versions
// get graph.Infinite.
func (p *Plan) Retrievals(g *graph.Graph) []graph.Cost {
	dist, _ := graphalg.Dijkstra(g, p.MaterializedNodes(), graphalg.RetrievalWeight,
		func(id graph.EdgeID) bool { return p.Stored[id] })
	return dist
}

// Cost summarizes a plan's quality: the storage, total-retrieval and
// max-retrieval objectives of the paper's Table 1. Its JSON keys are the
// ones every plan report (PlanSummary, the /planz race reports) carries.
type Cost struct {
	Storage      graph.Cost `json:"storage"`
	SumRetrieval graph.Cost `json:"sum_retrieval"`
	MaxRetrieval graph.Cost `json:"max_retrieval"`
	Feasible     bool       `json:"feasible"` // every version retrievable
}

// Evaluate computes the full cost summary of p on g.
func Evaluate(g *graph.Graph, p *Plan) Cost {
	c := Cost{Storage: p.StorageCost(g), Feasible: true}
	for _, r := range p.Retrievals(g) {
		if r >= graph.Infinite {
			c.Feasible = false
			c.SumRetrieval = graph.Infinite
			c.MaxRetrieval = graph.Infinite
			return c
		}
		c.SumRetrieval += r
		if r > c.MaxRetrieval {
			c.MaxRetrieval = r
		}
	}
	return c
}

// Validate checks shape compatibility with g and that every version is
// retrievable.
func (p *Plan) Validate(g *graph.Graph) error {
	if len(p.Materialized) != g.N() || len(p.Stored) != g.M() {
		return fmt.Errorf("plan: shape (%d nodes, %d edges) does not match graph (%d, %d)",
			len(p.Materialized), len(p.Stored), g.N(), g.M())
	}
	for v, r := range p.Retrievals(g) {
		if r >= graph.Infinite {
			return fmt.Errorf("plan: version %d is not retrievable", v)
		}
	}
	return nil
}

// ErrNotExtendedTree reports a parent-edge vector that is not an
// arborescence of the extended graph.
var ErrNotExtendedTree = errors.New("plan: parent edges do not form an extended arborescence")

// FromExtendedTree converts an arborescence of the extended graph
// (parent edge per node, rooted at x.Aux) into a Plan on the base graph:
// auxiliary parent edges become materializations, base parent edges
// become stored deltas. parentEdge may cover either just the base nodes
// or all extended nodes (the auxiliary root's entry is then ignored).
func FromExtendedTree(x *graph.Extended, parentEdge []int32) (*Plan, error) {
	if len(parentEdge) != x.N() && len(parentEdge) != x.Base.N() {
		return nil, ErrNotExtendedTree
	}
	p := New(x.Base)
	for v := 0; v < x.Base.N(); v++ {
		id := parentEdge[v]
		if id == graph.None {
			return nil, ErrNotExtendedTree
		}
		if x.IsAuxEdge(graph.EdgeID(id)) {
			if x.Edge(graph.EdgeID(id)).To != graph.NodeID(v) {
				return nil, ErrNotExtendedTree
			}
			p.Materialized[v] = true
		} else {
			if x.Edge(graph.EdgeID(id)).To != graph.NodeID(v) {
				return nil, ErrNotExtendedTree
			}
			p.Stored[id] = true
		}
	}
	return p, nil
}

// Frontier is a set of (storage, objective) points traced by sweeping a
// constraint; Points are sorted by increasing storage.
type Frontier struct {
	Points []FrontierPoint
}

// FrontierPoint is one sweep sample.
type FrontierPoint struct {
	Storage   graph.Cost
	Objective graph.Cost
}

// Add inserts a point keeping the slice sorted by storage.
func (f *Frontier) Add(storage, objective graph.Cost) {
	f.Points = append(f.Points, FrontierPoint{storage, objective})
	sort.Slice(f.Points, func(i, j int) bool { return f.Points[i].Storage < f.Points[j].Storage })
}
