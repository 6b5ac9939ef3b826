package versioning

// PlanSummary is the machine-readable form of a solved storage plan: the
// materialized set, the kept deltas, and the plan's cost summary. It is
// the shared response type of `dsvsolve -json` and the `dsvd` daemon's
// /plan endpoint, so scripted pipelines can consume either
// interchangeably.
type PlanSummary struct {
	Graph      string `json:"graph"`
	Problem    string `json:"problem"`
	Constraint Cost   `json:"constraint"`
	Winner     string `json:"winner,omitempty"` // portfolio races only
	PlanCost
	Versions     int      `json:"versions"`
	Deltas       int      `json:"deltas"`
	Materialized []NodeID `json:"materialized"`
	StoredDeltas []EdgeID `json:"stored_deltas"`
}

// Summarize renders plan p on g as a PlanSummary for the given problem
// and constraint. The Materialized and StoredDeltas slices are always
// non-nil so the JSON encodes [] rather than null.
func Summarize(g *Graph, p *Plan, problem Problem, constraint Cost) PlanSummary {
	s := PlanSummary{
		Graph:        g.Name,
		Problem:      problem.String(),
		Constraint:   constraint,
		PlanCost:     Evaluate(g, p),
		Versions:     g.N(),
		Deltas:       g.M(),
		Materialized: make([]NodeID, 0, g.N()),
		StoredDeltas: make([]EdgeID, 0, g.M()),
	}
	s.Materialized = append(s.Materialized, p.MaterializedNodes()...)
	s.StoredDeltas = append(s.StoredDeltas, p.StoredEdges()...)
	return s
}
