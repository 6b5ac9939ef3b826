package graph

// Extended is a version graph augmented with the auxiliary root v_aux used
// by LMG (Algorithm 1), LMG-All (Algorithm 7) and the brute-force
// oracle: for every version v an edge (v_aux, v) with
// storage cost s_v and retrieval cost 0 represents materializing v, so any
// storage plan corresponds to a spanning arborescence of the extended
// graph rooted at v_aux.
//
// Layout: versions keep their ids 0..n-1, Aux = n. Original deltas keep
// their ids 0..m-1; the auxiliary edge for version v has id m+v.
type Extended struct {
	*Graph
	// Base is the graph the extension was built from.
	Base *Graph
	// Aux is the id of the auxiliary root.
	Aux       NodeID
	baseEdges int
}

// Extend builds the extended version graph of g. g is deep-copied; later
// mutations of g are not reflected.
func Extend(g *Graph) *Extended {
	x := &Extended{Graph: g.Clone(), Base: g, Aux: NodeID(g.N()), baseEdges: g.M()}
	x.Graph.Name = g.Name + "+aux"
	aux := x.Graph.AddNode(0)
	if aux != x.Aux {
		panic("graph: unexpected aux id")
	}
	for v := NodeID(0); int(v) < g.N(); v++ {
		x.Graph.AddEdge(aux, v, g.NodeStorage(v), 0)
	}
	return x
}

// IsAuxEdge reports whether edge id is an auxiliary (materialization)
// edge.
func (x *Extended) IsAuxEdge(id EdgeID) bool { return int(id) >= x.baseEdges }

// AuxEdge returns the id of the auxiliary edge (v_aux, v).
func (x *Extended) AuxEdge(v NodeID) EdgeID {
	if int(v) >= x.Base.N() {
		panic("graph: AuxEdge of non-base node")
	}
	return EdgeID(x.baseEdges) + EdgeID(v)
}
