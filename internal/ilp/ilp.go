package ilp

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Options tunes the branch-and-bound search.
type Options struct {
	// MaxNodes caps the number of branch-and-bound nodes explored.
	// 0 means 200000.
	MaxNodes int
	// Incumbent optionally seeds the search with a known feasible plan
	// (e.g. the LMG-All solution), which tightens pruning from the first
	// node.
	Incumbent *plan.Plan
}

// Result is an exact (or best-found) MSR solution.
type Result struct {
	core.Solution
	// Proven reports whether optimality was proven before hitting
	// MaxNodes.
	Proven bool
	// Nodes is the number of branch-and-bound nodes explored.
	Nodes int
}

const intTol = 1e-5

// SolveMSR solves MinSum Retrieval exactly via the Appendix D integer
// program on the extended version graph:
//
//	min  Σ_e r_e·x_e
//	s.t. x_e ≤ (|V|)·I_e            (indicator)
//	     Σ_e s_e·I_e ≤ S            (storage)
//	     Σ_in(u) x − Σ_out(u) x = 1 ∀u              (sink)
//	     x_e ≥ 0, I_e ∈ {0,1}
//
// x_e counts the versions whose retrieval path uses delta e; I_e decides
// whether e is stored (auxiliary edges encode materialization). Branching
// is on fractional I_e; bounds come from the LP relaxation.
func SolveMSR(g *graph.Graph, s graph.Cost, opt Options) (Result, error) {
	if g.N() == 0 {
		return Result{Solution: core.Solution{Plan: plan.New(g), Cost: plan.Cost{Feasible: true}}, Proven: true}, nil
	}
	x := graph.Extend(g)
	mEdges := x.M()
	nBase := g.N()
	maxNodes := opt.MaxNodes
	if maxNodes <= 0 {
		maxNodes = 200000
	}
	// Scale objective and storage rows for numerical stability.
	rScale := 1.0
	if rm := x.MaxEdgeRetrieval(); rm > 0 {
		rScale = float64(rm)
	}
	sScale := 0.0
	for e := 0; e < mEdges; e++ {
		if c := float64(x.Edge(graph.EdgeID(e)).Storage); c > sScale {
			sScale = c
		}
	}
	if sScale == 0 {
		sScale = 1
	}

	buildLP := func(fixed map[int]float64) *LP {
		l := NewLP(2 * mEdges) // x_e at e, I_e at mEdges+e
		for e := 0; e < mEdges; e++ {
			l.C[e] = float64(x.Edge(graph.EdgeID(e)).Retrieval) / rScale
			// Indicator: x_e − n·I_e ≤ 0.
			l.AddRow(map[int]float64{e: 1, mEdges + e: -float64(nBase)}, LE, 0)
			// I_e ≤ 1.
			l.AddRow(map[int]float64{mEdges + e: 1}, LE, 1)
		}
		// Storage.
		row := map[int]float64{}
		for e := 0; e < mEdges; e++ {
			if c := x.Edge(graph.EdgeID(e)).Storage; c != 0 {
				row[mEdges+e] = float64(c) / sScale
			}
		}
		l.AddRow(row, LE, float64(s)/sScale)
		// Sink constraints.
		for u := 0; u < nBase; u++ {
			row := map[int]float64{}
			for _, id := range x.In(graph.NodeID(u)) {
				row[int(id)] += 1
			}
			for _, id := range x.Out(graph.NodeID(u)) {
				row[int(id)] -= 1
			}
			l.AddRow(row, EQ, 1)
		}
		// Valid inequalities tightening the big-M relaxation:
		// (a) every version needs at least one stored incoming edge;
		for u := 0; u < nBase; u++ {
			row := map[int]float64{}
			for _, id := range x.In(graph.NodeID(u)) {
				row[mEdges+int(id)] = 1
			}
			l.AddRow(row, GE, 1)
		}
		for e, v := range fixed {
			l.AddRow(map[int]float64{mEdges + e: 1}, EQ, v)
		}
		return l
	}

	var (
		best       *plan.Plan
		bestCost   plan.Cost
		bestObj    = graph.Infinite
		nodes      int
		incomplete bool
	)
	if opt.Incumbent != nil {
		c := plan.Evaluate(g, opt.Incumbent)
		if c.Feasible && c.Storage <= s {
			best, bestCost, bestObj = opt.Incumbent.Clone(), c, c.SumRetrieval
		}
	}

	tryIncumbent := func(sol []float64) {
		p := plan.New(g)
		for e := 0; e < mEdges; e++ {
			if sol[mEdges+e] > 0.5 {
				if x.IsAuxEdge(graph.EdgeID(e)) {
					p.Materialized[x.Edge(graph.EdgeID(e)).To] = true
				} else {
					p.Stored[e] = true
				}
			}
		}
		c := plan.Evaluate(g, p)
		if !c.Feasible || c.Storage > s {
			return
		}
		if c.SumRetrieval < bestObj {
			best, bestCost, bestObj = p, c, c.SumRetrieval
		}
	}

	type bbNode struct{ fixed map[int]float64 }
	stack := []bbNode{{fixed: map[int]float64{}}}
	for len(stack) > 0 {
		if nodes >= maxNodes {
			incomplete = true
			break
		}
		nodes++
		nd := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sol, obj, st := buildLP(nd.fixed).Solve()
		if st == Infeasible {
			continue
		}
		if st != Optimal {
			incomplete = true
			continue
		}
		// Integral objective bound: prune when the relaxation cannot
		// beat the incumbent by at least one cost unit.
		lower := obj*rScale - 1e-4
		if graph.Cost(math.Ceil(lower)) >= bestObj {
			continue
		}
		// Branch on the fractional indicator with the largest
		// storage-weighted fractionality: contested expensive deltas
		// decide feasibility fastest.
		branch := -1
		bestScore := 0.0
		for e := 0; e < mEdges; e++ {
			f := sol[mEdges+e]
			frac := math.Min(f-math.Floor(f), math.Ceil(f)-f)
			if frac <= intTol {
				continue
			}
			score := frac * (1 + float64(x.Edge(graph.EdgeID(e)).Storage)/sScale)
			if score > bestScore {
				bestScore = score
				branch = e
			}
		}
		if branch < 0 {
			tryIncumbent(sol)
			continue
		}
		f0 := cloneFixed(nd.fixed)
		f0[branch] = 0
		f1 := cloneFixed(nd.fixed)
		f1[branch] = 1
		// Explore the 1-branch first: storing the contested delta tends
		// to reach feasible incumbents sooner.
		stack = append(stack, bbNode{fixed: f0}, bbNode{fixed: f1})
	}

	if best == nil {
		if incomplete {
			return Result{Nodes: nodes}, fmt.Errorf("ilp: no incumbent within %d nodes", nodes)
		}
		return Result{Nodes: nodes}, core.ErrInfeasible
	}
	return Result{Solution: core.Solution{Plan: best, Cost: bestCost}, Proven: !incomplete, Nodes: nodes}, nil
}

func cloneFixed(m map[int]float64) map[int]float64 {
	c := make(map[int]float64, len(m)+1)
	for k, v := range m {
		c[k] = v
	}
	return c
}
