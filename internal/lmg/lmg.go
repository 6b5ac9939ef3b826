// Package lmg implements the Local Move Greedy heuristic of Bhattacherjee
// et al. [VLDB'15] (Algorithm 1 in the paper) and its generalization
// LMG-All (Algorithm 7, Section 6.1) for MinSum Retrieval.
//
// Both heuristics start from the minimum-storage arborescence of the
// extended version graph and greedily apply the move with the best ratio
// ρ = (reduction in total retrieval) / (increase in storage) while the
// storage constraint permits. LMG only considers materializing a version;
// LMG-All considers swapping in any delta (auxiliary or not), which the
// paper shows consistently dominates LMG and, on sparse graphs, is also
// faster.
package lmg

import (
	"context"
	"errors"
	"math/bits"

	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/plan"
)

// ErrInfeasible reports that even the minimum-storage plan exceeds the
// storage constraint.
var ErrInfeasible = errors.New("lmg: storage constraint below minimum storage")

// Result is the outcome of a greedy run.
type Result struct {
	Plan       *plan.Plan
	Cost       plan.Cost
	Iterations int // number of accepted greedy moves
}

// ratioLess reports whether ratio a = an/ad is strictly less than
// b = bn/bd. All numerators/denominators must be positive. Comparison is
// exact via 128-bit products (an·bd < bn·ad) so huge retrieval sums
// cannot overflow.
func ratioLess(an, ad, bn, bd graph.Cost) bool {
	hi1, lo1 := bits.Mul64(uint64(an), uint64(bd))
	hi2, lo2 := bits.Mul64(uint64(bn), uint64(ad))
	if hi1 != hi2 {
		return hi1 < hi2
	}
	return lo1 < lo2
}

// move is a candidate greedy step: give node v the new parent edge id.
type move struct {
	edge graph.EdgeID
	v    graph.NodeID
	// gain = R(T) - R(Te) ≥ 0; costUp = S(Te) - S(T). costUp ≤ 0 means a
	// free move (ratio +∞).
	gain   graph.Cost
	costUp graph.Cost
	valid  bool
}

// better reports whether m beats cur under the greedy ratio order with
// deterministic tie-breaking (smaller edge id wins ties).
func (m move) better(cur move) bool {
	if !m.valid {
		return false
	}
	if !cur.valid {
		return true
	}
	mFree, cFree := m.costUp <= 0, cur.costUp <= 0
	switch {
	case mFree && !cFree:
		return true
	case !mFree && cFree:
		return false
	case mFree && cFree:
		// Both free: larger retrieval gain first, then cheaper storage,
		// then id.
		if m.gain != cur.gain {
			return m.gain > cur.gain
		}
		if m.costUp != cur.costUp {
			return m.costUp < cur.costUp
		}
		return m.edge < cur.edge
	}
	// Both finite positive ratios gain/costUp.
	if ratioLess(cur.gain, cur.costUp, m.gain, m.costUp) {
		return true
	}
	if ratioLess(m.gain, m.costUp, cur.gain, cur.costUp) {
		return false
	}
	return m.edge < cur.edge
}

// initialTree builds the minimum-storage arborescence of the extended
// graph, shared by LMG, LMG-All and the DP tree-extraction heuristics.
func initialTree(x *graph.Extended) (*graphalg.Tree, error) {
	parents, _, err := graphalg.MinArborescence(x.Graph, x.Aux, graphalg.StorageWeight)
	if err != nil {
		return nil, err
	}
	return graphalg.NewTree(x.Graph, x.Aux, parents)
}

// LMG runs Algorithm 1: repeatedly materialize the version with the best
// retrieval-reduction per storage-increase ratio until the storage
// constraint S would be violated or no move improves the solution.
func LMG(g *graph.Graph, s graph.Cost) (Result, error) {
	return LMGContext(context.Background(), g, s)
}

// LMGContext is LMG under ctx: it checks ctx before every move and
// returns ctx's error once ctx is done.
func LMGContext(ctx context.Context, g *graph.Graph, s graph.Cost) (Result, error) {
	x := graph.Extend(g)
	t, err := initialTree(x)
	if err != nil {
		return Result{}, err
	}
	storage := t.StorageCost()
	if storage > s {
		return Result{}, ErrInfeasible
	}
	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		var best move
		for v := graph.NodeID(0); int(v) < g.N(); v++ {
			if t.Parent[v] == x.Aux {
				continue // already materialized
			}
			costUp := g.NodeStorage(v) - x.Edge(graph.EdgeID(t.ParentEdge[v])).Storage
			if storage+costUp > s {
				continue
			}
			gain := graph.Cost(t.SubSize[v]) * t.Retrieval[v]
			if gain <= 0 {
				continue
			}
			m := move{edge: x.AuxEdge(v), v: v, gain: gain, costUp: costUp, valid: true}
			if m.better(best) {
				best = m
			}
		}
		if !best.valid {
			break
		}
		t.Reattach(best.v, best.edge)
		storage += best.costUp
		iterations++
	}
	return finish(x, t, iterations)
}

// LMGAll runs Algorithm 7: like LMG, but every delta swap (u,v) replacing
// v's current parent edge is a candidate move, not just materializations.
// Moves that worsen total retrieval are skipped; moves that reduce (or
// keep) storage while strictly improving the solution are taken eagerly
// (infinite ratio), matching lines 11–12 of Algorithm 7 with a strictness
// guard that guarantees termination.
func LMGAll(g *graph.Graph, s graph.Cost) (Result, error) {
	return LMGAllContext(context.Background(), g, s)
}

// LMGAllContext is LMGAll under ctx: it checks ctx before every move and
// returns ctx's error once ctx is done.
func LMGAllContext(ctx context.Context, g *graph.Graph, s graph.Cost) (Result, error) {
	x := graph.Extend(g)
	t, err := initialTree(x)
	if err != nil {
		return Result{}, err
	}
	storage := t.StorageCost()
	if storage > s {
		return Result{}, ErrInfeasible
	}
	iterations := 0
	for {
		if err := ctx.Err(); err != nil {
			return Result{}, err
		}
		best := scanMoves(x, t, storage, s)
		if !best.valid {
			break
		}
		t.Reattach(best.v, best.edge)
		storage += best.costUp
		iterations++
	}
	return finish(x, t, iterations)
}

// scanMoves evaluates every candidate edge swap, in edge id order, and
// returns the best move. It runs on the caller's goroutine: a race
// already gives each solver its own.
func scanMoves(x *graph.Extended, t *graphalg.Tree, storage, s graph.Cost) move {
	var best move
	for id := 0; id < x.M(); id++ {
		e := x.Edge(graph.EdgeID(id))
		v := e.To
		if int(v) >= x.Base.N() {
			continue // no edges may enter v_aux
		}
		if t.ParentEdge[v] == int32(id) {
			continue // no-op
		}
		// u must not be a descendant of v (would create a cycle).
		if t.IsDescendant(v, e.From) {
			continue
		}
		newR := t.Retrieval[e.From] + e.Retrieval
		gain := graph.Cost(t.SubSize[v]) * (t.Retrieval[v] - newR)
		if gain < 0 {
			continue // line 9-10: retrieval must not worsen
		}
		costUp := e.Storage - x.Edge(graph.EdgeID(t.ParentEdge[v])).Storage
		if storage+costUp > s {
			continue
		}
		if gain == 0 && costUp >= 0 {
			continue // no strict improvement: avoids swap cycles
		}
		c := move{edge: graph.EdgeID(id), v: v, gain: gain, costUp: costUp, valid: true}
		if c.better(best) {
			best = c
		}
	}
	return best
}

func finish(x *graph.Extended, t *graphalg.Tree, iterations int) (Result, error) {
	p, err := plan.FromExtendedTree(x, t.ParentEdge[:x.Base.N()])
	if err != nil {
		return Result{}, err
	}
	return Result{Plan: p, Cost: plan.Evaluate(x.Base, p), Iterations: iterations}, nil
}
