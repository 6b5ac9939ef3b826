// Package core ties the solvers together: it names the paper's six
// optimization problems (Table 1), provides the easy baselines (minimum
// spanning tree / shortest path tree), and implements the Lemma 7
// binary-search reductions that turn any BMR solver into an MMR solver
// and any MSR solver into a BSR solver (and vice versa).
package core

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/plan"
)

// Problem identifies one of the paper's optimization problems.
type Problem int

// The six problems of Table 1.
const (
	ProblemMST Problem = iota // minimize storage, any finite retrieval
	ProblemSPT                // minimize max retrieval, any finite storage
	ProblemMSR                // min Σ R(v) s.t. storage ≤ S
	ProblemMMR                // min max R(v) s.t. storage ≤ S
	ProblemBSR                // min storage s.t. Σ R(v) ≤ R
	ProblemBMR                // min storage s.t. max R(v) ≤ R
)

// String implements fmt.Stringer.
func (p Problem) String() string {
	switch p {
	case ProblemMST:
		return "MST"
	case ProblemSPT:
		return "SPT"
	case ProblemMSR:
		return "MSR"
	case ProblemMMR:
		return "MMR"
	case ProblemBSR:
		return "BSR"
	case ProblemBMR:
		return "BMR"
	default:
		return fmt.Sprintf("Problem(%d)", int(p))
	}
}

// ParseProblem parses a problem name as printed by String.
func ParseProblem(s string) (Problem, error) {
	for p := ProblemMST; p <= ProblemBMR; p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("core: unknown problem %q", s)
}

// Solution is a solver outcome: every solver package returns one.
type Solution struct {
	Plan *plan.Plan
	Cost plan.Cost
}

// ErrInfeasible reports an unsatisfiable constraint. It is the one
// infeasibility error of every solver package; any other error is a
// failure (a cancelled context, an instance too large, a bug).
var ErrInfeasible = errors.New("core: constraint infeasible")

// MST solves Problem 1: the minimum-storage plan keeping every version
// retrievable. It reads the min-storage arborescence ctx carries for g
// (see WithMinStorage), if any.
func MST(ctx context.Context, g *graph.Graph) (Solution, error) {
	m, err := MinStorageOf(ctx, g)
	if err != nil {
		return Solution{}, err
	}
	p, err := plan.FromExtendedTree(m.X, m.ParentEdge)
	if err != nil {
		return Solution{}, err
	}
	return Solution{Plan: p, Cost: plan.Evaluate(g, p)}, nil
}

// MinStorage is a version graph's minimum-storage arborescence (MSA):
// the minimum spanning arborescence of its extended graph under storage
// weights, rooted at the auxiliary root. It is Problem 1's plan, the
// yardstick of an automatic constraint and the tree LMG and LMG-All
// start from. It is shared, so nothing may write to it.
type MinStorage struct {
	X          *graph.Extended
	ParentEdge []int32 // per node of X; graph.None at X.Aux
}

func newMinStorage(g *graph.Graph) (*MinStorage, error) {
	x := graph.Extend(g)
	parents, _, err := graphalg.MinArborescence(x.Graph, x.Aux, graphalg.StorageWeight)
	if err != nil {
		return nil, err
	}
	return &MinStorage{X: x, ParentEdge: parents}, nil
}

type minStorageKey struct{}

// minStorageOnce is the MSA of one graph, computed on first use.
type minStorageOnce struct {
	g    *graph.Graph
	once sync.Once
	m    *MinStorage
	err  error
}

// WithMinStorage returns ctx carrying g's MSA, computed on the first
// MinStorageOf(ctx, g) and shared by every one after: a plan pass
// computes it once for its automatic constraint and for the race's LMG
// and LMG-All, and a Lemma 7 lift once for all its probes. It lives as
// long as ctx. If ctx already carries g's, WithMinStorage returns ctx.
func WithMinStorage(ctx context.Context, g *graph.Graph) context.Context {
	if h, ok := ctx.Value(minStorageKey{}).(*minStorageOnce); ok && h.g == g {
		return ctx
	}
	return context.WithValue(ctx, minStorageKey{}, &minStorageOnce{g: g})
}

// MinStorageOf returns g's MSA: the one ctx carries for g (see
// WithMinStorage), or else a fresh one.
func MinStorageOf(ctx context.Context, g *graph.Graph) (*MinStorage, error) {
	h, ok := ctx.Value(minStorageKey{}).(*minStorageOnce)
	if !ok || h.g != g {
		return newMinStorage(g)
	}
	h.once.Do(func() { h.m, h.err = newMinStorage(g) })
	return h.m, h.err
}

// SPT solves Problem 2 in its classical form: materialize root and store
// the shortest-retrieval-path tree from it, minimizing every R(v)
// simultaneously among plans with a single materialized version.
func SPT(g *graph.Graph, root graph.NodeID) (Solution, error) {
	dist, parents := graphalg.ShortestPathTree(g, root, graphalg.RetrievalWeight)
	p := plan.New(g)
	p.Materialized[root] = true
	for v := 0; v < g.N(); v++ {
		if graph.NodeID(v) == root {
			continue
		}
		if dist[v] >= graph.Infinite {
			return Solution{}, fmt.Errorf("core: version %d unreachable from root %d", v, root)
		}
		p.Stored[parents[v]] = true
	}
	return Solution{Plan: p, Cost: plan.Evaluate(g, p)}, nil
}

// BoundedFunc solves the bounded twin of a min problem for one value of
// the bound Lemma 7 searches over: BMR for a retrieval bound, MSR for a
// storage budget.
type BoundedFunc func(bound graph.Cost) (Solution, error)

// MMRViaBMR implements Lemma 7: binary-search the smallest max-retrieval
// bound R* whose BMR optimum fits in storage s. With an exact BMR solver
// (whose storage is monotone non-increasing in r) the result is the exact
// MMR optimum; with a heuristic it is a heuristic.
//
// The search space is [0, n·r_max] (any retrieval bound beyond the
// longest possible path is slack).
func MMRViaBMR(g *graph.Graph, s graph.Cost, bmr BoundedFunc) (Solution, error) {
	return smallestBound(graph.Cost(g.N())*g.MaxEdgeRetrieval(), bmr, func(c plan.Cost) bool { return c.Storage <= s })
}

// BSRViaMSR implements the reverse Lemma 7 direction: binary-search the
// smallest storage budget whose MSR optimum meets the total-retrieval
// bound r. With an exact MSR solver the result is the exact BSR optimum.
func BSRViaMSR(g *graph.Graph, r graph.Cost, msr BoundedFunc) (Solution, error) {
	return smallestBound(g.TotalNodeStorage(), msr, func(c plan.Cost) bool { return c.SumRetrieval <= r })
}

// smallestBound is Lemma 7's search: the solution of solve at the
// smallest bound in [0, hi] where it is feasible and fits. A bound at
// which solve reports ErrInfeasible does not fit; hi not fitting makes
// the lifted problem infeasible.
func smallestBound(hi graph.Cost, solve BoundedFunc, fits func(plan.Cost) bool) (Solution, error) {
	try := func(bound graph.Cost) (Solution, bool, error) {
		sol, err := solve(bound)
		if errors.Is(err, ErrInfeasible) {
			return Solution{}, false, nil
		}
		if err != nil {
			return Solution{}, false, err
		}
		return sol, fits(sol.Cost), nil
	}
	best, ok, err := try(hi)
	if err != nil {
		return Solution{}, err
	}
	if !ok {
		return Solution{}, ErrInfeasible
	}
	for lo := graph.Cost(0); lo < hi; {
		mid := lo + (hi-lo)/2
		sol, ok, err := try(mid)
		if err != nil {
			return Solution{}, err
		}
		if ok {
			best, hi = sol, mid
		} else {
			lo = mid + 1
		}
	}
	return best, nil
}
