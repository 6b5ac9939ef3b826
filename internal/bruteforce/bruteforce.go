// Package bruteforce provides exact reference solvers for MSR, MMR, BSR
// and BMR on small instances by enumerating every spanning arborescence
// of the extended version graph. An optimal solution of each problem is
// always attained by such an arborescence (every version keeps exactly
// one incoming stored edge — its materialization or the last delta of its
// retrieval path — and dropping anything else only lowers storage).
//
// The enumeration is exponential; it exists as the oracle against which
// every heuristic and DP in this repository is property-tested, and as the
// paper's "OPT" stand-in on toy instances.
package bruteforce

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// DefaultLimit bounds the number of parent assignments Enumerate visits.
const DefaultLimit = 20_000_000

// ErrTooLarge reports that the instance exceeds the enumeration limit.
var ErrTooLarge = errors.New("bruteforce: instance too large to enumerate")

// Assignment describes one candidate solution during enumeration.
type Assignment struct {
	// ParentEdge[v] is the extended-graph edge id retrieving v.
	ParentEdge []int32
	Storage    graph.Cost
	SumR       graph.Cost
	MaxR       graph.Cost
}

// Enumerate visits every spanning arborescence of the extended graph of
// g, reporting its exact costs. The visit callback must not retain the
// assignment's slice. limit ≤ 0 uses DefaultLimit.
func Enumerate(g *graph.Graph, limit int64, visit func(a Assignment)) error {
	x := graph.Extend(g)
	n := g.N()
	if limit <= 0 {
		limit = DefaultLimit
	}
	// Estimate the assignment count to fail fast.
	count := int64(1)
	for v := 0; v < n; v++ {
		count *= int64(len(x.In(graph.NodeID(v))))
		if count > limit || count <= 0 {
			return fmt.Errorf("%w: more than %d assignments", ErrTooLarge, limit)
		}
	}

	choice := make([]int32, n)
	retr := make([]graph.Cost, n)
	state := make([]int8, n) // 0 unknown, 1 in-progress, 2 done (per evaluation)
	evaluate := func() (graph.Cost, graph.Cost, bool) {
		for i := range state {
			state[i] = 0
		}
		var sum, max graph.Cost
		var resolve func(v int) bool
		resolve = func(v int) bool {
			if state[v] == 2 {
				return true
			}
			if state[v] == 1 {
				return false // cycle
			}
			state[v] = 1
			e := x.Edge(graph.EdgeID(choice[v]))
			if e.From == x.Aux {
				retr[v] = e.Retrieval
			} else {
				if !resolve(int(e.From)) {
					return false
				}
				retr[v] = retr[e.From] + e.Retrieval
			}
			state[v] = 2
			return true
		}
		for v := 0; v < n; v++ {
			if !resolve(v) {
				return 0, 0, false
			}
			sum += retr[v]
			if retr[v] > max {
				max = retr[v]
			}
		}
		return sum, max, true
	}

	var rec func(v int, storage graph.Cost)
	rec = func(v int, storage graph.Cost) {
		if v == n {
			sum, max, ok := evaluate()
			if !ok {
				return
			}
			visit(Assignment{ParentEdge: choice, Storage: storage, SumR: sum, MaxR: max})
			return
		}
		for _, id := range x.In(graph.NodeID(v)) {
			choice[v] = int32(id)
			rec(v+1, storage+x.Edge(id).Storage)
		}
	}
	rec(0, 0)
	return nil
}

func solve(g *graph.Graph, limit int64, better func(a Assignment) bool) (core.Solution, error) {
	var bestChoice []int32
	err := Enumerate(g, limit, func(a Assignment) {
		if better(a) {
			bestChoice = append(bestChoice[:0], a.ParentEdge...)
		}
	})
	if err != nil {
		return core.Solution{}, err
	}
	if bestChoice == nil {
		return core.Solution{}, core.ErrInfeasible
	}
	x := graph.Extend(g)
	p, err := plan.FromExtendedTree(x, bestChoice)
	if err != nil {
		return core.Solution{}, err
	}
	return core.Solution{Plan: p, Cost: plan.Evaluate(g, p)}, nil
}

// SolveMSR returns the exact MinSum Retrieval optimum: minimize Σ R(v)
// subject to storage ≤ s.
func SolveMSR(g *graph.Graph, s graph.Cost, limit int64) (core.Solution, error) {
	best := graph.Infinite
	bestStorage := graph.Infinite
	return solve(g, limit, func(a Assignment) bool {
		if a.Storage > s {
			return false
		}
		if a.SumR < best || (a.SumR == best && a.Storage < bestStorage) {
			best, bestStorage = a.SumR, a.Storage
			return true
		}
		return false
	})
}

// SolveMMR returns the exact MinMax Retrieval optimum: minimize max R(v)
// subject to storage ≤ s.
func SolveMMR(g *graph.Graph, s graph.Cost, limit int64) (core.Solution, error) {
	best := graph.Infinite
	bestStorage := graph.Infinite
	return solve(g, limit, func(a Assignment) bool {
		if a.Storage > s {
			return false
		}
		if a.MaxR < best || (a.MaxR == best && a.Storage < bestStorage) {
			best, bestStorage = a.MaxR, a.Storage
			return true
		}
		return false
	})
}

// SolveBSR returns the exact BoundedSum Retrieval optimum: minimize
// storage subject to Σ R(v) ≤ r.
func SolveBSR(g *graph.Graph, r graph.Cost, limit int64) (core.Solution, error) {
	best := graph.Infinite
	bestR := graph.Infinite
	return solve(g, limit, func(a Assignment) bool {
		if a.SumR > r {
			return false
		}
		if a.Storage < best || (a.Storage == best && a.SumR < bestR) {
			best, bestR = a.Storage, a.SumR
			return true
		}
		return false
	})
}

// SolveBMR returns the exact BoundedMax Retrieval optimum: minimize
// storage subject to max R(v) ≤ r.
func SolveBMR(g *graph.Graph, r graph.Cost, limit int64) (core.Solution, error) {
	best := graph.Infinite
	bestR := graph.Infinite
	return solve(g, limit, func(a Assignment) bool {
		if a.MaxR > r {
			return false
		}
		if a.Storage < best || (a.Storage == best && a.MaxR < bestR) {
			best, bestR = a.Storage, a.MaxR
			return true
		}
		return false
	})
}

// SumFrontier returns the Pareto frontier of (storage, Σ R) over all
// plans: for every achievable storage level the minimum total retrieval.
func SumFrontier(g *graph.Graph, limit int64) (*plan.Frontier, error) {
	return frontier(g, limit, func(a Assignment) graph.Cost { return a.SumR })
}

// MaxFrontier returns the Pareto frontier of (storage, max R).
func MaxFrontier(g *graph.Graph, limit int64) (*plan.Frontier, error) {
	return frontier(g, limit, func(a Assignment) graph.Cost { return a.MaxR })
}

func frontier(g *graph.Graph, limit int64, obj func(a Assignment) graph.Cost) (*plan.Frontier, error) {
	bestAt := map[graph.Cost]graph.Cost{}
	err := Enumerate(g, limit, func(a Assignment) {
		o := obj(a)
		if cur, ok := bestAt[a.Storage]; !ok || o < cur {
			bestAt[a.Storage] = o
		}
	})
	if err != nil {
		return nil, err
	}
	f := &plan.Frontier{}
	for s, o := range bestAt {
		f.Add(s, o)
	}
	// Drop dominated points (higher storage, no better objective).
	out := f.Points[:0]
	best := graph.Infinite
	for _, pt := range f.Points {
		if pt.Objective < best {
			best = pt.Objective
			out = append(out, pt)
		}
	}
	f.Points = out
	return f, nil
}
