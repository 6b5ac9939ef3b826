package portfolio

import (
	"context"
	"errors"

	"repro/internal/core"
	"repro/internal/dptree"
	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/lmg"
	"repro/internal/mp"
	"repro/internal/plan"
)

// Tuning parameterizes the default registry's solvers.
type Tuning struct {
	// Epsilon is the DP-MSR approximation parameter (0 = the default of
	// dptree.DefaultMSROptions, 0.05).
	Epsilon float64
	// MaxStates caps DP-MSR states per node (0 = the default of
	// dptree.DefaultMSROptions, 256).
	MaxStates int
	// Root is the spanning-tree root for the tree DPs and SPT (default 0).
	Root graph.NodeID
	// MaxILPNodes caps branch-and-bound nodes per ILP solve (default
	// 20000).
	MaxILPNodes int
	// NoILP drops the exact ILP from the MSR portfolio (it dominates run
	// time on anything beyond datasharing scale).
	NoILP bool
}

func (t Tuning) withDefaults() Tuning {
	if t.MaxILPNodes == 0 {
		t.MaxILPNodes = 20000
	}
	return t
}

// wrap converts a concrete solver outcome to a core.Solution, folding the
// solver's infeasibility sentinel into core.ErrInfeasible so the engine
// can aggregate across solver families.
func wrap(p *plan.Plan, c plan.Cost, err, infeasible error) (core.Solution, error) {
	if err != nil {
		if infeasible != nil && errors.Is(err, infeasible) {
			return core.Solution{}, core.ErrInfeasible
		}
		return core.Solution{}, err
	}
	return core.Solution{Plan: p, Cost: c}, nil
}

// DefaultRegistry returns the paper's solver portfolio per problem
// (Section 7): LMG, LMG-All, DP-MSR and ILP for MSR; MP, DP-BMR and the
// parallel DP-BMR for BMR; the Lemma 7 binary-search reductions of the
// BMR/MSR portfolios for MMR/BSR; and the polynomial MST/SPT baselines
// for the unconstrained problems.
func DefaultRegistry(t Tuning) func(p core.Problem) []Solver {
	t = t.withDefaults()
	dpOpts := dptree.DefaultMSROptions(t.Epsilon, t.MaxStates)

	lmgS := Solver{Name: "LMG", Solve: func(_ context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
		r, err := lmg.LMG(g, s)
		return wrap(r.Plan, r.Cost, err, lmg.ErrInfeasible)
	}}
	lmgAllS := Solver{Name: "LMG-All", Solve: func(_ context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
		r, err := lmg.LMGAll(g, s, lmg.Options{})
		return wrap(r.Plan, r.Cost, err, lmg.ErrInfeasible)
	}}
	dpMSR := Solver{Name: "DP-MSR", Solve: func(_ context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
		r, err := dptree.MSROnGraph(g, s, t.Root, dpOpts)
		return wrap(r.Plan, r.Cost, err, dptree.ErrInfeasible)
	}}
	ilpS := Solver{Name: "ILP", Solve: func(_ context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
		r, err := ilp.SolveMSR(g, s, ilp.Options{MaxNodes: t.MaxILPNodes})
		return wrap(r.Plan, r.Cost, err, ilp.ErrInfeasible)
	}}

	mpS := Solver{Name: "MP", Solve: func(_ context.Context, g *graph.Graph, r graph.Cost) (core.Solution, error) {
		res, err := mp.Solve(g, r)
		return wrap(res.Plan, res.Cost, err, nil)
	}}
	dpBMR := Solver{Name: "DP-BMR", Solve: func(_ context.Context, g *graph.Graph, r graph.Cost) (core.Solution, error) {
		res, err := dptree.BMROnGraph(g, r, t.Root)
		return wrap(res.Plan, res.Cost, err, dptree.ErrInfeasible)
	}}
	dpBMRPar := Solver{Name: "DP-BMR-par", Solve: func(_ context.Context, g *graph.Graph, r graph.Cost) (core.Solution, error) {
		res, err := bmrParallelOnGraph(g, r, t.Root)
		return wrap(res.Plan, res.Cost, err, dptree.ErrInfeasible)
	}}

	msr := []Solver{lmgS, lmgAllS, dpMSR}
	if !t.NoILP {
		msr = append(msr, ilpS)
	}
	bmr := []Solver{mpS, dpBMR, dpBMRPar}

	// The Lemma 7 reductions lift each BMR solver to MMR and each MSR
	// solver to BSR. The binary-search closures check ctx between probes,
	// making the lifted solvers cooperatively cancellable even though the
	// underlying solvers are not.
	mmr := make([]Solver, 0, len(bmr))
	for _, s := range bmr {
		s := s
		mmr = append(mmr, Solver{Name: s.Name + "+L7", Solve: func(ctx context.Context, g *graph.Graph, budget graph.Cost) (core.Solution, error) {
			return core.MMRViaBMR(g, budget, func(r graph.Cost) (core.Solution, error) {
				if err := ctx.Err(); err != nil {
					return core.Solution{}, err
				}
				return s.Solve(ctx, g, r)
			})
		}})
	}
	bsr := make([]Solver, 0, 2)
	for _, s := range []Solver{dpMSR, lmgAllS} {
		s := s
		bsr = append(bsr, Solver{Name: s.Name + "+L7", Solve: func(ctx context.Context, g *graph.Graph, bound graph.Cost) (core.Solution, error) {
			return core.BSRViaMSR(g, bound, func(budget graph.Cost) (core.Solution, error) {
				if err := ctx.Err(); err != nil {
					return core.Solution{}, err
				}
				return s.Solve(ctx, g, budget)
			})
		}})
	}

	mst := []Solver{{Name: "MST", Solve: func(_ context.Context, g *graph.Graph, _ graph.Cost) (core.Solution, error) {
		return core.MST(g)
	}}}
	spt := []Solver{{Name: "SPT", Solve: func(_ context.Context, g *graph.Graph, _ graph.Cost) (core.Solution, error) {
		return core.SPT(g, t.Root)
	}}}

	return func(p core.Problem) []Solver {
		switch p {
		case core.ProblemMST:
			return mst
		case core.ProblemSPT:
			return spt
		case core.ProblemMSR:
			return msr
		case core.ProblemMMR:
			return mmr
		case core.ProblemBSR:
			return bsr
		case core.ProblemBMR:
			return bmr
		default:
			return nil
		}
	}
}

// bmrParallelOnGraph is BMROnGraph over the worker-pool DP variant.
func bmrParallelOnGraph(g *graph.Graph, r graph.Cost, root graph.NodeID) (dptree.BMRResult, error) {
	if g.N() == 0 {
		return dptree.BMROnGraph(g, r, root)
	}
	parent, err := dptree.ExtractSpanningTree(g, root)
	if err != nil {
		return dptree.BMRResult{}, err
	}
	t, err := dptree.FromParents(g, root, parent)
	if err != nil {
		return dptree.BMRResult{}, err
	}
	return dptree.BMRParallel(t, r, 0)
}
