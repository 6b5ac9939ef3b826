package portfolio

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/dptree"
	"repro/internal/graph"
	"repro/internal/lmg"
	"repro/internal/mp"
)

// DefaultRegistry is the one declaration of the paper's serving line-up
// (Section 7): LMG, LMG-All and DP-MSR for MSR; MP and DP-BMR for BMR;
// the Lemma 7 binary-search lifts of the BMR members for MMR and of
// DP-MSR and LMG-All for BSR; and the polynomial MST/SPT baselines for
// the unconstrained problems. The engine races a problem's members in
// this order; Member picks one of them by family.
// Every member returns core.Solution and reports a constraint it cannot
// meet as core.ErrInfeasible, so LMG, LMG-All and DP-BMR are listed as
// they are; a closure is left only where a member needs options
// (DP-MSR, at dptree.DefaultMSROptions), takes no context (MP) or takes
// no constraint (the baselines). The tree DPs and SPT root at version 0.
// Every call builds its own table, so no caller shares another's.
func DefaultRegistry(p core.Problem) []Solver {
	dpOpts := dptree.DefaultMSROptions()

	lmgS := Solver{Name: "LMG", Family: "lmg", Solve: lmg.LMG}
	lmgAllS := Solver{Name: "LMG-All", Family: "lmg-all", Solve: lmg.LMGAll}
	dpMSR := Solver{Name: "DP-MSR", Family: "dp", Solve: func(ctx context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
		return dptree.MSROnGraph(ctx, g, s, dpOpts)
	}}
	mpS := Solver{Name: "MP", Family: "mp", Solve: func(_ context.Context, g *graph.Graph, r graph.Cost) (core.Solution, error) {
		return mp.Solve(g, r)
	}}
	dpBMR := Solver{Name: "DP-BMR", Family: "dp", Solve: dptree.BMROnGraph}

	// lift is Lemma 7: a bounded solver searched by via answers the min
	// problem. The probe checks ctx, so a lift stops between probes even
	// around a member that does not check it itself (MP). Its probes
	// share one min-storage arborescence.
	lift := func(s Solver, via func(*graph.Graph, graph.Cost, core.BoundedFunc) (core.Solution, error)) Solver {
		return Solver{Name: s.Name + "+L7", Family: s.Family, Solve: func(ctx context.Context, g *graph.Graph, c graph.Cost) (core.Solution, error) {
			ctx = core.WithMinStorage(ctx, g)
			return via(g, c, func(bound graph.Cost) (core.Solution, error) {
				if err := ctx.Err(); err != nil {
					return core.Solution{}, err
				}
				return s.Solve(ctx, g, bound)
			})
		}}
	}

	table := map[core.Problem][]Solver{
		core.ProblemMST: {{Name: "MST", Solve: func(ctx context.Context, g *graph.Graph, _ graph.Cost) (core.Solution, error) {
			return core.MST(ctx, g)
		}}},
		core.ProblemSPT: {{Name: "SPT", Solve: func(_ context.Context, g *graph.Graph, _ graph.Cost) (core.Solution, error) {
			return core.SPT(g, 0)
		}}},
		core.ProblemMSR: {lmgS, lmgAllS, dpMSR},
		core.ProblemBMR: {mpS, dpBMR},
		core.ProblemMMR: {lift(mpS, core.MMRViaBMR), lift(dpBMR, core.MMRViaBMR)},
		core.ProblemBSR: {lift(dpMSR, core.BSRViaMSR), lift(lmgAllS, core.BSRViaMSR)},
	}
	return table[p]
}

// Member returns the member of DefaultRegistry that family names for
// problem p. "auto" is the Section 7.4 recommendation: LMG-All for MSR,
// the tree DP for BMR, MMR and BSR. The MST and SPT baselines have no
// family and answer to every name.
func Member(p core.Problem, family string) (Solver, error) {
	if family == "auto" {
		family = "dp"
		if p == core.ProblemMSR {
			family = "lmg-all"
		}
	}
	var have []string
	for _, s := range DefaultRegistry(p) {
		if s.Family == "" || s.Family == family {
			return s, nil
		}
		have = append(have, s.Family)
	}
	return Solver{}, fmt.Errorf("portfolio: no %q solver for %s (have %s)", family, p, strings.Join(have, ", "))
}
