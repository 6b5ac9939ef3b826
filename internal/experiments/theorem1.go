package experiments

import (
	"context"
	"fmt"
	"strings"

	"repro/internal/bruteforce"
	"repro/internal/dptree"
	"repro/internal/graph"
	"repro/internal/lmg"
	"repro/internal/reductions"
)

// Theorem1 runs the Figure 2 adversarial family for growing c/b ratios
// and reports how far LMG drifts from the optimum while DP-MSR (the tree
// DP — the instance is a chain, treewidth 1) stays optimal.
func Theorem1(ratios []graph.Cost) []Theorem1Row {
	var out []Theorem1Row
	for _, ratio := range ratios {
		b := ratio
		c := b * ratio
		g, s := reductions.AdversarialLMG(1_000_000*ratio, b, c)
		lmgRes, err := lmg.LMG(context.Background(), g, s)
		if err != nil {
			panic(fmt.Sprintf("experiments: theorem1 LMG: %v", err))
		}
		lmgAllRes, err := lmg.LMGAll(context.Background(), g, s)
		if err != nil {
			panic(fmt.Sprintf("experiments: theorem1 LMG-All: %v", err))
		}
		opt, err := bruteforce.SolveMSR(g, s, 0)
		if err != nil {
			panic(fmt.Sprintf("experiments: theorem1 OPT: %v", err))
		}
		dp, err := dptree.MSROnGraph(context.Background(), g, s, dptree.MSROptions{})
		if err != nil {
			panic(fmt.Sprintf("experiments: theorem1 DP: %v", err))
		}
		row := Theorem1Row{
			Ratio:        ratio,
			LMG:          lmgRes.Cost.SumRetrieval,
			LMGAll:       lmgAllRes.Cost.SumRetrieval,
			Optimal:      opt.Cost.SumRetrieval,
			DPMSRMatches: dp.Cost.SumRetrieval == opt.Cost.SumRetrieval,
		}
		if row.Optimal > 0 {
			row.LMGOverOPT = row.LMG / row.Optimal
		}
		out = append(out, row)
	}
	return out
}

// RenderTheorem1 formats the adversarial-family table.
func RenderTheorem1(rows []Theorem1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%8s %14s %14s %14s %10s %12s\n", "c/b", "LMG", "LMG-All", "OPT", "LMG/OPT", "DP-MSR=OPT")
	for _, r := range rows {
		fmt.Fprintf(&b, "%8d %14d %14d %14d %10d %12v\n", r.Ratio, r.LMG, r.LMGAll, r.Optimal, r.LMGOverOPT, r.DPMSRMatches)
	}
	return b.String()
}
