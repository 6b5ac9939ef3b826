// Command dsvbench regenerates the paper's evaluation (Section 7): the
// Table 4 dataset overview, the MSR figures 10–12, the BMR figure 13, the
// Theorem 1 adversarial-LMG demonstration and the footnote-7 treewidth
// measurements. Each figure runs its solvers one after another, so the
// per-point times are each solver's own; the race the daemon runs on one
// instance is dsvsolve -portfolio.
//
// Usage:
//
//	dsvbench -exp all -scale 0.12 -points 6
//	dsvbench -exp fig10 -scale 1 -points 10 -ilp=false
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/experiments"
	"repro/internal/graph"
)

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment: all|table4|fig10|fig11|fig12|fig13|thm1|treewidth")
		scale    = flag.Float64("scale", 0.12, "dataset size scale (1.0 = full Table 4 sizes)")
		points   = flag.Int("points", 6, "constraint samples per curve")
		epsilon  = flag.Float64("epsilon", 0.05, "DP-MSR approximation parameter")
		states   = flag.Int("maxstates", 512, "DP-MSR per-node state cap")
		ilp      = flag.Bool("ilp", true, "compute the exact OPT line where affordable")
		ilpNodes = flag.Int("ilpnodes", 20000, "branch-and-bound node cap per OPT point")
	)
	flag.Parse()

	cfg := experiments.Config{
		Scale:       *scale,
		SweepPoints: *points,
		Epsilon:     *epsilon,
		MaxStates:   *states,
		ILP:         *ilp,
		MaxILPNodes: *ilpNodes,
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false
	if run("table4") {
		fmt.Println("== Table 4: dataset overview ==")
		fmt.Println(experiments.RenderStats(experiments.Table4(cfg)))
		ran = true
	}
	if run("thm1") {
		fmt.Println("== Theorem 1: LMG is arbitrarily bad on adversarial chains ==")
		fmt.Println(experiments.RenderTheorem1(experiments.Theorem1([]graph.Cost{10, 30, 100, 300})))
		ran = true
	}
	if run("treewidth") {
		fmt.Println("== Footnote 7: dataset treewidth (heuristic upper bounds, MMD lower bound) ==")
		fmt.Println(experiments.RenderTreewidths(experiments.Treewidths(cfg)))
		ran = true
	}
	figures := []struct {
		name string
		f    func(experiments.Config) []experiments.Result
	}{
		{"fig10", experiments.Figure10},
		{"fig11", experiments.Figure11},
		{"fig12", experiments.Figure12},
		{"fig13", experiments.Figure13},
	}
	for _, fig := range figures {
		if !run(fig.name) {
			continue
		}
		for _, r := range fig.f(cfg) {
			fmt.Println(experiments.Render(r))
		}
		ran = true
	}
	if !ran {
		fmt.Fprintf(os.Stderr, "dsvbench: unknown experiment %q\n", *exp)
		flag.Usage()
		os.Exit(2)
	}
}
