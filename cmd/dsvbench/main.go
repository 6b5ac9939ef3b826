// Command dsvbench regenerates the paper's evaluation (Section 7): the
// Table 4 dataset overview, the MSR figures 10–12, the BMR figure 13, the
// Theorem 1 adversarial-LMG demonstration and the footnote-7 treewidth
// measurements. Each figure runs its solvers one after another, so the
// per-point times are each solver's own; the race the daemon runs on one
// instance is dsvsolve -portfolio. The paper's OPT line in Figures 10 and
// 11 (Gurobi on the Appendix D ILP) is not reproduced: the MSR figures
// draw LMG, LMG-All and DP-MSR.
//
// Usage:
//
//	dsvbench -exp all -scale 0.12 -points 6
//	dsvbench -exp fig10 -scale 1 -points 10
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/experiments"
	"repro/internal/graph"
)

func main() {
	err := run(os.Args[1:], os.Stdout)
	switch {
	case errors.Is(err, flag.ErrHelp):
	case err != nil:
		fmt.Fprintf(os.Stderr, "dsvbench: %v\n", err)
		os.Exit(2)
	}
}

// run regenerates the experiments args select and prints them to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dsvbench", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment: all|table4|fig10|fig11|fig12|fig13|thm1|treewidth")
		scale   = fs.Float64("scale", 0.12, "dataset size scale (1.0 = full Table 4 sizes)")
		points  = fs.Int("points", 6, "constraint samples per curve")
		epsilon = fs.Float64("epsilon", 0.05, "DP-MSR approximation parameter")
		states  = fs.Int("maxstates", 512, "DP-MSR per-node state cap")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.Config{
		Scale:       *scale,
		SweepPoints: *points,
		Epsilon:     *epsilon,
		MaxStates:   *states,
	}

	run := func(name string) bool { return *exp == "all" || *exp == name }
	ran := false
	if run("table4") {
		fmt.Fprintln(stdout, "== Table 4: dataset overview ==")
		fmt.Fprintln(stdout, experiments.RenderStats(experiments.Table4(cfg)))
		ran = true
	}
	if run("thm1") {
		fmt.Fprintln(stdout, "== Theorem 1: LMG is arbitrarily bad on adversarial chains ==")
		fmt.Fprintln(stdout, experiments.RenderTheorem1(experiments.Theorem1([]graph.Cost{10, 30, 100, 300})))
		ran = true
	}
	if run("treewidth") {
		fmt.Fprintln(stdout, "== Footnote 7: dataset treewidth (heuristic upper bounds, MMD lower bound) ==")
		fmt.Fprintln(stdout, experiments.RenderTreewidths(experiments.Treewidths(cfg)))
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
			fmt.Fprintln(stdout, experiments.Render(r))
		}
		ran = true
	}
	if !ran {
		fs.Usage()
		return fmt.Errorf("unknown experiment %q", *exp)
	}
	return nil
}
