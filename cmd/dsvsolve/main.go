// Command dsvsolve solves one dataset-versioning problem instance from a
// JSON graph file.
//
// Usage:
//
//	dsvsolve -in graph.json -problem MSR -constraint 500000 -algo lmg-all
//	dsvsolve -in graph.json -problem BMR -constraint 2000 -algo dp
//	dsvsolve -in graph.json -problem MSR -constraint 500000 -portfolio -timeout 5s
//	dsvsolve -in graph.json -problem MSR -constraint 500000 -json
//	dsvsolve -in graph.json -problem MST
//
// Problems: MST, SPT, MSR, MMR, BSR, BMR (Table 1 of the paper).
// Algorithms: lmg, lmg-all, dp, mp, ilp — each applicable to a subset of
// the problems; "auto" picks the paper's recommendation (Section 7.4:
// LMG-All / DP-MSR for MSR, DP-BMR for BMR). -portfolio ignores -algo and
// instead races every applicable solver concurrently through
// versioning.Engine, printing the per-solver comparison alongside the
// winning plan; -timeout bounds each solver within the race.
//
// -json suppresses the human-readable output and instead emits the plan
// as a versioning.PlanSummary — the same machine-readable shape the dsvd
// daemon serves at /plan — so scripted pipelines can consume either.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/dptree"
	"repro/internal/graph"
	"repro/internal/ilp"
	"repro/internal/lmg"
	"repro/internal/mp"
	"repro/internal/plan"
	"repro/versioning"
)

func main() {
	var (
		in         = flag.String("in", "", "input graph JSON (required)")
		problemStr = flag.String("problem", "MSR", "MST|SPT|MSR|MMR|BSR|BMR")
		constraint = flag.Int64("constraint", 0, "storage bound (MSR/MMR) or retrieval bound (BSR/BMR)")
		algo       = flag.String("algo", "auto", "auto|lmg|lmg-all|dp|mp|ilp")
		portfolio  = flag.Bool("portfolio", false, "race every applicable solver concurrently and report each")
		timeout    = flag.Duration("timeout", 0, "per-solver deadline inside the portfolio race (0 = none)")
		verbose    = flag.Bool("v", false, "print the full plan")
		asJSON     = flag.Bool("json", false, "emit the plan as JSON (versioning.PlanSummary, dsvd's /plan shape)")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "dsvsolve: -in is required")
		flag.Usage()
		os.Exit(2)
	}
	f, err := os.Open(*in)
	if err != nil {
		fail(err)
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		fail(err)
	}
	problem, err := core.ParseProblem(*problemStr)
	if err != nil {
		fail(err)
	}

	var sol core.Solution
	var winner string
	if *portfolio {
		eng := versioning.NewEngine(versioning.EngineOptions{SolverTimeout: *timeout})
		res, err := eng.Solve(context.Background(), g, problem, graph.Cost(*constraint))
		if !*asJSON {
			printReports(res.Reports)
		}
		if err != nil {
			fail(err)
		}
		winner = res.Winner
		if !*asJSON {
			fmt.Printf("winner:         %s\n", winner)
		}
		sol = res.Solution
	} else {
		sol, err = solve(g, problem, graph.Cost(*constraint), *algo)
		if err != nil {
			fail(err)
		}
	}
	if *asJSON {
		summary := versioning.Summarize(g, sol.Plan, problem, graph.Cost(*constraint))
		summary.Winner = winner
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summary); err != nil {
			fail(err)
		}
		return
	}
	fmt.Printf("problem:        %s (constraint %d)\n", problem, *constraint)
	fmt.Printf("storage:        %d\n", sol.Cost.Storage)
	fmt.Printf("sum retrieval:  %d\n", sol.Cost.SumRetrieval)
	fmt.Printf("max retrieval:  %d\n", sol.Cost.MaxRetrieval)
	fmt.Printf("materialized:   %d of %d versions\n", len(sol.Plan.MaterializedNodes()), g.N())
	fmt.Printf("stored deltas:  %d of %d\n", len(sol.Plan.StoredEdges()), g.M())
	if *verbose {
		fmt.Printf("materialized versions: %v\n", sol.Plan.MaterializedNodes())
		fmt.Printf("stored delta ids:      %v\n", sol.Plan.StoredEdges())
	}
}

// printReports renders the per-solver race table.
func printReports(reports []versioning.SolverReport) {
	fmt.Printf("%-12s %12s %14s %14s %10s  %s\n", "solver", "storage", "sum retrieval", "max retrieval", "ms", "status")
	for _, r := range reports {
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		ms := float64(r.Duration.Microseconds()) / 1000
		if r.Err != nil {
			fmt.Printf("%-12s %12s %14s %14s %10.2f  %s\n", r.Solver, "—", "—", "—", ms, status)
			continue
		}
		fmt.Printf("%-12s %12d %14d %14d %10.2f  %s\n",
			r.Solver, r.Cost.Storage, r.Cost.SumRetrieval, r.Cost.MaxRetrieval, ms, status)
	}
}

func solve(g *graph.Graph, problem core.Problem, c graph.Cost, algo string) (core.Solution, error) {
	wrap := func(p *plan.Plan, err error) (core.Solution, error) {
		if err != nil {
			return core.Solution{}, err
		}
		return core.Solution{Plan: p, Cost: plan.Evaluate(g, p)}, nil
	}
	dpMSR := func(s graph.Cost) (core.Solution, error) {
		r, err := dptree.MSROnGraph(g, s, 0, dptree.DefaultMSROptions(0, 0))
		if errors.Is(err, dptree.ErrInfeasible) {
			return core.Solution{}, core.ErrInfeasible
		}
		return wrap(r.Plan, err)
	}
	dpBMR := func(r graph.Cost) (core.Solution, error) {
		res, err := dptree.BMROnGraph(g, r, 0)
		if errors.Is(err, dptree.ErrInfeasible) {
			return core.Solution{}, core.ErrInfeasible
		}
		return wrap(res.Plan, err)
	}
	switch problem {
	case core.ProblemMST:
		return core.MST(g)
	case core.ProblemSPT:
		return core.SPT(g, 0)
	case core.ProblemMSR:
		switch algo {
		case "lmg":
			r, err := lmg.LMG(g, c)
			return wrap(r.Plan, err)
		case "auto", "lmg-all":
			r, err := lmg.LMGAll(g, c, lmg.Options{})
			return wrap(r.Plan, err)
		case "dp":
			return dpMSR(c)
		case "ilp":
			r, err := ilp.SolveMSR(g, c, ilp.Options{})
			return wrap(r.Plan, err)
		}
	case core.ProblemBMR:
		switch algo {
		case "mp":
			r, err := mp.Solve(g, c)
			return wrap(r.Plan, err)
		case "auto", "dp":
			return dpBMR(c)
		}
	case core.ProblemMMR:
		return core.MMRViaBMR(g, c, dpBMR)
	case core.ProblemBSR:
		return core.BSRViaMSR(g, c, dpMSR)
	}
	return core.Solution{}, fmt.Errorf("dsvsolve: algorithm %q does not solve %s", algo, problem)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "dsvsolve: %v\n", err)
	os.Exit(1)
}
