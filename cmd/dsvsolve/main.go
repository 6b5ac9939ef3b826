// Command dsvsolve solves one dataset-versioning problem instance from a
// JSON graph file.
//
// Usage:
//
//	dsvsolve -in graph.json -problem MSR -constraint 500000 -algo lmg-all
//	dsvsolve -in graph.json -problem BMR -constraint 2000 -algo dp
//	dsvsolve -in graph.json -problem BSR -constraint 20000 -algo lmg-all
//	dsvsolve -in graph.json -problem MSR -constraint 500000 -portfolio -timeout 5s
//	dsvsolve -in graph.json -problem MSR -constraint 500000 -json
//	dsvsolve -in graph.json -problem MST
//
// Problems: MST, SPT, MSR, MMR, BSR, BMR (Table 1 of the paper).
// -algo selects one member of the portfolio registry for the problem, in
// all four regimes: lmg-all, dp for MSR; mp, dp for BMR and,
// through the Lemma 7 binary search, for MMR; dp, lmg-all for BSR. "auto"
// picks the paper's recommendation (Section 7.4: LMG-All for MSR, the
// tree DP otherwise); a family that does not solve the problem is an
// error naming the ones that do. -portfolio ignores -algo and instead
// races every member concurrently through versioning.Engine, printing the
// per-solver comparison alongside the winning plan; -timeout bounds each
// solver within the race.
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
	"io"
	"os"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/portfolio"
	"repro/versioning"
)

// errNoInput is the one usage error main exits 2 on.
var errNoInput = errors.New("-in is required")

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "dsvsolve: %v\n", err)
		if errors.Is(err, errNoInput) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// run solves the instance args describe and prints the answer to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dsvsolve", flag.ExitOnError)
	var (
		in         = fs.String("in", "", "input graph JSON (required)")
		problemStr = fs.String("problem", "MSR", "MST|SPT|MSR|MMR|BSR|BMR")
		constraint = fs.Int64("constraint", 0, "storage bound (MSR/MMR) or retrieval bound (BSR/BMR)")
		algo       = fs.String("algo", "auto", "auto|lmg-all|dp|mp")
		race       = fs.Bool("portfolio", false, "race every applicable solver concurrently and report each")
		timeout    = fs.Duration("timeout", 0, "per-solver deadline inside the portfolio race (0 = none)")
		verbose    = fs.Bool("v", false, "print the full plan")
		asJSON     = fs.Bool("json", false, "emit the plan as JSON (versioning.PlanSummary, dsvd's /plan shape)")
	)
	fs.Parse(args)
	if *in == "" {
		fs.Usage()
		return errNoInput
	}
	f, err := os.Open(*in)
	if err != nil {
		return err
	}
	g, err := graph.Read(f)
	f.Close()
	if err != nil {
		return err
	}
	problem, err := core.ParseProblem(*problemStr)
	if err != nil {
		return err
	}
	c := graph.Cost(*constraint)
	ctx := context.Background()

	var sol core.Solution
	var winner string
	if *race {
		eng := versioning.NewEngine(versioning.EngineOptions{SolverTimeout: *timeout})
		res, err := eng.Solve(ctx, g, problem, c)
		if !*asJSON {
			printReports(stdout, res.Reports)
		}
		if err != nil {
			return err
		}
		winner = res.Winner
		if !*asJSON {
			fmt.Fprintf(stdout, "winner:         %s\n", winner)
		}
		sol = res.Solution
	} else {
		m, err := portfolio.Member(problem, *algo)
		if err != nil {
			return err
		}
		if sol, err = m.Solve(ctx, g, c); err != nil {
			return err
		}
	}
	if *asJSON {
		summary := versioning.Summarize(g, sol.Plan, problem, c)
		summary.Winner = winner
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(summary)
	}
	fmt.Fprintf(stdout, "problem:        %s (constraint %d)\n", problem, c)
	fmt.Fprintf(stdout, "storage:        %d\n", sol.Cost.Storage)
	fmt.Fprintf(stdout, "sum retrieval:  %d\n", sol.Cost.SumRetrieval)
	fmt.Fprintf(stdout, "max retrieval:  %d\n", sol.Cost.MaxRetrieval)
	fmt.Fprintf(stdout, "materialized:   %d of %d versions\n", len(sol.Plan.MaterializedNodes()), g.N())
	fmt.Fprintf(stdout, "stored deltas:  %d of %d\n", len(sol.Plan.StoredEdges()), g.M())
	if *verbose {
		fmt.Fprintf(stdout, "materialized versions: %v\n", sol.Plan.MaterializedNodes())
		fmt.Fprintf(stdout, "stored delta ids:      %v\n", sol.Plan.StoredEdges())
	}
	return nil
}

// printReports renders the per-solver race table.
func printReports(w io.Writer, reports []versioning.SolverReport) {
	fmt.Fprintf(w, "%-12s %12s %14s %14s %10s  %s\n", "solver", "storage", "sum retrieval", "max retrieval", "ms", "status")
	for _, r := range reports {
		status := "ok"
		if r.Err != nil {
			status = r.Err.Error()
		}
		ms := float64(r.Duration.Microseconds()) / 1000
		if r.Err != nil {
			fmt.Fprintf(w, "%-12s %12s %14s %14s %10.2f  %s\n", r.Solver, "—", "—", "—", ms, status)
			continue
		}
		fmt.Fprintf(w, "%-12s %12d %14d %14d %10.2f  %s\n",
			r.Solver, r.Cost.Storage, r.Cost.SumRetrieval, r.Cost.MaxRetrieval, ms, status)
	}
}
