// Package portfolio holds the paper's solver line-up and races it. The
// registry (DefaultRegistry) is the one place that says which solver
// families (LMG-All, DP-MSR, DP-BMR, MP, and their Lemma 7 lifts)
// answer which of the four problem regimes and under which report name;
// Member picks one of them by family for the one-shot callers
// (versioning.SolveXXX, cmd/dsvsolve). The Engine is the runtime
// counterpart of the paper's Section 7 evaluation: instead of
// comparing offline, it races every member registered for a problem
// concurrently, with per-solver timeouts and cooperative cancellation,
// and returns the best feasible solution found plus a per-solver report
// (cost, wall time, error). Every solver package returns core.Solution
// and reports a constraint it cannot meet as core.ErrInfeasible, so the
// registry lists most members as they are and the engine tells an
// infeasible member from a failed one with errors.Is. Every Solve is a
// race: the version graph grows with each commit, so an instance does
// not come back to be remembered.
package portfolio

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

// Solver is one registered algorithm for one problem. Solve must be safe
// for concurrent use and should honor ctx cancellation at natural
// checkpoints (the engine additionally abandons solvers whose deadline
// expires, so a non-cooperative solver delays nothing but its own
// report).
type Solver struct {
	// Name is what reports, /planz and the win counters print.
	Name string
	// Family is what dsvsolve -algo and versioning.Algorithm select the
	// solver by (see Member); a Lemma 7 lift keeps its inner solver's.
	Family string
	Solve  func(ctx context.Context, g *graph.Graph, constraint graph.Cost) (core.Solution, error)
}

// Report is one solver's outcome within a race.
type Report struct {
	Solver   string
	Cost     plan.Cost // valid only when Err == nil
	Duration time.Duration
	Err      error // solver error, constraint violation, or ctx timeout
}

// Result is the outcome of a portfolio solve.
type Result struct {
	// Solution is the best feasible solution across solvers.
	Solution core.Solution
	// Winner names the solver that produced Solution.
	Winner string
	// Reports has one entry per registered solver, in registry order.
	Reports []Report
}

// Options configures an Engine.
type Options struct {
	// SolverTimeout is the per-solver deadline within a race. 0 means no
	// deadline (solvers still inherit the caller's ctx).
	SolverTimeout time.Duration
	// Registry overrides the solver registry (nil = DefaultRegistry).
	Registry func(p core.Problem) []Solver
}

// Engine races solver portfolios. It is safe for concurrent use; a zero
// Engine is not valid, use New.
type Engine struct {
	opts     Options
	registry func(p core.Problem) []Solver
}

// New returns an Engine with the given options.
func New(opts Options) *Engine {
	e := &Engine{opts: opts, registry: opts.Registry}
	if e.registry == nil {
		e.registry = DefaultRegistry
	}
	return e
}

// Solve races every registered solver for problem on g under the given
// constraint and returns the best feasible solution; Solution.Plan is
// the caller's own.
//
// If every solver reports infeasibility the error is core.ErrInfeasible;
// if the caller's ctx ends the error is ctx.Err().
func (e *Engine) Solve(ctx context.Context, g *graph.Graph, problem core.Problem, constraint graph.Cost) (Result, error) {
	solvers := e.registry(problem)
	if len(solvers) == 0 {
		return Result{}, fmt.Errorf("portfolio: no registered solver for %s", problem)
	}
	// The race's LMG-All, and every probe of a Lemma 7 lift, start from
	// one min-storage arborescence.
	return e.race(core.WithMinStorage(ctx, g), solvers, g, problem, constraint)
}

func (e *Engine) race(ctx context.Context, solvers []Solver, g *graph.Graph, problem core.Problem, constraint graph.Cost) (Result, error) {
	reports := make([]Report, len(solvers))
	sols := make([]core.Solution, len(solvers))
	var wg sync.WaitGroup
	for i := range solvers {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i], sols[i] = e.runOne(ctx, solvers[i], g, problem, constraint)
		}(i)
	}
	wg.Wait()

	res := Result{Reports: reports}
	best := -1
	for i := range reports {
		if reports[i].Err != nil {
			continue
		}
		if best < 0 || better(problem, reports[i].Cost, reports[best].Cost) {
			best = i
		}
	}
	if best < 0 {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		allInfeasible := true
		errs := make([]error, 0, len(reports))
		for i := range reports {
			if !errors.Is(reports[i].Err, core.ErrInfeasible) {
				allInfeasible = false
			}
			errs = append(errs, fmt.Errorf("%s: %w", reports[i].Solver, reports[i].Err))
		}
		if allInfeasible {
			return res, core.ErrInfeasible
		}
		return res, fmt.Errorf("portfolio: every solver failed: %w", errors.Join(errs...))
	}
	res.Winner = solvers[best].Name
	res.Solution = sols[best]
	return res, nil
}

// runOne runs a single solver under the per-solver deadline and checks
// the returned solution against the problem constraint.
func (e *Engine) runOne(ctx context.Context, s Solver, g *graph.Graph, problem core.Problem, constraint graph.Cost) (Report, core.Solution) {
	rep := Report{Solver: s.Name}
	if err := ctx.Err(); err != nil {
		rep.Err = err
		return rep, core.Solution{}
	}
	sctx, cancel := ctx, func() {}
	if e.opts.SolverTimeout > 0 {
		sctx, cancel = context.WithTimeout(ctx, e.opts.SolverTimeout)
	}
	defer cancel()

	type outcome struct {
		sol core.Solution
		err error
	}
	ch := make(chan outcome, 1)
	start := time.Now()
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- outcome{err: fmt.Errorf("portfolio: solver %s panicked: %v", s.Name, r)}
			}
		}()
		sol, err := s.Solve(sctx, g, constraint)
		ch <- outcome{sol, err}
	}()
	var o outcome
	select {
	case o = <-ch:
	case <-sctx.Done():
		// Abandon the solver goroutine; it finishes (and is discarded)
		// on its own.
		o = outcome{err: sctx.Err()}
	}
	rep.Duration = time.Since(start)
	if o.err == nil && o.sol.Plan == nil {
		o.err = fmt.Errorf("portfolio: solver %s returned no plan", s.Name)
	}
	if o.err == nil {
		o.err = checkConstraint(problem, constraint, o.sol.Cost)
	}
	if o.err != nil {
		rep.Err = o.err
		return rep, core.Solution{}
	}
	rep.Cost = o.sol.Cost
	return rep, o.sol
}

// checkConstraint rejects solutions that violate the problem's hard
// constraint, so a buggy or heuristic solver can never win with an
// inadmissible plan.
func checkConstraint(p core.Problem, constraint graph.Cost, c plan.Cost) error {
	if !c.Feasible {
		return errors.New("portfolio: solution leaves versions unretrievable")
	}
	switch p {
	case core.ProblemMSR, core.ProblemMMR:
		if c.Storage > constraint {
			return fmt.Errorf("portfolio: storage %d exceeds budget %d", c.Storage, constraint)
		}
	case core.ProblemBSR:
		if c.SumRetrieval > constraint {
			return fmt.Errorf("portfolio: total retrieval %d exceeds bound %d", c.SumRetrieval, constraint)
		}
	case core.ProblemBMR:
		if c.MaxRetrieval > constraint {
			return fmt.Errorf("portfolio: max retrieval %d exceeds bound %d", c.MaxRetrieval, constraint)
		}
	}
	return nil
}

// Objective returns the primary (minimized) objective of problem p for a
// cost summary, matching Table 1.
func Objective(p core.Problem, c plan.Cost) graph.Cost {
	switch p {
	case core.ProblemMSR, core.ProblemSPT:
		return c.SumRetrieval
	case core.ProblemMMR:
		return c.MaxRetrieval
	default: // MST, BSR, BMR minimize storage
		return c.Storage
	}
}

// better reports whether cost a beats cost b for problem p (objective
// first, then the constrained quantity as tie-break).
func better(p core.Problem, a, b plan.Cost) bool {
	ao, bo := Objective(p, a), Objective(p, b)
	if ao != bo {
		return ao < bo
	}
	switch p {
	case core.ProblemMSR, core.ProblemMMR, core.ProblemSPT:
		return a.Storage < b.Storage
	default:
		return a.SumRetrieval < b.SumRetrieval
	}
}
