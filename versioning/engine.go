package versioning

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/portfolio"
)

// Problem identifies one of the paper's optimization problems (Table 1),
// for use with Engine.Solve.
type Problem = core.Problem

// The six problems of Table 1.
const (
	ProblemMST Problem = core.ProblemMST // minimize storage, any finite retrieval
	ProblemSPT Problem = core.ProblemSPT // single materialization, shortest paths
	ProblemMSR Problem = core.ProblemMSR // min Σ R(v) s.t. storage ≤ S
	ProblemMMR Problem = core.ProblemMMR // min max R(v) s.t. storage ≤ S
	ProblemBSR Problem = core.ProblemBSR // min storage s.t. Σ R(v) ≤ R
	ProblemBMR Problem = core.ProblemBMR // min storage s.t. max R(v) ≤ R
)

// Portfolio-engine result types. A PortfolioResult carries the best
// solution found, the winning solver's name, and one SolverReport per
// raced solver.
type (
	PortfolioResult = portfolio.Result
	SolverReport    = portfolio.Report
)

// EngineOptions configures a portfolio Engine. Its one setting is the
// per-solver deadline: the race is the paper's serving line-up
// (portfolio.DefaultRegistry) with the tree DPs at their defaults.
type EngineOptions struct {
	// SolverTimeout is the per-solver deadline within a race (0 or
	// negative = none).
	// A solver that misses its deadline is abandoned and reported with
	// context.DeadlineExceeded; the race still returns the best solution
	// among the solvers that finished.
	SolverTimeout time.Duration
	// CacheSize has no effect: the engine keeps no result cache. It stays
	// because benchmark/traced.go sets it (ROADMAP item 7h).
	CacheSize int
	// DisableILP has no effect: the repository has no ILP. It stays
	// because benchmark/stack.go and benchmark/traced.go set it (ROADMAP
	// item 7h).
	DisableILP bool
}

// Engine is the concurrent solver-portfolio runtime: for each Solve it
// races every applicable solver (the paper's Section 7 line-up) under
// per-solver timeouts and returns the best feasible solution plus
// per-solver reports. An Engine is safe for concurrent use by multiple
// goroutines.
type Engine struct {
	p *portfolio.Engine
}

// NewEngine returns a portfolio engine.
func NewEngine(opt EngineOptions) *Engine {
	return &Engine{p: portfolio.New(portfolio.Options{SolverTimeout: opt.SolverTimeout})}
}

// Solve races the portfolio for problem on g under the given constraint
// (ignored for MST/SPT). If every solver proves its constraint
// unsatisfiable the error is ErrInfeasible.
func (e *Engine) Solve(ctx context.Context, g *Graph, problem Problem, constraint Cost) (PortfolioResult, error) {
	return e.p.Solve(ctx, g, problem, constraint)
}
