package experiments

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/portfolio"
)

// portfolioEngine builds an engine matching the experiment config. With
// withILP the MSR race also runs the exact ILP, last, as the OPT line the
// default registry leaves to offline callers.
func portfolioEngine(cfg Config, withILP bool) *portfolio.Engine {
	t := portfolio.Tuning{Epsilon: cfg.Epsilon, MaxStates: cfg.MaxStates, MaxILPNodes: cfg.MaxILPNodes}
	race := portfolio.DefaultRegistry(t)
	if withILP {
		ilp, err := portfolio.Member(t, core.ProblemMSR, "ilp")
		if err != nil {
			panic(err)
		}
		serving := race
		race = func(p core.Problem) []portfolio.Solver {
			if p == core.ProblemMSR {
				return slices.Concat(serving(p), []portfolio.Solver{ilp})
			}
			return serving(p)
		}
	}
	return portfolio.New(portfolio.Options{SolverTimeout: cfg.SolverTimeout, Registry: race})
}

// portfolioSweep runs one dataset's constraint sweep through the engine
// and pivots the per-solver reports into one Series per solver, plus a
// "Portfolio" series holding the winning objective and the race's wall
// time (the max solver duration, since solvers run concurrently).
func portfolioSweep(g *graph.Graph, problem core.Problem, constraints []graph.Cost, eng *portfolio.Engine) Result {
	res := Result{Dataset: g.Name}
	switch problem {
	case core.ProblemMSR:
		res.XLabel, res.YLabel = "storage", "total retrieval"
	case core.ProblemBMR:
		res.XLabel, res.YLabel = "max retrieval", "storage"
	default:
		res.XLabel, res.YLabel = "constraint", "objective"
	}
	bySolver := map[string]*Series{}
	order := []string{}
	series := func(name string) *Series {
		s, ok := bySolver[name]
		if !ok {
			s = &Series{Algorithm: name}
			bySolver[name] = s
			order = append(order, name)
		}
		return s
	}
	best := series("Portfolio")
	for _, c := range constraints {
		r, err := eng.Solve(context.Background(), g, problem, c)
		var wall float64
		for _, rep := range r.Reports {
			millis := float64(rep.Duration.Microseconds()) / 1000
			p := point(c, portfolio.Objective(problem, rep.Cost), millis, rep.Err)
			wall = max(wall, p.Millis)
			s := series(rep.Solver)
			s.Points = append(s.Points, p)
		}
		best.Points = append(best.Points, point(c, portfolio.Objective(problem, r.Solution.Cost), wall, err))
	}
	for _, name := range order {
		res.Series = append(res.Series, *bySolver[name])
	}
	return res
}

// PortfolioComparison reproduces the paper's Section 7 solver-comparison
// methodology through the portfolio engine: for each dataset panel every
// applicable solver is raced concurrently at every sweep point, and the
// per-solver reports become the comparison table. The "Portfolio" series
// is the envelope the engine actually serves: the best objective across
// solvers at the wall time of the slowest raced solver.
func PortfolioComparison(cfg Config) []Result {
	var out []Result
	for _, g := range figureDatasets(cfg, "datasharing", "styleguide") {
		mst, err := core.MST(context.Background(), g)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", g.Name, err))
		}
		minStorage := mst.Cost.Storage
		hi := 4 * minStorage
		if total := g.TotalNodeStorage(); hi > total {
			hi = total
		}
		eng := portfolioEngine(cfg, cfg.ILP && g.Name == "datasharing")
		r := portfolioSweep(g, core.ProblemMSR, sweep(minStorage, hi, cfg.SweepPoints), eng)
		r.Figure = "Portfolio (MSR race)"
		out = append(out, r)
	}
	for _, g := range figureDatasets(cfg, "styleguide", "freeCodeCamp") {
		mst, err := core.MST(context.Background(), g)
		if err != nil {
			panic(fmt.Sprintf("experiments: %s: %v", g.Name, err))
		}
		maxR := mst.Cost.MaxRetrieval
		eng := portfolioEngine(cfg, false)
		r := portfolioSweep(g, core.ProblemBMR, sweep(0, maxR, cfg.SweepPoints), eng)
		r.Figure = "Portfolio (BMR race)"
		out = append(out, r)
	}
	return out
}
