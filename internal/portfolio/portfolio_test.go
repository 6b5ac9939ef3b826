package portfolio

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/dptree"
	"repro/internal/graph"
	"repro/internal/lmg"
	"repro/internal/mp"
)

func testGraph(seed int64, nodes int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.Random(graph.RandomOptions{Nodes: nodes, ExtraEdges: nodes / 2, Bidirected: true}, rng)
}

// msrBudget returns a storage budget between the minimum feasible storage
// and materializing everything.
func msrBudget(t *testing.T, g *graph.Graph) graph.Cost {
	t.Helper()
	mst, err := core.MST(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	minS := mst.Cost.Storage
	return minS + (g.TotalNodeStorage()-minS)/2
}

// TestRaceRunsFullPortfolio checks that one Solve races every registered
// solver for MSR and BMR and reports each of them.
func TestRaceRunsFullPortfolio(t *testing.T) {
	g := testGraph(1, 12)
	e := New(Options{})
	ctx := context.Background()

	msr, err := e.Solve(ctx, g, core.ProblemMSR, msrBudget(t, g))
	if err != nil {
		t.Fatal(err)
	}
	bmr, err := e.Solve(ctx, g, core.ProblemBMR, g.MaxEdgeRetrieval()*3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		res  Result
		want int
	}{{"MSR", msr, 3}, {"BMR", bmr, 2}} {
		if len(tc.res.Reports) != tc.want {
			t.Fatalf("%s: raced %d solvers, want %d", tc.name, len(tc.res.Reports), tc.want)
		}
		finished := 0
		for _, r := range tc.res.Reports {
			if r.Err == nil {
				finished++
			}
		}
		if finished < 2 {
			t.Fatalf("%s: only %d solvers finished: %+v", tc.name, finished, tc.res.Reports)
		}
		if tc.res.Winner == "" || tc.res.Solution.Plan == nil {
			t.Fatalf("%s: no winner in %+v", tc.name, tc.res)
		}
		if err := tc.res.Solution.Plan.Validate(g); err != nil {
			t.Fatalf("%s: winning plan invalid: %v", tc.name, err)
		}
	}
}

// TestWinnerIsBestReport checks that the winner matches the best feasible
// per-solver report.
func TestWinnerIsBestReport(t *testing.T) {
	g := testGraph(2, 10)
	e := New(Options{})
	res, err := e.Solve(context.Background(), g, core.ProblemMSR, msrBudget(t, g))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Reports {
		if r.Err == nil && r.Cost.SumRetrieval < res.Solution.Cost.SumRetrieval {
			t.Fatalf("solver %s (%d) beats declared winner %s (%d)",
				r.Solver, r.Cost.SumRetrieval, res.Winner, res.Solution.Cost.SumRetrieval)
		}
	}
}

// TestPerSolverTimeout injects a solver that never finishes and checks the
// race still wins with the others while the straggler reports its
// deadline.
func TestPerSolverTimeout(t *testing.T) {
	g := testGraph(3, 8)
	stuck := Solver{Name: "stuck", Solve: func(ctx context.Context, _ *graph.Graph, _ graph.Cost) (core.Solution, error) {
		<-ctx.Done()
		return core.Solution{}, ctx.Err()
	}}
	e := New(Options{
		SolverTimeout: 30 * time.Millisecond,
		Registry: func(p core.Problem) []Solver {
			return append([]Solver{stuck}, DefaultRegistry(p)...)
		},
	})
	start := time.Now()
	res, err := e.Solve(context.Background(), g, core.ProblemBMR, g.MaxEdgeRetrieval()*2)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("race blocked on the stuck solver for %v", elapsed)
	}
	if res.Winner == "stuck" || res.Winner == "" {
		t.Fatalf("bad winner %q", res.Winner)
	}
	if got := res.Reports[0]; got.Solver != "stuck" || !errors.Is(got.Err, context.DeadlineExceeded) {
		t.Fatalf("stuck solver report = %+v, want DeadlineExceeded", got)
	}
}

// TestRaceSharesMinStorage checks that the members of one race read one
// min-storage arborescence, and that two races do not share theirs.
func TestRaceSharesMinStorage(t *testing.T) {
	g := testGraph(9, 10)
	var mu sync.Mutex
	var seen []*core.MinStorage
	probe := Solver{Name: "probe", Solve: func(ctx context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
		m, err := core.MinStorageOf(ctx, g)
		if err != nil {
			return core.Solution{}, err
		}
		mu.Lock()
		seen = append(seen, m)
		mu.Unlock()
		return core.MST(context.Background(), g)
	}}
	e := New(Options{Registry: func(core.Problem) []Solver { return []Solver{probe, probe, probe} }})
	for race := 0; race < 2; race++ {
		if _, err := e.Solve(context.Background(), g, core.ProblemMSR, g.TotalNodeStorage()); err != nil {
			t.Fatal(err)
		}
	}
	if len(seen) != 6 {
		t.Fatalf("%d probes ran, want 6", len(seen))
	}
	for i := range seen {
		if seen[i] != seen[i/3*3] {
			t.Fatalf("probe %d of race %d read its own arborescence", i%3, i/3)
		}
	}
	if seen[0] == seen[3] {
		t.Fatal("two races shared one arborescence")
	}
}

// TestCancellation checks a cancelled context aborts the whole race with
// ctx.Err().
func TestCancellation(t *testing.T) {
	g := testGraph(4, 10)
	e := New(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Solve(ctx, g, core.ProblemMSR, msrBudget(t, g)); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// tripCtx cancels the race it belongs to from inside a solver: its at-th
// Err call calls cancel. It counts the calls, so a test sees whether the
// solver went on after the check that cancelled it.
type tripCtx struct {
	context.Context
	at     int
	cancel context.CancelFunc
	calls  int
	err    error // what the solver returned
}

func (c *tripCtx) Err() error {
	c.calls++
	if c.calls == c.at {
		c.cancel()
	}
	return c.Context.Err()
}

// TestCancelInsideSolver cancels a race from inside its one member and
// checks that the race returns context.Canceled and that the member stops
// at the check that saw the cancellation: DP-MSR within the merge, DP-BMR
// within the node, LMG and LMG-All within the move.
func TestCancelInsideSolver(t *testing.T) {
	g := testGraph(12, 60)
	for _, tc := range []struct {
		problem    core.Problem
		family     string
		constraint graph.Cost
		at         int
	}{
		{core.ProblemMSR, "dp", msrBudget(t, g), 30}, // of 59 merges
		{core.ProblemBMR, "dp", g.MaxEdgeRetrieval() * 3, 30},
		{core.ProblemMSR, "lmg", msrBudget(t, g), 2},
		{core.ProblemMSR, "lmg-all", msrBudget(t, g), 2},
	} {
		m, err := Member(tc.problem, tc.family)
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		exited := make(chan *tripCtx, 1)
		e := New(Options{Registry: func(core.Problem) []Solver {
			return []Solver{{Name: m.Name, Solve: func(ctx context.Context, g *graph.Graph, c graph.Cost) (core.Solution, error) {
				trip := &tripCtx{Context: ctx, at: tc.at, cancel: cancel}
				sol, err := m.Solve(trip, g, c)
				trip.err = err
				exited <- trip
				return sol, err
			}}}
		}})
		if _, err := e.Solve(ctx, g, tc.problem, tc.constraint); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: race err = %v, want context.Canceled", m.Name, err)
		}
		select {
		case trip := <-exited:
			if !errors.Is(trip.err, context.Canceled) {
				t.Fatalf("%s: solver returned %v, want context.Canceled", m.Name, trip.err)
			}
			if trip.calls != tc.at {
				t.Fatalf("%s: solver checked its context %d times, cancelled at check %d", m.Name, trip.calls, tc.at)
			}
		case <-time.After(time.Minute):
			t.Fatalf("%s: solver still running a minute after its race was cancelled", m.Name)
		}
		cancel()
	}
}

// TestInfeasibleAggregation checks the solver contract: at a constraint
// nothing meets, every registry member, each solver package's
// entry point and the engine's race return core.ErrInfeasible
// themselves, and at a generous one each returns a valid plan within it.
func TestInfeasibleAggregation(t *testing.T) {
	g := testGraph(5, 8)
	ctx := context.Background()
	mst, err := core.MST(ctx, g)
	if err != nil {
		t.Fatal(err)
	}
	// No plan stores less than the min storage or retrieves for less
	// than 0; materializing every version meets any budget of its
	// storage and any retrieval bound of 0 or more.
	tight := map[core.Problem]graph.Cost{
		core.ProblemMSR: mst.Cost.Storage - 1, core.ProblemMMR: mst.Cost.Storage - 1,
		core.ProblemBMR: -1, core.ProblemBSR: -1,
	}
	loose := map[core.Problem]graph.Cost{
		core.ProblemMSR: g.TotalNodeStorage(), core.ProblemMMR: g.TotalNodeStorage(),
		core.ProblemBMR: mst.Cost.MaxRetrieval, core.ProblemBSR: mst.Cost.SumRetrieval,
	}
	type call struct {
		name    string
		problem core.Problem
		solve   func(graph.Cost) (core.Solution, error)
	}
	onG := func(solve func(context.Context, *graph.Graph, graph.Cost) (core.Solution, error)) func(graph.Cost) (core.Solution, error) {
		return func(c graph.Cost) (core.Solution, error) { return solve(ctx, g, c) }
	}
	var calls []call
	e := New(Options{})
	for _, p := range []core.Problem{core.ProblemMSR, core.ProblemBMR, core.ProblemMMR, core.ProblemBSR} {
		for _, s := range DefaultRegistry(p) {
			calls = append(calls, call{p.String() + "/" + s.Name, p, onG(s.Solve)})
		}
		calls = append(calls, call{p.String() + "/engine", p, func(c graph.Cost) (core.Solution, error) {
			r, err := e.Solve(ctx, g, p, c)
			return r.Solution, err
		}})
	}
	dpOpts := dptree.DefaultMSROptions()
	calls = append(calls,
		call{"lmg.LMG", core.ProblemMSR, onG(lmg.LMG)},
		call{"lmg.LMGAll", core.ProblemMSR, onG(lmg.LMGAll)},
		call{"dptree.MSROnGraph", core.ProblemMSR, func(c graph.Cost) (core.Solution, error) { return dptree.MSROnGraph(ctx, g, c, dpOpts) }},
		call{"dptree.BMROnGraph", core.ProblemBMR, onG(dptree.BMROnGraph)},
		call{"mp.Solve", core.ProblemBMR, func(c graph.Cost) (core.Solution, error) { return mp.Solve(g, c) }},
		call{"bruteforce.SolveMSR", core.ProblemMSR, func(c graph.Cost) (core.Solution, error) { return bruteforce.SolveMSR(g, c, 0) }},
		call{"bruteforce.SolveMMR", core.ProblemMMR, func(c graph.Cost) (core.Solution, error) { return bruteforce.SolveMMR(g, c, 0) }},
		call{"bruteforce.SolveBSR", core.ProblemBSR, func(c graph.Cost) (core.Solution, error) { return bruteforce.SolveBSR(g, c, 0) }},
		call{"bruteforce.SolveBMR", core.ProblemBMR, func(c graph.Cost) (core.Solution, error) { return bruteforce.SolveBMR(g, c, 0) }},
	)
	for _, c := range calls {
		if _, err := c.solve(tight[c.problem]); !errors.Is(err, core.ErrInfeasible) {
			t.Errorf("%s at %d: err = %v, want core.ErrInfeasible", c.name, tight[c.problem], err)
		}
		sol, err := c.solve(loose[c.problem])
		if err != nil {
			t.Errorf("%s at %d: %v", c.name, loose[c.problem], err)
			continue
		}
		if err := sol.Plan.Validate(g); err != nil {
			t.Errorf("%s at %d: %v", c.name, loose[c.problem], err)
		}
		if err := checkConstraint(c.problem, loose[c.problem], sol.Cost); err != nil {
			t.Errorf("%s at %d: %v", c.name, loose[c.problem], err)
		}
	}
}

// TestConcurrentSolves hammers one engine from many goroutines across
// problems and instances; run under -race this is the engine's
// thread-safety certificate.
func TestConcurrentSolves(t *testing.T) {
	e := New(Options{})
	ctx := context.Background()
	graphs := []*graph.Graph{testGraph(8, 8), testGraph(9, 10), testGraph(10, 12)}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 16; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			g := graphs[w%len(graphs)]
			if w%2 == 0 {
				s := g.TotalNodeStorage()
				if _, err := e.Solve(ctx, g, core.ProblemMSR, s); err != nil {
					errs <- err
				}
			} else {
				if _, err := e.Solve(ctx, g, core.ProblemBMR, g.MaxEdgeRetrieval()*3); err != nil {
					errs <- err
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestMMRAndBSRThroughEngine exercises the Lemma 7 lifted portfolios.
func TestMMRAndBSRThroughEngine(t *testing.T) {
	g := testGraph(11, 9)
	e := New(Options{})
	ctx := context.Background()

	mmr, err := e.Solve(ctx, g, core.ProblemMMR, g.TotalNodeStorage())
	if err != nil {
		t.Fatal(err)
	}
	if len(mmr.Reports) < 2 || !mmr.Solution.Cost.Feasible {
		t.Fatalf("MMR result %+v", mmr)
	}
	bsr, err := e.Solve(ctx, g, core.ProblemBSR, mmr.Solution.Cost.SumRetrieval+1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(bsr.Reports) < 2 || !bsr.Solution.Cost.Feasible {
		t.Fatalf("BSR result %+v", bsr)
	}
}
