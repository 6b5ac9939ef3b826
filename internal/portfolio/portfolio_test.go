package portfolio

import (
	"context"
	"errors"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/plan"
)

func testGraph(seed int64, nodes int) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	return graph.Random(graph.RandomOptions{Nodes: nodes, ExtraEdges: nodes / 2, Bidirected: true}, rng)
}

// msrBudget returns a storage budget between the minimum feasible storage
// and materializing everything.
func msrBudget(t *testing.T, g *graph.Graph) graph.Cost {
	t.Helper()
	_, minS, err := plan.MinStorage(g)
	if err != nil {
		t.Fatal(err)
	}
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
	}{{"MSR", msr, 4}, {"BMR", bmr, 2}} {
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
	reg := DefaultRegistry(Tuning{})
	e := New(Options{
		SolverTimeout: 30 * time.Millisecond,
		Registry: func(p core.Problem) []Solver {
			return append([]Solver{stuck}, reg(p)...)
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

// TestInfeasibleAggregation checks that a constraint no solver can meet
// comes back as core.ErrInfeasible.
func TestInfeasibleAggregation(t *testing.T) {
	g := testGraph(5, 8)
	e := New(Options{})
	if _, err := e.Solve(context.Background(), g, core.ProblemMSR, 0); !errors.Is(err, core.ErrInfeasible) {
		t.Fatalf("err = %v, want core.ErrInfeasible", err)
	}
}

// TestCacheHitOnIdenticalGraph checks memoization by content fingerprint:
// a repeat solve — even through a clone with a different name — is served
// from the cache.
func TestCacheHitOnIdenticalGraph(t *testing.T) {
	g := testGraph(6, 10)
	e := New(Options{})
	ctx := context.Background()
	s := msrBudget(t, g)

	first, err := e.Solve(ctx, g, core.ProblemMSR, s)
	if err != nil {
		t.Fatal(err)
	}
	if first.CacheHit {
		t.Fatal("first solve reported a cache hit")
	}
	clone := g.Clone()
	clone.Name = "renamed"
	second, err := e.Solve(ctx, clone, core.ProblemMSR, s)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("identical instance missed the cache")
	}
	if second.Winner != first.Winner || second.Solution.Cost != first.Solution.Cost {
		t.Fatalf("cached result diverged: %+v vs %+v", second.Solution.Cost, first.Solution.Cost)
	}
	// A different constraint is a different instance.
	third, err := e.Solve(ctx, g, core.ProblemMSR, s+1)
	if err != nil {
		t.Fatal(err)
	}
	if third.CacheHit {
		t.Fatal("different constraint hit the cache")
	}
	if e.CacheLen() != 2 {
		t.Fatalf("cache holds %d entries, want 2", e.CacheLen())
	}
}

// TestCachedPlanIsolation checks that mutating a returned plan — hit or
// miss — cannot corrupt what later cache hits observe.
func TestCachedPlanIsolation(t *testing.T) {
	g := testGraph(14, 10)
	e := New(Options{})
	ctx := context.Background()
	s := msrBudget(t, g)

	first, err := e.Solve(ctx, g, core.ProblemMSR, s)
	if err != nil {
		t.Fatal(err)
	}
	// Vandalize the leader's copy.
	for i := range first.Solution.Plan.Stored {
		first.Solution.Plan.Stored[i] = !first.Solution.Plan.Stored[i]
	}
	second, err := e.Solve(ctx, g, core.ProblemMSR, s)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatal("expected a cache hit")
	}
	if got := plan.Evaluate(g, second.Solution.Plan); got != second.Solution.Cost {
		t.Fatalf("cached plan corrupted by caller mutation: evaluates to %+v, reported %+v", got, second.Solution.Cost)
	}
	// And the hit's copy is equally isolated.
	second.Solution.Plan.Materialized[0] = !second.Solution.Plan.Materialized[0]
	third, err := e.Solve(ctx, g, core.ProblemMSR, s)
	if err != nil {
		t.Fatal(err)
	}
	if got := plan.Evaluate(g, third.Solution.Plan); got != third.Solution.Cost {
		t.Fatalf("cache hit shares plan memory: %+v vs %+v", got, third.Solution.Cost)
	}
}

// TestInfeasibleResultCached checks that proven infeasibility is
// memoized: the repeat solve must not re-run the race.
func TestInfeasibleResultCached(t *testing.T) {
	g := testGraph(15, 8)
	races := 0
	var mu sync.Mutex
	counting := Solver{Name: "counting", Solve: func(_ context.Context, g *graph.Graph, s graph.Cost) (core.Solution, error) {
		mu.Lock()
		races++
		mu.Unlock()
		return core.Solution{}, core.ErrInfeasible
	}}
	e := New(Options{Registry: func(core.Problem) []Solver { return []Solver{counting} }})
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.Solve(ctx, g, core.ProblemMSR, 0); !errors.Is(err, core.ErrInfeasible) {
			t.Fatalf("solve %d: err = %v, want core.ErrInfeasible", i, err)
		}
	}
	if races != 1 {
		t.Fatalf("infeasible instance raced %d times, want 1", races)
	}
}

// TestCacheEviction checks the FIFO bound.
func TestCacheEviction(t *testing.T) {
	g := testGraph(7, 8)
	e := New(Options{CacheSize: 2})
	ctx := context.Background()
	base := msrBudget(t, g)
	for i := graph.Cost(0); i < 4; i++ {
		if _, err := e.Solve(ctx, g, core.ProblemMSR, base+i); err != nil {
			t.Fatal(err)
		}
	}
	if e.CacheLen() != 2 {
		t.Fatalf("cache holds %d entries, want 2", e.CacheLen())
	}
	// The oldest entry was evicted, the newest survives.
	res, err := e.Solve(ctx, g, core.ProblemMSR, base+3)
	if err != nil {
		t.Fatal(err)
	}
	if !res.CacheHit {
		t.Fatal("newest entry should still be cached")
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
