package versioning

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/portfolio"
	"repro/internal/repogen"
)

// TestAsyncMaintenanceUnderLoad hammers Commit/Checkout/Stats/Summary
// while background maintenance passes solve and install plans (run with
// -race). Every acknowledged commit must check out byte-identical at
// all times, no matter how many migrations happen underneath.
func TestAsyncMaintenanceUnderLoad(t *testing.T) {
	r := NewRepository("hammer", RepositoryOptions{
		ReplanEvery:   3, // migrate constantly
		CacheEntries:  8, // force real reconstructions
		EngineOptions: testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()

	var mu sync.RWMutex
	contents := map[NodeID][]string{}
	var known []NodeID // committers may record out of id order
	record := func(id NodeID, lines []string) {
		mu.Lock()
		contents[id] = lines
		known = append(known, id)
		mu.Unlock()
	}
	randomKnown := func(rng *rand.Rand) (NodeID, []string, bool) {
		mu.RLock()
		defer mu.RUnlock()
		if len(known) == 0 {
			return 0, nil, false
		}
		id := known[rng.Intn(len(known))]
		return id, contents[id], true
	}

	root, err := r.Commit(ctx, NoParent, []string{"hammer root"})
	if err != nil {
		t.Fatal(err)
	}
	record(root, []string{"hammer root"})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 32)
	// Committers: each chains versions off random known parents.
	const committers, commitsEach = 4, 25
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(1000 + w)))
			for i := 0; i < commitsEach; i++ {
				parent, _, ok := randomKnown(rng)
				if !ok {
					continue
				}
				lines := []string{
					fmt.Sprintf("worker %d commit %d", w, i),
					fmt.Sprintf("payload %d", rng.Int()),
				}
				id, err := r.Commit(ctx, parent, lines)
				if err != nil {
					errCh <- fmt.Errorf("commit (worker %d, i %d): %w", w, i, err)
					return
				}
				record(id, lines)
			}
		}(w)
	}
	// Readers: checkouts must match the recorded bytes mid-migration.
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(2000 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				id, want, ok := randomKnown(rng)
				if !ok {
					continue
				}
				got, err := r.Checkout(ctx, id)
				if err != nil {
					errCh <- fmt.Errorf("checkout %d: %w", id, err)
					return
				}
				if !reflect.DeepEqual(got, want) {
					errCh <- fmt.Errorf("checkout %d drifted mid-maintenance", id)
					return
				}
			}
		}(w)
	}
	// Pollers: the read-only state paths must stay consistent throughout.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				st := r.Stats()
				if st.Versions < 1 {
					errCh <- fmt.Errorf("stats lost the root: %+v", st)
					return
				}
				_ = r.Summary()
				_ = r.Plan()
			}
		}()
	}
	// One goroutine forces extra passes through the explicit path, which
	// shares runPass with the background workers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 3; i++ {
			if err := r.Replan(ctx); err != nil {
				errCh <- fmt.Errorf("explicit replan: %w", err)
				return
			}
		}
	}()

	// Wait for committers (first goroutines added), then release readers.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.After(2 * time.Minute)
	for {
		mu.RLock()
		n := len(contents)
		mu.RUnlock()
		if n >= 1+committers*commitsEach {
			break
		}
		select {
		case err := <-errCh:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("hammer stalled at %d commits", n)
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(stop)
	<-done
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	if err := r.WaitMaintenance(ctx); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Replans == 0 || st.AsyncReplans == 0 {
		t.Fatalf("no background maintenance ran: %+v", st)
	}
	if st.ReplanError != "" {
		t.Fatalf("maintenance error under load: %s", st.ReplanError)
	}
	// Full differential sweep after the dust settles.
	for id, want := range contents {
		got, err := r.Checkout(ctx, id)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("final checkout %d = %v, %v", id, got, err)
		}
	}
}

// TestAsyncReplanDifferential pins the differential property directly:
// checkouts return identical bytes before, during, and after a re-plan
// pass that migrates the whole store.
func TestAsyncReplanDifferential(t *testing.T) {
	src := repogen.GenerateRepo("differential", 32, 19)
	r := NewRepository("differential", RepositoryOptions{
		ReplanEvery:   -1, // passes run only when this test says so
		CacheEntries:  -1, // every checkout walks the real storage chain
		EngineOptions: testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()
	ingest(t, r, src)
	verifyAll(t, r, src) // before

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := NodeID(rng.Intn(src.Graph.N()))
				got, err := r.Checkout(ctx, v)
				if err != nil {
					errCh <- fmt.Errorf("checkout %d during re-plan: %w", v, err)
					return
				}
				if !reflect.DeepEqual(got, src.Contents[v]) {
					errCh <- fmt.Errorf("checkout %d drifted during re-plan", v)
					return
				}
			}
		}(w)
	}
	// Two full migrations while the readers run: the second migrates away
	// from an already-optimized layout, not just the incremental chain.
	for i := 0; i < 2; i++ {
		if err := r.Replan(ctx); err != nil {
			t.Fatalf("replan %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	verifyAll(t, r, src) // after
	if st := r.Stats(); st.Replans != 2 || st.Migrations != 2 || st.MigrationMicros <= 0 {
		t.Fatalf("Stats after differential = %+v, want 2 installed plans", st)
	}
}

// TestReplanReadsWhatThePlanChanged: a pass over a history that was
// planned two commits ago checks out the versions its PlanRecord says it
// preloaded and no others, well short of the whole history, and writes
// the objects it reports.
func TestReplanReadsWhatThePlanChanged(t *testing.T) {
	src := repogen.GenerateRepo("incremental", 42, 23)
	r := NewRepository("incremental", RepositoryOptions{
		Problem:       ProblemMSR,
		ReplanEvery:   -1,
		CacheEntries:  -1,
		EngineOptions: testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()
	commitTo := func(n int) {
		for v := r.Versions(); v < n; v++ {
			if _, err := r.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
				t.Fatal(err)
			}
		}
	}
	commitTo(40)
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	if hist, _ := r.PlanHistory(); hist[0].PreloadVersions == 0 || hist[0].MigrationObjects == 0 {
		t.Fatalf("the first pass moved nothing off the incremental chain: %+v", hist[0])
	}
	commitTo(42)
	before := r.Stats()
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	after := r.Stats()
	hist, _ := r.PlanHistory()
	rec := hist[len(hist)-1]
	if got := after.Checkouts - before.Checkouts; got != int64(rec.PreloadVersions) {
		t.Fatalf("the pass checked out %d versions, its record says %d", got, rec.PreloadVersions)
	}
	if 2*rec.PreloadVersions >= rec.Versions {
		t.Fatalf("the pass preloaded %d of %d versions", rec.PreloadVersions, rec.Versions)
	}
	if got := after.MigrationObjects - before.MigrationObjects; got != rec.MigrationObjects || got > int64(after.Objects) {
		t.Fatalf("the pass wrote %d objects, its record says %d, the backend holds %d", got, rec.MigrationObjects, after.Objects)
	}
	verifyAll(t, r, src)
}

// TestReplanFailureSurfacesAndRetries pins the failure contract: a
// failed background pass surfaces via Stats().ReplanError, does NOT
// reset the commits-since-plan counter (so the next commit past the
// cadence retries instead of wedging for a whole extra window), and a
// healed solver clears the error on the next pass.
func TestReplanFailureSurfacesAndRetries(t *testing.T) {
	const every = 3
	r := NewRepository("failing", RepositoryOptions{
		ReplanEvery:   every,
		EngineOptions: testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()
	boom := errors.New("injected solver failure")
	healthy := r.solve
	r.solve = func(context.Context, *Graph, Problem, Cost) (PortfolioResult, error) {
		return PortfolioResult{}, boom
	}

	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < every+1; i++ {
		if _, err := r.Commit(ctx, 0, []string{"root", fmt.Sprintf("child %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.WaitMaintenance(ctx); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Replans != 0 || st.ReplanFailures == 0 {
		t.Fatalf("failing solver installed a plan: %+v", st)
	}
	if !strings.Contains(st.ReplanError, "injected solver failure") {
		t.Fatalf("ReplanError = %q, want the injected failure surfaced", st.ReplanError)
	}
	if st.CommitsPending < every {
		t.Fatalf("failed pass reset the re-plan cadence (CommitsPending %d): the trigger is wedged", st.CommitsPending)
	}

	// Heal the solver; the very next commit must retry and succeed.
	// (WaitMaintenance above synchronizes with the worker, and the next
	// trigger orders this write before the worker's next read.)
	r.solve = healthy
	if _, err := r.Commit(ctx, 0, []string{"root", "healed"}); err != nil {
		t.Fatal(err)
	}
	if err := r.WaitMaintenance(ctx); err != nil {
		t.Fatal(err)
	}
	st = r.Stats()
	if st.Replans == 0 {
		t.Fatalf("healed solver did not retry on the next trigger: %+v", st)
	}
	if st.ReplanError != "" {
		t.Fatalf("stale ReplanError after a successful pass: %q", st.ReplanError)
	}
	for v := 0; v < r.Versions(); v++ {
		if _, err := r.Checkout(ctx, NodeID(v)); err != nil {
			t.Fatalf("Checkout(%d) after failure/heal cycle: %v", v, err)
		}
	}
}

// TestMaintenanceSyncMode pins MaintenanceWorkers < 0: the commit that
// trips ReplanEvery blocks until the re-plan completes, so Stats is
// deterministic immediately after Commit returns — the pre-async
// behavior, with no background goroutine work at all.
func TestMaintenanceSyncMode(t *testing.T) {
	src := repogen.GenerateRepo("syncmode", 20, 23)
	r := NewRepository("syncmode", RepositoryOptions{
		ReplanEvery:        5,
		MaintenanceWorkers: -1,
		EngineOptions:      testEngineOptions(),
	})
	defer r.Close()
	ingest(t, r, src)
	st := r.Stats()
	if st.Replans == 0 {
		t.Fatalf("synchronous maintenance did not re-plan inline: %+v", st)
	}
	if st.AsyncReplans != 0 {
		t.Fatalf("synchronous mode ran background passes: %+v", st)
	}
	verifyAll(t, r, src)
}

// TestWaitMaintenanceCloseUnblocks: a WaitMaintenance blocked on a
// pending pass must return when the repository closes underneath it
// rather than hang forever.
func TestWaitMaintenanceCloseUnblocks(t *testing.T) {
	r := NewRepository("waitclose", RepositoryOptions{
		ReplanEvery:   2,
		EngineOptions: testEngineOptions(),
	})
	ctx := context.Background()
	// A solver that stalls until the maintenance context is canceled, so
	// the pass is reliably in flight when Close runs.
	started := make(chan struct{}, 8)
	r.solve = func(ctx context.Context, g *Graph, p Problem, c Cost) (PortfolioResult, error) {
		started <- struct{}{}
		<-ctx.Done()
		return PortfolioResult{}, ctx.Err()
	}
	if _, err := r.Commit(ctx, NoParent, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(ctx, 0, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	<-started // the pass is inside the stalling solver
	waitErr := make(chan error, 1)
	go func() { waitErr <- r.WaitMaintenance(ctx) }()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("WaitMaintenance after Close: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("WaitMaintenance hung across Close")
	}
}

// decideGraph is a seeded version graph with merge deltas, the shape a
// pass's snapshot has.
func decideGraph(seed int64) *Graph {
	return repogen.Generate(repogen.Spec{Name: "decide", Commits: 300, ExtraBiEdges: 40,
		AvgNodeCost: 10_000, AvgDeltaCost: 400, BranchProb: 0.2, Seed: seed})
}

// TestDecide drives a pass's decision with no repository, store or lock:
// under every regime and the serving engine, the plan decide returns
// fits the snapshot, meets the constraint it recorded, evaluated here
// rather than taken from a solver's report, and is the winner's.
func TestDecide(t *testing.T) {
	solve := NewEngine(testEngineOptions()).Solve
	for seed := int64(1); seed <= 3; seed++ {
		snap := decideGraph(seed)
		for _, problem := range []Problem{ProblemMSR, ProblemMMR, ProblemBSR, ProblemBMR, ProblemMST, ProblemSPT} {
			name := fmt.Sprintf("seed %d %s", seed, problem)
			p, rec, err := decide(context.Background(), snap, RepositoryOptions{Problem: problem, AutoFactor: 2}, solve)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := p.Validate(snap); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got, c := Evaluate(snap, p), rec.Constraint
			var bound Cost // what the regime's constraint bounds
			switch problem {
			case ProblemMSR, ProblemMMR:
				bound = got.Storage
			case ProblemBSR:
				bound = got.SumRetrieval
			case ProblemBMR:
				bound = got.MaxRetrieval
			}
			if constrained := problem != ProblemMST && problem != ProblemSPT; constrained != (c > 0) || bound > c {
				t.Fatalf("%s: plan %+v against constraint %d", name, got, c)
			}
			if rec.Versions != snap.N() || rec.Deltas != snap.M() || rec.Problem != problem.String() {
				t.Fatalf("%s: record sizes %d/%d %s, snapshot %d/%d", name, rec.Versions, rec.Deltas, rec.Problem, snap.N(), snap.M())
			}
			i := slices.IndexFunc(rec.Reports, func(rr SolverRaceReport) bool { return rr.Solver == rec.Winner })
			if i < 0 || rec.Reports[i].Err != "" || *rec.Reports[i].PlanCost != got {
				t.Fatalf("%s: winner %q, reports %+v, plan %+v", name, rec.Winner, rec.Reports, got)
			}
		}
	}
}

// TestDecideFailures races members that all fail, in the three ways a
// race can: every member infeasible, every member erring, and the
// caller's ctx cancelled. decide returns the race's error and no plan.
func TestDecideFailures(t *testing.T) {
	snap := decideGraph(1)
	boom := errors.New("injected member failure")
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, tc := range []struct {
		name   string
		ctx    context.Context
		member error // what every member returns; nil returns its ctx's error
		want   error
	}{
		{"infeasible", context.Background(), ErrInfeasible, ErrInfeasible},
		{"failing", context.Background(), boom, boom},
		{"cancelled", cancelled, nil, context.Canceled},
	} {
		fake := portfolio.Solver{Solve: func(ctx context.Context, _ *graph.Graph, _ graph.Cost) (core.Solution, error) {
			if tc.member == nil {
				return core.Solution{}, ctx.Err()
			}
			return core.Solution{}, tc.member
		}}
		e := portfolio.New(portfolio.Options{Registry: func(core.Problem) []portfolio.Solver {
			a, b := fake, fake
			a.Name, b.Name = "a", "b"
			return []portfolio.Solver{a, b}
		}})
		p, rec, err := decide(tc.ctx, snap, RepositoryOptions{Problem: ProblemMSR, AutoFactor: 2}, e.Solve)
		if !errors.Is(err, tc.want) || p != nil {
			t.Fatalf("%s: plan %v, err %v, want %v", tc.name, p, err, tc.want)
		}
		if rec.Constraint <= 0 || len(rec.Reports) != 2 || rec.Winner != "" {
			t.Fatalf("%s: record %+v", tc.name, rec)
		}
	}
}
