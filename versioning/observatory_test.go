package versioning

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPlanRecordTimesConstraint checks that a pass with an automatic
// constraint records the time its min-storage arborescence took, inside
// the pass's total. The history is long enough for that to take whole
// microseconds.
func TestPlanRecordTimesConstraint(t *testing.T) {
	r := NewRepository("constraint", RepositoryOptions{
		Problem:            ProblemMSR,
		ReplanEvery:        -1,
		MaintenanceWorkers: -1,
		EngineOptions:      testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 400; i++ {
		if _, err := r.Commit(ctx, NodeID(i-1-i%3), []string{"root", fmt.Sprintf("line %d", i), fmt.Sprintf("tail %d", i%7)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	hist, _ := r.PlanHistory()
	rec := hist[len(hist)-1]
	if rec.Constraint <= 0 || rec.ConstraintUS <= 0 || rec.ConstraintUS > rec.TotalUS {
		t.Fatalf("auto-constrained pass: constraint %d took %d µs of the pass's %d µs", rec.Constraint, rec.ConstraintUS, rec.TotalUS)
	}
	t.Logf("constraint_us %d, solve_us %d, total_us %d", rec.ConstraintUS, rec.SolveUS, rec.TotalUS)
}

// TestPlanHistoryRecordsPasses pins the shape of a healthy PlanRecord:
// every completed pass lands in the ring with its trigger, a winner, a
// non-empty race report, predicted costs, and timings.
func TestPlanHistoryRecordsPasses(t *testing.T) {
	r := NewRepository("observatory", RepositoryOptions{
		ReplanEvery:        4,
		MaintenanceWorkers: -1, // deterministic: passes run inline in Commit
		EngineOptions:      testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 6; i++ {
		if _, err := r.Commit(ctx, NodeID(i-1), []string{"root", fmt.Sprintf("line %d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}

	hist, total := r.PlanHistory()
	if len(hist) == 0 || total != int64(len(hist)) {
		t.Fatalf("PlanHistory = %d records, total %d; want at least one with matching total", len(hist), total)
	}
	triggers := map[string]bool{}
	for i, rec := range hist {
		if rec.Seq != int64(i+1) {
			t.Fatalf("record %d has Seq %d, want %d", i, rec.Seq, i+1)
		}
		if rec.Failed || rec.Err != "" {
			t.Fatalf("healthy pass recorded as failed: %+v", rec)
		}
		if rec.Winner == "" || len(rec.Reports) == 0 {
			t.Fatalf("record %d lost its race report: %+v", i, rec)
		}
		if rec.Versions <= 0 || rec.Problem == "" {
			t.Fatalf("record %d lost its problem context: %+v", i, rec)
		}
		if rec.PredictedStorage <= 0 {
			t.Fatalf("record %d has no predicted cost: %+v", i, rec)
		}
		if rec.TotalUS <= 0 || rec.SolveUS < 0 || rec.UnixMS <= 0 {
			t.Fatalf("record %d has bogus timings: %+v", i, rec)
		}
		if rec.PreloadUS < 0 || rec.ConstraintUS < 0 || rec.ConstraintUS+rec.SolveUS+rec.PreloadUS+rec.MigrationUS > rec.TotalUS {
			t.Fatalf("record %d: constraint + solve + preload + migration exceed the pass: %+v", i, rec)
		}
		winnerRaced := false
		for _, rep := range rec.Reports {
			if rep.Solver == rec.Winner {
				winnerRaced = true
			}
		}
		if !winnerRaced {
			t.Fatalf("record %d: winner %q not among the race reports %+v", i, rec.Winner, rec.Reports)
		}
		triggers[rec.Trigger] = true
	}
	if !triggers["sync"] || !triggers["manual"] {
		t.Fatalf("triggers seen = %v, want both sync (cadence inline) and manual (Replan)", triggers)
	}

	st := r.Stats()
	if st.PlanRecords != total || st.PlanHistoryLen != len(hist) {
		t.Fatalf("Stats history counters (%d, %d) disagree with PlanHistory (%d, %d)",
			st.PlanRecords, st.PlanHistoryLen, total, len(hist))
	}
	if len(st.SolverWins) == 0 {
		t.Fatalf("Stats.SolverWins empty after %d passes", total)
	}
	var wins int64
	for _, n := range st.SolverWins {
		wins += n
	}
	if wins != total {
		t.Fatalf("SolverWins sum to %d, want %d", wins, total)
	}
	if st.RaceLatency == nil || st.RaceLatency.Count != uint64(total) {
		t.Fatalf("RaceLatency = %+v, want %d observations", st.RaceLatency, total)
	}
	if st.PredictedStorage <= 0 {
		t.Fatalf("Stats lost the last predicted cost: %+v", st)
	}
	if vitals := st.PlanContext(); !strings.Contains(vitals, "winner=") || !strings.Contains(vitals, "failures=0") {
		t.Fatalf("PlanContext = %q, want the plan vitals", vitals)
	}

	// A pass over an unchanged repository solves to the serving plan: it
	// reads no content and writes no object, and its record says so.
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	hist, _ = r.PlanHistory()
	idle := hist[len(hist)-1]
	if idle.PreloadVersions != 0 || idle.MigrationObjects != 0 || idle.MigrationBytes != 0 {
		t.Fatalf("idle re-plan preloaded %d versions and wrote %d objects / %d bytes, want none",
			idle.PreloadVersions, idle.MigrationObjects, idle.MigrationBytes)
	}
	if after := r.Stats(); after.Checkouts != st.Checkouts {
		t.Fatalf("idle re-plan checked out %d versions", after.Checkouts-st.Checkouts)
	}
}

// TestPlanHistoryRingBounds overflows the ring a repository serves and
// checks eviction keeps the newest planHistoryLen (64) records with
// contiguous Seq numbers, while the lifetime total counts every pass.
func TestPlanHistoryRingBounds(t *testing.T) {
	const passes = planHistoryLen + 7
	r := NewRepository("ring", RepositoryOptions{
		ReplanEvery:   -1, // manual passes only
		EngineOptions: testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < passes; i++ {
		if _, err := r.Commit(ctx, 0, []string{"root", fmt.Sprintf("round %d", i)}); err != nil {
			t.Fatal(err)
		}
		if err := r.Replan(ctx); err != nil {
			t.Fatal(err)
		}
	}
	hist, total := r.PlanHistory()
	if total != passes {
		t.Fatalf("lifetime total = %d, want %d", total, passes)
	}
	if len(hist) != 64 {
		t.Fatalf("ring holds %d records, want the 64-record bound", len(hist))
	}
	for i, rec := range hist {
		want := int64(passes - len(hist) + i + 1)
		if rec.Seq != want {
			t.Fatalf("ring[%d].Seq = %d, want %d (oldest-first, newest retained)", i, rec.Seq, want)
		}
	}
}

// TestPlanHistoryFailureRecord pins that a failed pass is recorded with
// its error and surfaces the failure timestamp through Stats.
func TestPlanHistoryFailureRecord(t *testing.T) {
	r := NewRepository("failrec", RepositoryOptions{
		ReplanEvery:   -1,
		EngineOptions: testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("injected observatory failure")
	healthy := r.solve
	r.solve = func(context.Context, *Graph, Problem, Cost) (PortfolioResult, error) {
		return PortfolioResult{}, boom
	}
	if err := r.Replan(ctx); err == nil {
		t.Fatal("Replan with a failing solver succeeded")
	}
	hist, total := r.PlanHistory()
	if total != 1 || len(hist) != 1 {
		t.Fatalf("failed pass not recorded: %d records, total %d", len(hist), total)
	}
	rec := hist[0]
	if !rec.Failed || !strings.Contains(rec.Err, "injected observatory failure") {
		t.Fatalf("failure record = %+v, want Failed with the injected error", rec)
	}
	if rec.Trigger != "manual" || rec.TotalUS <= 0 {
		t.Fatalf("failure record lost its context: %+v", rec)
	}
	st := r.Stats()
	if st.LastReplanFailureUnix <= 0 {
		t.Fatalf("Stats.LastReplanFailureUnix = %g, want the failure timestamp", st.LastReplanFailureUnix)
	}
	now := float64(time.Now().Unix())
	if st.LastReplanFailureUnix > now+1 || st.LastReplanFailureUnix < now-60 {
		t.Fatalf("LastReplanFailureUnix = %g, not near now (%g)", st.LastReplanFailureUnix, now)
	}

	// Healed passes append completed records after the failure.
	r.solve = healthy
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	hist, total = r.PlanHistory()
	if total != 2 || hist[1].Failed {
		t.Fatalf("healed pass not recorded cleanly: %+v (total %d)", hist, total)
	}
}

// TestRaceReportJSONKeys pins the keys of a /planz race report: a member
// that answered carries its plan's cost, and a failed one its error and
// no cost keys.
func TestRaceReportJSONKeys(t *testing.T) {
	r := NewRepository("racekeys", RepositoryOptions{ReplanEvery: -1, EngineOptions: testEngineOptions()})
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	healthy := r.solve
	r.solve = func(ctx context.Context, g *Graph, p Problem, c Cost) (PortfolioResult, error) {
		res, err := healthy(ctx, g, p, c)
		res.Reports = []SolverReport{
			{Solver: res.Winner, Cost: res.Solution.Cost, Duration: time.Millisecond},
			{Solver: "refuses", Err: fmt.Errorf("bound: %w", ErrInfeasible), Duration: time.Millisecond},
			{Solver: "breaks", Err: errors.New("injected solver failure"), Duration: time.Millisecond},
		}
		return res, err
	}
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	hist, _ := r.PlanHistory()
	b, err := json.Marshal(hist[len(hist)-1].Reports)
	if err != nil {
		t.Fatal(err)
	}
	var reports []map[string]any
	if err := json.Unmarshal(b, &reports); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"duration_us", "feasible", "max_retrieval", "solver", "storage", "sum_retrieval"},
		{"duration_us", "error", "infeasible", "solver"},
		{"duration_us", "error", "solver"},
	}
	if len(reports) != len(want) {
		t.Fatalf("race reports %s, want %d members", b, len(want))
	}
	for i, rep := range reports {
		if got := slices.Sorted(maps.Keys(rep)); !slices.Equal(got, want[i]) {
			t.Errorf("report %d keys %q, want %q", i, got, want[i])
		}
	}
	var decoded []SolverRaceReport
	if err := json.Unmarshal(b, &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded[0].PlanCost == nil || !decoded[0].Feasible || decoded[1].PlanCost != nil || decoded[2].PlanCost != nil {
		t.Fatalf("decoded race reports %+v: want a cost on the answering member only", decoded)
	}
}

// TestCheckoutUnknownVersions: a read of a version the repository never
// held fails with ErrUnknownVersion, item by item in a batch, and
// leaves the versions it does hold readable.
func TestCheckoutUnknownVersions(t *testing.T) {
	r := NewRepository("unknown", RepositoryOptions{ReplanEvery: -1, EngineOptions: testEngineOptions()})
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	for _, v := range []NodeID{-1, 7, 1 << 30} {
		if _, err := r.Checkout(ctx, v); !errors.Is(err, ErrUnknownVersion) {
			t.Fatalf("Checkout(%d) = %v, want ErrUnknownVersion", v, err)
		}
	}
	for i, res := range r.CheckoutBatch(ctx, []NodeID{42, 0, 43}) {
		if wantErr := i != 1; (res.Err != nil) != wantErr || (wantErr && !errors.Is(res.Err, ErrUnknownVersion)) {
			t.Fatalf("CheckoutBatch item %d: err %v", i, res.Err)
		}
	}
}

// TestLogAncestry pins the /log walk: first-parent chains back to the
// root, merge parents visible, limits honored, bad ids rejected.
func TestLogAncestry(t *testing.T) {
	r := NewRepository("log", RepositoryOptions{
		ReplanEvery:   -1,
		EngineOptions: testEngineOptions(),
	})
	defer r.Close()
	ctx := context.Background()
	// 0 <- 1 <- 3(merge of 3:=[1,2]) ; 0 <- 2
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(ctx, 0, []string{"root", "left"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(ctx, 0, []string{"root", "right"}); err != nil {
		t.Fatal(err)
	}
	merge, err := r.CommitMerge(ctx, []NodeID{1, 2}, []string{"root", "left", "right"})
	if err != nil {
		t.Fatal(err)
	}

	entries, err := r.Log(merge, 0)
	if err != nil {
		t.Fatal(err)
	}
	wantIDs := []NodeID{merge, 1, 0}
	if len(entries) != len(wantIDs) {
		t.Fatalf("Log(%d) = %+v, want the 3-entry first-parent chain", merge, entries)
	}
	for i, want := range wantIDs {
		if entries[i].ID != want {
			t.Fatalf("entry %d = version %d, want %d", i, entries[i].ID, want)
		}
	}
	if len(entries[0].Parents) != 2 || entries[0].Parents[0] != 1 || entries[0].Parents[1] != 2 {
		t.Fatalf("merge entry parents = %v, want [1 2] (merge ancestry visible)", entries[0].Parents)
	}
	if len(entries[2].Parents) != 0 {
		t.Fatalf("root entry has parents %v", entries[2].Parents)
	}

	if lim, err := r.Log(merge, 2); err != nil || len(lim) != 2 {
		t.Fatalf("Log(limit=2) = %v, %v; want 2 entries", lim, err)
	}
	if _, err := r.Log(99, 0); err == nil || !strings.Contains(err.Error(), "unknown version") {
		t.Fatalf("Log(99) err = %v, want unknown version", err)
	}
	if _, err := r.Log(-1, 0); err == nil {
		t.Fatal("Log(-1) succeeded")
	}
}

// TestObservatoryUnderHammer races the observatory read paths against
// commits, checkouts, and constant background maintenance (run with
// -race). The ring bound must hold under concurrency.
func TestObservatoryUnderHammer(t *testing.T) {
	const capacity = 8
	r := NewRepository("obs-hammer", RepositoryOptions{
		ReplanEvery:   2, // migrate constantly
		CacheEntries:  8,
		EngineOptions: testEngineOptions(),
	})
	defer r.Close()
	r.history = newPlanHistory(capacity) // a small ring, so the hammer overflows it
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	errCh := make(chan error, 16)
	var committed atomic.Int64
	committed.Store(1)
	const committers, commitsEach = 3, 20
	for w := 0; w < committers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < commitsEach; i++ {
				parent := NodeID(rng.Intn(int(committed.Load())))
				id, err := r.Commit(ctx, parent, []string{fmt.Sprintf("w%d i%d", w, i), fmt.Sprintf("p%d", rng.Int())})
				if err != nil {
					errCh <- fmt.Errorf("commit: %w", err)
					return
				}
				// Monotonic max: ids are dense, so every id below the
				// recorded high-water mark is checkout-safe.
				for {
					cur := committed.Load()
					if int64(id)+1 <= cur || committed.CompareAndSwap(cur, int64(id)+1) {
						break
					}
				}
			}
		}(w)
	}
	// Readers check out; observers poll every observatory surface.
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := r.Checkout(ctx, NodeID(rng.Intn(int(committed.Load())))); err != nil {
					errCh <- fmt.Errorf("checkout: %w", err)
					return
				}
			}
		}(w)
	}
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
				hist, total := r.PlanHistory()
				if len(hist) > capacity {
					errCh <- fmt.Errorf("ring overflowed: %d records (bound %d)", len(hist), capacity)
					return
				}
				if int64(len(hist)) > total {
					errCh <- fmt.Errorf("ring holds %d records but lifetime is %d", len(hist), total)
					return
				}
				for i := 1; i < len(hist); i++ {
					if hist[i].Seq != hist[i-1].Seq+1 {
						errCh <- fmt.Errorf("ring seq not contiguous: %d then %d", hist[i-1].Seq, hist[i].Seq)
						return
					}
				}
				_ = r.Explain()
				_ = r.Stats().PlanContext()
			}
		}()
	}

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	// Committers exit on their own; poll for their completion.
	deadline := time.After(2 * time.Minute)
	for committed.Load() < 1+committers*commitsEach {
		select {
		case err := <-errCh:
			t.Fatal(err)
		case <-deadline:
			t.Fatalf("hammer stalled at %d commits", committed.Load())
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
	hist, total := r.PlanHistory()
	if total == 0 || len(hist) == 0 {
		t.Fatal("no maintenance pass recorded under the hammer")
	}
	if len(hist) > capacity {
		t.Fatalf("final ring holds %d records (bound %d)", len(hist), capacity)
	}
	if r.Stats().Checkouts == 0 {
		t.Fatal("no checkout served under the hammer")
	}
}
