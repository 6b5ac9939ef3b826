package versioning

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/repogen"
)

// testEngineOptions gives re-planning a generous per-solver deadline.
func testEngineOptions() EngineOptions {
	return EngineOptions{SolverTimeout: 10 * time.Second}
}

// ingest replays a generated content-backed history through Commit.
func ingest(t *testing.T, r *Repository, src *repogen.Repo) {
	t.Helper()
	ctx := context.Background()
	for v := 0; v < src.Graph.N(); v++ {
		id, err := r.Commit(ctx, src.Parents[v], src.Contents[v])
		if err != nil {
			t.Fatalf("Commit(%d): %v", v, err)
		}
		if id != NodeID(v) {
			t.Fatalf("Commit(%d) assigned id %d", v, id)
		}
	}
}

// verifyAll asserts Checkout reproduces every ingested version exactly.
func verifyAll(t *testing.T, r *Repository, src *repogen.Repo) {
	t.Helper()
	ctx := context.Background()
	for v := 0; v < src.Graph.N(); v++ {
		got, err := r.Checkout(ctx, NodeID(v))
		if err != nil {
			t.Fatalf("Checkout(%d): %v", v, err)
		}
		if !reflect.DeepEqual(got, src.Contents[v]) {
			t.Fatalf("Checkout(%d) does not reproduce the ingested content", v)
		}
	}
}

// TestRepositoryRoundTripAllRegimes is the checkout round-trip property
// of the acceptance criteria: on seeded repogen histories, every version
// reconstructs byte for byte under plans from each of the four regimes
// and the two baselines, in memory and on disk, across both the
// incremental-commit and the re-plan/migration paths — and a plan
// installed with nothing committed since costs what Stats says and
// satisfies the paper's constraint for its regime.
func TestRepositoryRoundTripAllRegimes(t *testing.T) {
	regimes := []Problem{ProblemMST, ProblemSPT, ProblemMSR, ProblemMMR, ProblemBSR, ProblemBMR}
	for _, seed := range []int64{1, 42} {
		src := repogen.GenerateRepo(fmt.Sprintf("prop-%d", seed), 48, seed)
		for _, problem := range regimes {
			for _, variant := range []string{"", "/durable"} {
				t.Run(fmt.Sprintf("%s/seed%d%s", problem, seed, variant), func(t *testing.T) {
					opt := RepositoryOptions{
						Problem:       problem,
						ReplanEvery:   7, // hits both mid-cycle commits and migrations
						EngineOptions: testEngineOptions(),
					}
					if variant != "" {
						opt.DataDir = t.TempDir()
					}
					r, err := Open(src.Graph.Name, opt)
					if err != nil {
						t.Fatal(err)
					}
					defer r.Close()
					ingest(t, r, src)
					verifyAll(t, r, src) // may race the async migration — checkouts must hold either way
					if err := r.WaitMaintenance(context.Background()); err != nil {
						t.Fatal(err)
					}
					// The last cadence pass may predate the last commits; this
					// one installs a plan for exactly what is committed.
					if err := r.Replan(context.Background()); err != nil {
						t.Fatal(err)
					}
					verifyAll(t, r, src)
					st := r.Stats()
					if st.Versions != src.Graph.N() || st.Replans == 0 {
						t.Fatalf("Stats = %+v, want %d versions and at least one re-plan", st, src.Graph.N())
					}
					if st.ReplanError != "" {
						t.Fatalf("re-plan error: %s", st.ReplanError)
					}
					sum := r.Summary()
					if sum.Problem != problem.String() || !sum.Feasible || len(sum.Materialized) == 0 {
						t.Fatalf("Summary = %+v", sum)
					}
					cost := Evaluate(r.g, r.Plan())
					if !cost.Feasible || st.Storage != cost.Storage || st.SumRetrieval != cost.SumRetrieval || st.MaxRetrieval != cost.MaxRetrieval {
						t.Fatalf("Stats report storage %d, Σ R %d, max R %d; the installed plan evaluates to %+v",
							st.Storage, st.SumRetrieval, st.MaxRetrieval, cost)
					}
					bounded := map[Problem]Cost{
						ProblemMSR: cost.Storage, ProblemMMR: cost.Storage,
						ProblemBSR: cost.SumRetrieval, ProblemBMR: cost.MaxRetrieval,
					}
					if got, ok := bounded[problem]; ok && (sum.Constraint <= 0 || got > sum.Constraint) {
						t.Fatalf("%s plan has %d against the constraint %d", problem, got, sum.Constraint)
					}
				})
			}
		}
	}
}

// TestRepositoryConcurrentCheckouts hammers Checkout and CheckoutBatch
// from many goroutines (run with -race).
func TestRepositoryConcurrentCheckouts(t *testing.T) {
	src := repogen.GenerateRepo("conc", 40, 9)
	r := NewRepository("conc", RepositoryOptions{
		ReplanEvery:   10,
		CacheEntries:  16,
		EngineOptions: testEngineOptions(),
	})
	ingest(t, r, src)
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				v := NodeID(rng.Intn(src.Graph.N()))
				got, err := r.Checkout(ctx, v)
				if err != nil {
					t.Errorf("Checkout(%d): %v", v, err)
					return
				}
				if !reflect.DeepEqual(got, src.Contents[v]) {
					t.Errorf("Checkout(%d) content mismatch", v)
					return
				}
			}
		}(w)
	}
	ids := make([]NodeID, src.Graph.N())
	for i := range ids {
		ids[i] = NodeID(i)
	}
	for b := 0; b < 4; b++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, res := range r.CheckoutBatch(ctx, ids) {
				if res.Err != nil {
					t.Errorf("batch item %d: %v", i, res.Err)
					return
				}
				if !reflect.DeepEqual(res.Lines, src.Contents[i]) {
					t.Errorf("batch item %d content mismatch", i)
					return
				}
			}
		}()
	}
	wg.Wait()
	if st := r.Stats(); st.Checkouts == 0 || st.CacheHits == 0 {
		t.Fatalf("Stats = %+v, want traffic counters moving", st)
	}
}

// TestRepositoryCommitsDuringCheckouts interleaves writers and readers:
// commits (with migrations) racing checkouts of already-present versions.
func TestRepositoryCommitsDuringCheckouts(t *testing.T) {
	src := repogen.GenerateRepo("mixed", 36, 5)
	r := NewRepository("mixed", RepositoryOptions{
		ReplanEvery:   5,
		EngineOptions: testEngineOptions(),
	})
	ctx := context.Background()
	// Seed a prefix so readers have something from the start.
	const prefix = 12
	for v := 0; v < prefix; v++ {
		if _, err := r.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := NodeID(rng.Intn(prefix))
				got, err := r.Checkout(ctx, v)
				if err != nil {
					t.Errorf("Checkout(%d): %v", v, err)
					return
				}
				if !reflect.DeepEqual(got, src.Contents[v]) {
					t.Errorf("Checkout(%d) content mismatch", v)
					return
				}
			}
		}(w)
	}
	for v := prefix; v < src.Graph.N(); v++ {
		if _, err := r.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	verifyAll(t, r, src)
}

// TestRepositoryManualReplan exercises ReplanEvery < 0 (incremental only)
// plus an explicit Replan, and a fixed user constraint.
func TestRepositoryManualReplan(t *testing.T) {
	src := repogen.GenerateRepo("manual", 30, 13)
	r := NewRepository("manual", RepositoryOptions{
		Problem:       ProblemMSR,
		Constraint:    src.Graph.TotalNodeStorage(), // materialize-all always fits
		ReplanEvery:   -1,
		EngineOptions: testEngineOptions(),
	})
	ingest(t, r, src)
	if st := r.Stats(); st.Replans != 0 {
		t.Fatalf("unexpected auto re-plan: %+v", st)
	}
	verifyAll(t, r, src) // incremental chain alone must already serve
	// The incrementally maintained cost must match a full evaluation.
	r.stateMu.Lock()
	if want := Evaluate(r.g, r.plan); r.planCost != want {
		r.stateMu.Unlock()
		t.Fatalf("incremental plan cost %+v, full evaluation %+v", r.planCost, want)
	}
	r.stateMu.Unlock()
	if err := r.Replan(context.Background()); err != nil {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.Replans != 1 || st.Winner == "" {
		t.Fatalf("Stats after Replan = %+v", st)
	}
	if st.Storage > src.Graph.TotalNodeStorage() {
		t.Fatalf("plan storage %d exceeds configured budget %d", st.Storage, src.Graph.TotalNodeStorage())
	}
	verifyAll(t, r, src)
}

func TestRepositoryCommitErrors(t *testing.T) {
	r := NewRepository("errs", RepositoryOptions{EngineOptions: testEngineOptions()})
	ctx := context.Background()
	if _, err := r.Commit(ctx, 5, []string{"x"}); err == nil {
		t.Fatal("commit onto missing parent accepted")
	}
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(ctx, -7, []string{"x"}); err == nil {
		t.Fatal("negative non-NoParent parent accepted")
	}
	if v, err := r.Commit(ctx, NoParent, []string{"second root"}); err != nil || v != 1 {
		t.Fatalf("second root: %d, %v", v, err)
	}
	got, err := r.Checkout(ctx, 1)
	if err != nil || !reflect.DeepEqual(got, []string{"second root"}) {
		t.Fatalf("Checkout(1) = %q, %v", got, err)
	}
}

// TestSummarizeJSON pins the shared dsvsolve/dsvd response shape.
func TestSummarizeJSON(t *testing.T) {
	g := NewGraph("one")
	g.AddNode(10)
	p := &Plan{Materialized: []bool{true}, Stored: []bool{}}
	b, err := json.Marshal(Summarize(g, p, ProblemMSR, 20))
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"graph", "problem", "constraint", "storage", "sum_retrieval",
		"max_retrieval", "feasible", "versions", "deltas", "materialized", "stored_deltas"} {
		if _, ok := m[key]; !ok {
			t.Fatalf("summary JSON missing %q: %s", key, b)
		}
	}
	if _, isArray := m["stored_deltas"].([]any); !isArray {
		t.Fatalf("stored_deltas must encode as [], got %s", b)
	}
	var back PlanSummary
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Problem != "MSR" || back.Constraint != 20 || len(back.Materialized) != 1 {
		t.Fatalf("round-trip = %+v", back)
	}
}

// TestStatsJSONKeys pins the /stats key set: the store's counters reach
// the JSON through RepositoryStats under the keys dsvd has always served.
// The repository is disk-backed and has migrated once, so the migration
// and pack counters are non-zero and their omitempty keys appear.
func TestStatsJSONKeys(t *testing.T) {
	src := repogen.GenerateRepo("keys", 24, 5)
	r, err := Open("keys", RepositoryOptions{
		Problem:       ProblemMSR,
		ReplanEvery:   -1,
		DataDir:       t.TempDir(),
		CacheEntries:  -1, // the checkout reads the backend's pack and staged tiers
		EngineOptions: testEngineOptions(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	for v := 0; v < src.Graph.N(); v++ {
		if _, err := r.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			t.Fatalf("Commit(%d): %v", v, err)
		}
		if v == 15 {
			if err := r.Replan(ctx); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := r.Checkout(ctx, NodeID(src.Graph.N()-1)); err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(r.Stats())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	got := slices.Sorted(maps.Keys(m))
	want := []string{
		"async_replans", "blobs", "cache_evicted", "cache_hits", "cache_rejected",
		"cached_bytes", "cached_versions", "checkouts", "coalesced", "commits_pending",
		"delta_applies", "deltas", "full_storage", "heat_reads", "heat_top_k",
		"heat_tracked_versions", "loose_reads", "max_retrieval", "migration_bytes",
		"migration_objects", "migration_us_total", "migrations", "name", "objects",
		"pack_reads", "packed_objects", "packs", "plan_history_len", "plan_records",
		"plan_retries", "predicted_max_retrieval", "predicted_storage",
		"predicted_sum_retrieval", "problem", "race_latency_us", "replans",
		"solver_wins", "storage", "stored_bytes", "stored_deltas", "sum_retrieval",
		"uptime_seconds", "versions", "wal_batched_commits", "wal_batches",
		"wal_max_batch", "winner",
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Stats JSON keys:\n got %q\nwant %q", got, want)
	}
}
