package versioning

import (
	"context"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/trace"
)

// slowPutBackend takes 25ms over every Put.
type slowPutBackend struct{ store.Backend }

func (b slowPutBackend) Put(k store.Key, data []byte) error {
	time.Sleep(25 * time.Millisecond)
	return b.Backend.Put(k, data)
}

// TestCommitSpanAccounting pins the tracing acceptance criterion: for
// a journaled group-commit, the instrumented phase spans (diff, lock,
// apply, WAL write/fsync, maintenance trigger) account for the
// commit's end-to-end latency — their durations sum to within 20% of
// the root span's duration. A deliberately slow backend makes the apply
// phase dominate the commit, so untraced gaps (scheduling, map updates)
// stay far inside the tolerance; a hole in the instrumentation — a phase
// that stopped attaching to the request context — shows up as a large
// deficit.
func TestCommitSpanAccounting(t *testing.T) {
	repo, err := Open("acct", RepositoryOptions{
		DataDir:       t.TempDir(),
		Backend:       slowPutBackend{store.NewMemBackend()},
		SyncWrites:    true,
		ReplanEvery:   -1,
		EngineOptions: EngineOptions{SolverTimeout: 10 * time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer repo.Close()

	tracer := trace.New(trace.Options{Sample: 1})
	ctx, root := tracer.StartRequest(context.Background(), "commit", "")
	if _, err := repo.Commit(ctx, NoParent, []string{"root version", "two lines"}); err != nil {
		t.Fatal(err)
	}
	root.End()

	td, ok := tracer.Recorder().Find(root.TraceID())
	if !ok {
		t.Fatal("commit trace not recorded")
	}
	// Sum the disjoint sequential phases. wal.wait is excluded: it wraps
	// write+fsync and would double-count them.
	phases := map[string]bool{
		"commit.lock":         true,
		"commit.apply":        true,
		"wal.write":           true,
		"wal.fsync":           true,
		"maintenance.trigger": true,
	}
	var sum float64
	seen := map[string]bool{}
	for _, sp := range td.Spans {
		if phases[sp.Name] {
			sum += sp.DurationUS
			seen[sp.Name] = true
		}
	}
	for _, want := range []string{"wal.write", "wal.fsync", "commit.apply"} {
		if !seen[want] {
			t.Fatalf("commit trace missing phase span %q: %+v", want, td.Spans)
		}
	}
	if td.DurationUS <= 0 {
		t.Fatalf("root duration %v", td.DurationUS)
	}
	ratio := sum / td.DurationUS
	if ratio < 0.8 || ratio > 1.05 {
		t.Fatalf("phase spans account for %.0f%% of the %.0fus commit (want within 20%%): %+v",
			100*ratio, td.DurationUS, td.Spans)
	}
	// The apply phase must dominate, proving the spans measure real wall
	// time, not just that they exist.
	for _, sp := range td.Spans {
		if sp.Name == "commit.apply" && sp.DurationUS < float64(20*time.Millisecond/time.Microsecond) {
			t.Fatalf("commit.apply span %.0fus, want >= the backend's 25ms (minus scheduling slack)", sp.DurationUS)
		}
	}
}
