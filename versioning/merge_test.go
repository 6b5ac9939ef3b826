package versioning

import (
	"context"
	"fmt"
	"reflect"
	"testing"
)

// mergeDoc is a document of n lines long enough that a one-line edit's
// delta costs a fraction of the document, prefixed by head and followed
// by tail.
func mergeDoc(head []string, n int, tail ...string) []string {
	lines := append([]string(nil), head...)
	for i := 0; i < n; i++ {
		lines = append(lines, fmt.Sprintf("line %02d of the document the merge test edits, long enough to outweigh a delta", i))
	}
	return append(lines, tail...)
}

// TestCommitMergeGraphShape pins the graph/plan bookkeeping of a merge
// commit: one stored edge pair to the primary parent plus a candidate
// (unstored) pair per extra parent, with checkout and re-plan both
// working over the resulting DAG. The documents are large beside their
// edits, so every commit is appended as a delta; a merge whose read
// through its primary parent would cost more than its own bytes is
// stored whole instead, with the same edges in the graph.
func TestCommitMergeGraphShape(t *testing.T) {
	ctx := context.Background()
	r := NewRepository("merge", RepositoryOptions{
		ReplanEvery:        -1,
		MaintenanceWorkers: -1,
		EngineOptions:      testEngineOptions(),
	})
	defer r.Close()
	base := mergeDoc(nil, 20)
	root, err := r.Commit(ctx, NoParent, base)
	if err != nil {
		t.Fatal(err)
	}
	left, err := r.Commit(ctx, root, mergeDoc(nil, 20, "left"))
	if err != nil {
		t.Fatal(err)
	}
	right, err := r.Commit(ctx, root, mergeDoc([]string{"right"}, 20))
	if err != nil {
		t.Fatal(err)
	}
	mergedLines := mergeDoc([]string{"right"}, 20, "left")
	merged, err := r.CommitMerge(ctx, []NodeID{left, right}, mergedLines)
	if err != nil {
		t.Fatal(err)
	}

	st := r.Stats()
	// Edges: 2 per plain child (left, right) + 4 for the merge (stored
	// pair to left, candidate pair to right).
	if st.Versions != 4 || st.Deltas != 8 {
		t.Fatalf("got %d versions / %d deltas, want 4 / 8", st.Versions, st.Deltas)
	}
	p := r.Plan()
	if len(p.Stored) != 8 {
		t.Fatalf("plan.Stored has %d entries for 8 edges", len(p.Stored))
	}
	if !p.Stored[4] || p.Stored[5] || p.Stored[6] || p.Stored[7] {
		t.Fatalf("merge edge storage flags wrong: %v", p.Stored[4:])
	}
	if !reflect.DeepEqual(p.Materialized, []bool{true, false, false, false}) {
		t.Fatalf("materialized %v, want the root alone", p.Materialized)
	}
	got, err := r.Checkout(ctx, merged)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, mergedLines) {
		t.Fatalf("merge checkout drifted: %q", got)
	}

	// The solvers must handle the DAG (including its parallel candidate
	// edges) and every version must survive the migration.
	if err := r.Replan(ctx); err != nil {
		t.Fatalf("re-plan over merge DAG: %v", err)
	}
	for v := NodeID(0); int(v) < r.Versions(); v++ {
		if _, err := r.Checkout(ctx, v); err != nil {
			t.Fatalf("post-replan checkout %d: %v", v, err)
		}
	}

	// Duplicate and primary-equal parents collapse; unknown parents fail.
	dup, err := r.CommitMerge(ctx, []NodeID{merged, merged, left}, append(mergedLines, "x"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Checkout(ctx, dup); err != nil {
		t.Fatal(err)
	}
	if _, err := r.CommitMerge(ctx, []NodeID{left, 99}, base); err == nil {
		t.Fatal("merge with unknown parent succeeded")
	}

	// A merge that rewrites every line: its forward delta alone outweighs
	// it, so it is stored whole and neither of its pairs is stored.
	rewrite := make([]string, 20)
	for i := range rewrite {
		rewrite[i] = fmt.Sprintf("line %02d rewritten by a merge that keeps nothing of either parent", i)
	}
	m := r.Versions()
	e := r.Stats().Deltas
	whole, err := r.CommitMerge(ctx, []NodeID{merged, left}, rewrite)
	if err != nil {
		t.Fatal(err)
	}
	p = r.Plan()
	if whole != NodeID(m) || !p.Materialized[whole] || len(p.Stored) != e+4 || p.Stored[e] || p.Stored[e+1] || p.Stored[e+2] || p.Stored[e+3] {
		t.Fatalf("rewriting merge %d: materialized %v, edge flags %v; want it stored whole with four unstored edges", whole, p.Materialized[whole], p.Stored[e:])
	}
	if got, want := r.Stats(), Evaluate(r.g, p); got.Storage != want.Storage || got.SumRetrieval != want.SumRetrieval || got.MaxRetrieval != want.MaxRetrieval {
		t.Fatalf("incremental cost (%d, %d, %d), evaluated (%d, %d, %d)", got.Storage, got.SumRetrieval, got.MaxRetrieval, want.Storage, want.SumRetrieval, want.MaxRetrieval)
	}
	if got, err := r.Checkout(ctx, whole); err != nil || !reflect.DeepEqual(got, rewrite) {
		t.Fatalf("whole merge checkout: %q, %v", got, err)
	}
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	if got, err := r.Checkout(ctx, whole); err != nil || !reflect.DeepEqual(got, rewrite) {
		t.Fatalf("whole merge checkout after a re-plan: %q, %v", got, err)
	}
}

// TestCommitMergePersistenceRoundTrip pins the journal format: merge
// records survive Close → Open with their candidate edges intact.
func TestCommitMergePersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	opt := RepositoryOptions{
		ReplanEvery:        -1,
		MaintenanceWorkers: -1,
		DataDir:            dir,
		EngineOptions:      testEngineOptions(),
	}
	r, err := Open("merge-durable", opt)
	if err != nil {
		t.Fatal(err)
	}
	root, err := r.Commit(ctx, NoParent, []string{"r0", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Commit(ctx, root, []string{"r0", "r1", "a"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Commit(ctx, root, []string{"b", "r0", "r1"})
	if err != nil {
		t.Fatal(err)
	}
	mergeLines := []string{"b", "r0", "r1", "a"}
	m, err := r.CommitMerge(ctx, []NodeID{a, b}, mergeLines)
	if err != nil {
		t.Fatal(err)
	}
	wantDeltas := r.Stats().Deltas
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	r2, err := Open("merge-durable", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	st := r2.Stats()
	if st.Versions != 4 || st.Deltas != wantDeltas {
		t.Fatalf("replayed %d versions / %d deltas, want 4 / %d", st.Versions, st.Deltas, wantDeltas)
	}
	got, err := r2.Checkout(ctx, m)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, mergeLines) {
		t.Fatalf("replayed merge checkout drifted: %q", got)
	}
	// The replayed repository keeps accepting merges.
	if _, err := r2.CommitMerge(ctx, []NodeID{m, root}, append(mergeLines, "tail")); err != nil {
		t.Fatal(err)
	}
}

// TestWALRecordMergeRoundTrip pins the record encoding itself.
func TestWALRecordMergeRoundTrip(t *testing.T) {
	rec := walRecord{
		v: 7, parent: 3, nodeStorage: 120,
		fwdStorage: 10, fwdRetr: 10, revStorage: 9, revRetr: 9,
		extra: []walEdge{
			{parent: 1, fwdStorage: 20, fwdRetr: 21, revStorage: 22, revRetr: 23},
			{parent: 5, fwdStorage: 30, fwdRetr: 31, revStorage: 32, revRetr: 33},
		},
	}
	got, err := decodeWALRecord(rec.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.extra, rec.extra) {
		t.Fatalf("extra edges drifted: %+v vs %+v", got.extra, rec.extra)
	}
	if got.v != rec.v || got.parent != rec.parent || got.nodeStorage != rec.nodeStorage {
		t.Fatalf("header drifted: %+v", got)
	}
	// Pre-merge records (no flag) still decode with no extras.
	plain := walRecord{v: 2, parent: 1, nodeStorage: 5, fwdStorage: 1, fwdRetr: 1, revStorage: 1, revRetr: 1}
	got, err = decodeWALRecord(plain.encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.extra) != 0 {
		t.Fatalf("plain record decoded with extras: %+v", got.extra)
	}
}
