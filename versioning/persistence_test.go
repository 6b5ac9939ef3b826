package versioning

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/diff"
	"repro/internal/repogen"
	"repro/internal/store"
)

// durableOptions builds RepositoryOptions persisting under dir.
func durableOptions(dir string) RepositoryOptions {
	return RepositoryOptions{
		Problem:       ProblemMSR,
		ReplanEvery:   7, // exercise migrations + GC against the disk backend
		DataDir:       dir,
		EngineOptions: testEngineOptions(),
	}
}

// TestRepositoryPersistenceRoundTrip is the acceptance round-trip:
// commit → Close → Open serves the exact history, including across plan
// migrations, and keeps accepting commits.
func TestRepositoryPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	src := repogen.GenerateRepo("durable", 30, 21)
	r, err := Open("durable", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	const firstBatch = 20
	ctx := context.Background()
	for v := 0; v < firstBatch; v++ {
		if _, err := r.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			t.Fatalf("Commit(%d): %v", v, err)
		}
	}
	if err := r.WaitMaintenance(ctx); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Replans == 0 {
		t.Fatalf("expected at least one migration against the disk backend, got %+v", st)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart: the journal replays into an identical history.
	r2, err := Open("durable", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	if got := r2.Versions(); got != firstBatch {
		t.Fatalf("reopened repository has %d versions, want %d", got, firstBatch)
	}
	for v := 0; v < firstBatch; v++ {
		got, err := r2.Checkout(ctx, NodeID(v))
		if err != nil {
			t.Fatalf("Checkout(%d) after reopen: %v", v, err)
		}
		if !reflect.DeepEqual(got, src.Contents[v]) {
			t.Fatalf("Checkout(%d) after reopen: content mismatch", v)
		}
	}
	// The repository keeps growing after a restart.
	for v := firstBatch; v < src.Graph.N(); v++ {
		if _, err := r2.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			t.Fatalf("Commit(%d) after reopen: %v", v, err)
		}
	}
	verifyAll(t, r2, src)
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}

	// And one more restart covering the appended records.
	r3, err := Open("durable", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	verifyAll(t, r3, src)
}

// TestRepositoryCrashRecovery reopens without Close — the kill -9 path:
// whatever reached the journal file is served, nothing is half-applied.
func TestRepositoryCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	src := repogen.GenerateRepo("crash", 18, 4)
	r, err := Open("crash", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for v := 0; v < src.Graph.N(); v++ {
		if _, err := r.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			t.Fatal(err)
		}
	}
	// Quiesce background maintenance first — a killed process has no
	// worker either, and the old instance must not keep migrating the
	// directory underneath the new one.
	if err := r.WaitMaintenance(ctx); err != nil {
		t.Fatal(err)
	}
	// No Close: simulate a killed process (the OS keeps the written
	// bytes; only the in-memory state dies with the old Repository).
	r2, err := Open("crash", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	verifyAll(t, r2, src)
	if st := r2.Stats(); st.Versions != src.Graph.N() {
		t.Fatalf("Stats after crash recovery = %+v", st)
	}
}

// TestRepositoryTornJournalTail pins torn-tail handling: garbage after
// the last intact record (a crash mid-append) is truncated, every intact
// commit survives, and the journal accepts new records.
func TestRepositoryTornJournalTail(t *testing.T) {
	dir := t.TempDir()
	src := repogen.GenerateRepo("torn", 10, 8)
	r, err := Open("torn", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for v := 0; v < src.Graph.N(); v++ {
		if _, err := r.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "journal.wal")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	// A garbage fragment whose length varint decodes near 2^64: openWAL
	// must truncate it (no overflow panic in the bounds math).
	if _, err := f.Write([]byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 0x02, 0x03}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r2, err := Open("torn", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	verifyAll(t, r2, src)
	if _, err := r2.Commit(ctx, NodeID(0), []string{"post-torn", "commit"}); err != nil {
		t.Fatal(err)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	r3, err := Open("torn", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	got, err := r3.Checkout(ctx, NodeID(src.Graph.N()))
	if err != nil || !reflect.DeepEqual(got, []string{"post-torn", "commit"}) {
		t.Fatalf("post-torn commit did not survive: %q, %v", got, err)
	}
}

// flakyBackend injects a Put failure on demand (commits are serialized,
// so the plain field is race-free).
type flakyBackend struct {
	store.Backend
	failPuts bool
}

func (f *flakyBackend) Put(k store.Key, data []byte) error {
	if f.failPuts {
		return errors.New("injected put failure")
	}
	return f.Backend.Put(k, data)
}

// TestRepositoryFailedCommitRollsBackJournal pins the write-ahead
// rollback: a commit whose apply fails (backend Put error) must write
// no journal record — otherwise the next commit reuses the version id,
// replay sees a duplicate, and the data dir becomes permanently
// unopenable.
func TestRepositoryFailedCommitRollsBackJournal(t *testing.T) {
	dir := t.TempDir()
	disk, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	flaky := &flakyBackend{Backend: disk}
	opt := durableOptions(dir)
	opt.Backend = flaky
	r, err := Open("rollback", opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"v0"}); err != nil {
		t.Fatal(err)
	}
	flaky.failPuts = true
	if _, err := r.Commit(ctx, 0, []string{"v0", "v1-lost"}); err == nil {
		t.Fatal("commit with failing backend succeeded")
	}
	flaky.failPuts = false
	v, err := r.Commit(ctx, 0, []string{"v0", "v1-kept"})
	if err != nil {
		t.Fatalf("commit after transient failure: %v", err)
	}
	if v != 1 {
		t.Fatalf("commit after failure assigned id %d, want 1", v)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	// The journal must replay cleanly and contain exactly the two
	// acknowledged commits.
	r2, err := Open("rollback", durableOptions(dir))
	if err != nil {
		t.Fatalf("reopening after a rolled-back commit: %v", err)
	}
	defer r2.Close()
	if got := r2.Versions(); got != 2 {
		t.Fatalf("reopened repository has %d versions, want 2 — the failed commit's record reached the journal", got)
	}
	got, err := r2.Checkout(ctx, 1)
	if err != nil || !reflect.DeepEqual(got, []string{"v0", "v1-kept"}) {
		t.Fatalf("Checkout(1) after reopen = %q, %v", got, err)
	}
}

// TestFailedJournalWriteClosesRepository pins what a failed batch write
// does: the journal cannot tell which bytes reached the disk, so the
// commit is refused, the repository closes itself for writes, and reads
// keep serving.
func TestFailedJournalWriteClosesRepository(t *testing.T) {
	r, err := Open("poison", durableOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"v0"}); err != nil {
		t.Fatal(err)
	}
	r.wal.f.Close() // every later journal write fails
	if _, err := r.Commit(ctx, 0, []string{"v0", "v1"}); err == nil || errors.Is(err, ErrClosed) {
		t.Fatalf("commit over a failing journal: %v, want the write error", err)
	}
	if _, err := r.Commit(ctx, 0, []string{"v0", "v1"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after a failed journal write: %v, want ErrClosed", err)
	}
	if got, err := r.Checkout(ctx, 0); err != nil || !reflect.DeepEqual(got, []string{"v0"}) {
		t.Fatalf("Checkout(0) after a failed journal write = %q, %v", got, err)
	}
}

// TestFailedOpenReleasesWhatItStarted: Open starts a maintenance worker
// and opens a disk backend (compactor goroutine, pack mappings) before
// it reads the journal, so an Open the journal refuses must stop both —
// a fleet retries a damaged tenant on every request.
func TestFailedOpenReleasesWhatItStarted(t *testing.T) {
	dir := t.TempDir()
	r, err := Open("damaged", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, lines := range [][]string{{"v0"}, {"v0", "v1"}} {
		if _, err := r.Commit(ctx, NodeID(r.Versions()-1), lines); err != nil {
			t.Fatal(err)
		}
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	walPath := filepath.Join(dir, "journal.wal")
	good, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	// An intact record whose version id is not the next one.
	outOfOrder := append(append([]byte(nil), walMagic...), frame(walRecord{v: 1, parent: NoParent, lines: []string{"v1"}})...)
	for name, damaged := range map[string][]byte{"bad magic": []byte("not a journal"), "out-of-order record": outOfOrder} {
		if err := os.WriteFile(walPath, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
		before := runtime.NumGoroutine()
		for i := 0; i < 20; i++ {
			if _, err := Open("damaged", durableOptions(dir)); err == nil {
				t.Fatalf("%s: Open succeeded", name)
			}
		}
		// Stopped goroutines may take a moment to be gone.
		deadline := time.Now().Add(3 * time.Second)
		for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
			time.Sleep(10 * time.Millisecond)
		}
		if after := runtime.NumGoroutine(); after > before {
			t.Fatalf("%s: 20 failed Opens took the process from %d to %d goroutines", name, before, after)
		}
	}
	if err := os.WriteFile(walPath, good, 0o644); err != nil {
		t.Fatal(err)
	}
	r2, err := Open("damaged", durableOptions(dir))
	if err != nil {
		t.Fatalf("Open after restoring the journal: %v", err)
	}
	defer r2.Close()
	if got, err := r2.Checkout(ctx, 1); err != nil || !reflect.DeepEqual(got, []string{"v0", "v1"}) {
		t.Fatalf("Checkout(1) after restoring the journal = %q, %v", got, err)
	}
}

// TestRepositoryClosedWrites pins Close semantics: writes fail with
// ErrClosed, reads keep serving.
func TestRepositoryClosedWrites(t *testing.T) {
	dir := t.TempDir()
	r, err := Open("closed", durableOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"alpha"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	if _, err := r.Commit(ctx, NoParent, []string{"beta"}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Commit on closed repository: %v, want ErrClosed", err)
	}
	if err := r.Replan(ctx); !errors.Is(err, ErrClosed) {
		t.Fatalf("Replan on closed repository: %v, want ErrClosed", err)
	}
	got, err := r.Checkout(ctx, 0)
	if err != nil || !reflect.DeepEqual(got, []string{"alpha"}) {
		t.Fatalf("Checkout on closed repository = %q, %v", got, err)
	}
}

// TestRepositorySyncWrites exercises the fsync-per-commit path.
func TestRepositorySyncWrites(t *testing.T) {
	dir := t.TempDir()
	opt := durableOptions(dir)
	opt.SyncWrites = true
	r, err := Open("sync", opt)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"synced"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r2, err := Open("sync", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	got, err := r2.Checkout(ctx, 0)
	if err != nil || !reflect.DeepEqual(got, []string{"synced"}) {
		t.Fatalf("Checkout after sync round-trip = %q, %v", got, err)
	}
}

// TestOpenWithoutDataDir pins the degenerate in-memory path.
func TestOpenWithoutDataDir(t *testing.T) {
	r, err := Open("mem", RepositoryOptions{EngineOptions: testEngineOptions()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Commit(context.Background(), NoParent, []string{"x"}); err != nil {
		t.Fatal(err)
	}
	if r.Versions() != 1 {
		t.Fatal("in-memory Open repository did not commit")
	}
}

// TestWALRecordCodec round-trips both record shapes through the journal
// encoding.
func TestWALRecordCodec(t *testing.T) {
	root := walRecord{v: 0, parent: NoParent, nodeStorage: 123, lines: []string{"a", "b", ""}}
	got, err := decodeWALRecord(root.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, root) {
		t.Fatalf("root record round-trip: %+v -> %+v", root, got)
	}
	a := []string{"x", "y"}
	b := []string{"x", "z", "w"}
	child := walRecord{
		v: 3, parent: 1, nodeStorage: 77,
		fwdStorage: 10, fwdRetr: 11, revStorage: 12, revRetr: 13,
	}
	child.delta = diff.Compute(a, b)
	got, err = decodeWALRecord(child.encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, child) {
		t.Fatalf("child record round-trip: %+v -> %+v", child, got)
	}
}

// groupOptions builds durable options with fsync and no automatic
// maintenance (crash tests reopen the directory under the
// "dead" instance, which therefore must stay quiescent).
func groupOptions(dir string) RepositoryOptions {
	opt := durableOptions(dir)
	opt.SyncWrites = true
	opt.ReplanEvery = -1
	return opt
}

// TestGroupCommitCrashRecovery is the batched kill -9 path: concurrent
// committers share journal batches, the process "dies" without Close,
// and a reopen must serve every acknowledged commit — acknowledgment
// happens only after the commit's batch is durable, so nothing acked may
// be missing, torn, or reordered.
func TestGroupCommitCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	r, err := Open("gc-crash", groupOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	const goroutines, chain = 6, 10
	type acked struct {
		id    NodeID
		lines []string
	}
	ackedByWorker := make([][]acked, goroutines)
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Each worker grows its own lineage so parents are always ids it
			// has itself seen acknowledged.
			parent, lines := NoParent, []string{fmt.Sprintf("worker %d root", w)}
			for i := 0; i < chain; i++ {
				id, err := r.Commit(ctx, parent, lines)
				if err != nil {
					errCh <- fmt.Errorf("worker %d commit %d: %w", w, i, err)
					return
				}
				ackedByWorker[w] = append(ackedByWorker[w], acked{id, lines})
				parent = id
				lines = append(lines[:len(lines):len(lines)], fmt.Sprintf("worker %d line %d", w, i))
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if st := r.Stats(); st.WALBatchedCommits != goroutines*chain {
		t.Fatalf("WALBatchedCommits = %d, want %d (every commit rides a batch)", st.WALBatchedCommits, goroutines*chain)
	}

	// No Close: the old instance's memory dies, the journal file stays.
	r2, err := Open("gc-crash", groupOptions(dir))
	if err != nil {
		t.Fatalf("reopening after batched crash: %v", err)
	}
	defer r2.Close()
	if got := r2.Versions(); got != goroutines*chain {
		t.Fatalf("recovered %d versions, want %d — an acked batched commit was lost", got, goroutines*chain)
	}
	for w, ack := range ackedByWorker {
		for i, a := range ack {
			got, err := r2.Checkout(ctx, a.id)
			if err != nil {
				t.Fatalf("worker %d commit %d (version %d) after crash: %v", w, i, a.id, err)
			}
			if !reflect.DeepEqual(got, a.lines) {
				t.Fatalf("worker %d commit %d (version %d) recovered wrong content", w, i, a.id)
			}
		}
	}
}

// TestGroupCommitBatching releases concurrent committers together and
// holds the journal to what no scheduler can break: every acknowledged
// commit rode exactly one fsync, no fsync was spent on nothing, and a
// kill right after the last acknowledgment loses none. That one fsync
// really covers several records when they are written ahead of it is
// pinned without a timer at the journal layer
// (TestGroupCommitJournalPrefixReplay).
func TestGroupCommitBatching(t *testing.T) {
	dir := t.TempDir()
	r, err := Open("gc-batch", groupOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := r.Commit(ctx, NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	const concurrent = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	ids := make([]NodeID, concurrent)
	errCh := make(chan error, concurrent)
	for i := 0; i < concurrent; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			var err error
			if ids[i], err = r.Commit(ctx, 0, []string{"root", fmt.Sprintf("branch %d", i)}); err != nil {
				errCh <- err
			}
		}(i)
	}
	close(start)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	st := r.Stats()
	if st.WALBatchedCommits != concurrent+1 {
		t.Fatalf("WALBatchedCommits = %d, want %d", st.WALBatchedCommits, concurrent+1)
	}
	if st.WALBatches > st.WALBatchedCommits || st.WALMaxBatch < 1 || st.WALMaxBatch > concurrent {
		t.Fatalf("%d batches, the largest of %d, for %d commits", st.WALBatches, st.WALMaxBatch, st.WALBatchedCommits)
	}
	// No Close: every commit was acknowledged, so every commit is durable.
	r2, err := Open("gc-batch", groupOptions(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer r2.Close()
	if got := r2.Versions(); got != concurrent+1 {
		t.Fatalf("reopened batched journal has %d versions, want %d", got, concurrent+1)
	}
	for i, id := range ids {
		got, err := r2.Checkout(ctx, id)
		if err != nil || !reflect.DeepEqual(got, []string{"root", fmt.Sprintf("branch %d", i)}) {
			t.Fatalf("Checkout(%d) after the batched round-trip = %q, %v", id, got, err)
		}
	}
}

// frame is the journal's on-disk framing of one record, written out
// independently of wal.append: uvarint payload length, little-endian
// CRC32C of the payload, payload.
func frame(rec walRecord) []byte {
	payload := rec.encode()
	buf := binary.AppendUvarint(nil, uint64(len(payload)))
	buf = binary.LittleEndian.AppendUint32(buf, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
	return append(buf, payload...)
}

// TestGroupCommitJournalPrefixReplay pins the on-disk contract at the
// journal layer: the journal is the records' frames back to back, so
// EVERY byte prefix of it (a crash can cut it anywhere) replays to an
// in-order prefix of the appended records — never a hole, a reorder, or
// a half-record.
func TestGroupCommitJournalPrefixReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "batched.wal")
	w, recs, _, err := openWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh journal replayed %d records", len(recs))
	}
	const n = 5
	want := make([]walRecord, n)
	frames := append([]byte(nil), walMagic...)
	for i := range want {
		want[i] = walRecord{
			v:           NodeID(i),
			parent:      NoParent,
			nodeStorage: Cost(7 * (i + 1)),
			lines:       []string{fmt.Sprintf("record %d", i), "shared tail"},
		}
		if _, err := w.append(context.Background(), want[i]); err != nil {
			t.Fatal(err)
		}
		frames = append(frames, frame(want[i])...)
	}
	// One fsync covers all five records: whatever is written when a
	// leader takes the journal rides its one sync, with no timer holding
	// the batch open.
	if err := w.waitDurable(context.Background(), n); err != nil {
		t.Fatal(err)
	}
	if batches, recs, largest := w.batches.Load(), w.batchedRecs.Load(), w.maxBatch.Load(); batches != 1 || recs != n || largest != n {
		t.Fatalf("flushed %d batches of %d records, the largest of %d; want one batch of %d", batches, recs, largest, n)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, frames) {
		t.Fatalf("batched journal is %d bytes, not the %d bytes of its records framed one by one", len(data), len(frames))
	}

	prev := -1
	for cut := len(walMagic); cut <= len(data); cut++ {
		cutPath := filepath.Join(dir, "cut.wal")
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		w2, got, truncated, err := openWAL(cutPath, false)
		if err != nil {
			t.Fatalf("cut at %d bytes: %v", cut, err)
		}
		w2.Close()
		if len(got) > n {
			t.Fatalf("cut at %d bytes replayed %d records, more than were appended", cut, len(got))
		}
		for i, rec := range got {
			if !reflect.DeepEqual(rec, want[i]) {
				t.Fatalf("cut at %d bytes replayed out-of-prefix record %d", cut, i)
			}
		}
		if len(got) < prev {
			t.Fatalf("cut at %d bytes lost a record that a shorter cut had (%d < %d)", cut, len(got), prev)
		}
		prev = len(got)
		if truncated > 0 && cut == len(data) {
			t.Fatalf("intact batched journal reported %d truncated bytes", truncated)
		}
		os.Remove(cutPath)
	}
	if prev != n {
		t.Fatalf("full journal replayed %d records, want %d", prev, n)
	}
}

// TestFailedFsyncIsSticky: the journal cannot tell what a failed fsync
// left on the disk, so the failure is sticky — every later wait and
// append returns the same error instead of acknowledging on top of it.
func TestFailedFsyncIsSticky(t *testing.T) {
	w, _, _, err := openWAL(filepath.Join(t.TempDir(), "sticky.wal"), true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	seq, err := w.append(ctx, walRecord{v: 0, parent: NoParent, nodeStorage: 2, lines: []string{"v0"}})
	if err != nil {
		t.Fatal(err)
	}
	w.f.Close() // the fsync fails
	first := w.waitDurable(ctx, seq)
	if first == nil {
		t.Fatal("waitDurable over a closed file succeeded")
	}
	if err := w.waitDurable(ctx, seq); err != first {
		t.Fatalf("second waitDurable = %v, want the first failure %v", err, first)
	}
	if _, err := w.append(ctx, walRecord{v: 1, parent: NoParent, nodeStorage: 2, lines: []string{"v1"}}); err != first {
		t.Fatalf("append after a failed fsync = %v, want the first failure %v", err, first)
	}
}

// TestWaitAfterCloseAcknowledges: Close syncs every written record, so a
// commit that wrote before Close and waits after it is acknowledged, and
// its journal reopens with the record.
func TestWaitAfterCloseAcknowledges(t *testing.T) {
	path := filepath.Join(t.TempDir(), "closed.wal")
	w, _, _, err := openWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	rec := walRecord{v: 0, parent: NoParent, nodeStorage: 7, lines: []string{"written", "before close"}}
	seq, err := w.append(ctx, rec)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.waitDurable(ctx, seq); err != nil {
		t.Fatalf("waitDurable after Close = %v, want the record acknowledged", err)
	}
	w2, recs, truncated, err := openWAL(path, true)
	if err != nil {
		t.Fatal(err)
	}
	w2.Close()
	if len(recs) != 1 || truncated != 0 || !reflect.DeepEqual(recs[0], rec) {
		t.Fatalf("reopened journal replayed %d records (%d bytes truncated), want the one written before Close", len(recs), truncated)
	}
}

// TestKillAfterReplanReplaysTheChain: a disk repository whose migration
// published a pack is killed (no Close) right after a re-plan. Nothing
// of the installed plan survives the process: Open replays the journal
// into the incremental layout, taking over whatever objects the pack
// holds that the layout references, putting again the root's chunks and
// the deltas no publish included and sweeping the plan's own, and every
// version reads back byte for byte, before and after the next re-plan
// and across a clean restart.
func TestKillAfterReplanReplaysTheChain(t *testing.T) {
	dir := t.TempDir()
	src := *repogen.GenerateRepo("kill-replan", 24, 9)
	// A shared head puts every version over the chunking threshold: the
	// root is a manifest over chunks, staged in memory like a delta.
	head := make([]string, 150)
	for i := range head {
		head[i] = fmt.Sprintf("shared head line %03d", i)
	}
	src.Contents = append([][]string(nil), src.Contents...)
	for v, c := range src.Contents {
		src.Contents[v] = append(append([]string(nil), head...), c...)
	}
	opt := durableOptions(dir)
	opt.ReplanEvery = -1 // no pass may run under the "dead" instance
	chain := NewRepository("chain", RepositoryOptions{ReplanEvery: -1, EngineOptions: testEngineOptions()})
	ingest(t, chain, &src)

	r, err := Open("kill-replan", opt)
	if err != nil {
		t.Fatal(err)
	}
	ingest(t, r, &src)
	ctx := context.Background()
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	if st := r.Stats(); st.Packs != 1 || st.MigrationObjects < 2 {
		t.Fatalf("the migration (%d objects) left %d packs, want one; the root and the deltas wait in memory", st.MigrationObjects, st.Packs)
	}
	verifyAll(t, r, &src)
	planned := r.Stats().Objects

	// No Close: the process died.
	r2, err := Open("kill-replan", opt)
	if err != nil {
		t.Fatal(err)
	}
	verifyAll(t, r2, &src)
	if got, want := r2.Stats().Objects, chain.Stats().Objects; got != want {
		t.Fatalf("the reopened repository holds %d objects, the replayed chain references %d", got, want)
	}
	if err := r2.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, r2, &src)
	if got := r2.Stats().Objects; got != planned {
		t.Fatalf("the re-plan after the restart holds %d objects, the one before it %d", got, planned)
	}
	if err := r2.Close(); err != nil {
		t.Fatal(err)
	}
	verifyAll(t, r2, &src) // a closed repository reads its packs from the files

	r3, err := Open("kill-replan", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer r3.Close()
	verifyAll(t, r3, &src)
}
