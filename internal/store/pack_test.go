package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/store/backendtest"
)

// compactingBackend forces every object through the packfile tier by
// compacting after each Put, so the conformance suite exercises packed
// Get/Delete/Keys/Stats instead of the loose fast path.
type compactingBackend struct {
	*store.DiskBackend
}

func (c *compactingBackend) Put(k store.Key, data []byte) error {
	if err := c.DiskBackend.Put(k, data); err != nil {
		return err
	}
	_, err := c.DiskBackend.Compact()
	return err
}

// TestDiskBackendPackedConformance pins the packfile read path to the
// same contract as every other backend.
func TestDiskBackendPackedConformance(t *testing.T) {
	backendtest.RunDurable(t, func(t *testing.T, dir string) store.Backend {
		b, err := store.OpenDiskBackendWith(dir, store.DiskOptions{CompactMinLoose: -1})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return &compactingBackend{b}
	})
}

func packPayloads(n int) map[store.Key][]byte {
	m := make(map[store.Key][]byte, n)
	for i := 0; i < n; i++ {
		data := []byte(fmt.Sprintf("payload-%03d-%s", i, strings.Repeat("x", i)))
		m[store.KeyOf(data)] = data
	}
	return m
}

func countLooseFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			n++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestCompactFoldsLooseIntoPack(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackendWith(dir, store.DiskOptions{CompactMinLoose: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	payloads := packPayloads(20)
	for k, data := range payloads {
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Stats()
	moved, err := b.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if moved != len(payloads) {
		t.Fatalf("Compact moved %d objects, want %d", moved, len(payloads))
	}
	if got := b.Stats(); got != want {
		t.Fatalf("Stats changed across compaction: %+v, want %+v", got, want)
	}
	if n := countLooseFiles(t, dir); n != 0 {
		t.Fatalf("%d loose files survived compaction", n)
	}
	for k, data := range payloads {
		got, err := b.Get(k)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("packed Get(%s) = %q, %v", k, got, err)
		}
	}
	ps := b.PackStats()
	if ps.Packs != 1 || ps.PackedObjects != len(payloads) || ps.Compactions != 1 {
		t.Fatalf("PackStats = %+v, want 1 pack with %d objects", ps, len(payloads))
	}
	if ps.PackReads < int64(len(payloads)) {
		t.Fatalf("PackReads = %d, want >= %d", ps.PackReads, len(payloads))
	}
}

// TestPackRecoverySpanningCompaction kills the backend (no Close) at
// the nastiest crash point — pack published, source loose files still
// on disk, a torn pack tmp alongside — and verifies a reopen completes
// the compaction: duplicates resolve in the pack's favor, the torn tmp
// is swept, and every object (packed and loose) is served.
func TestPackRecoverySpanningCompaction(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackendWith(dir, store.DiskOptions{CompactMinLoose: -1})
	if err != nil {
		t.Fatal(err)
	}
	packed := packPayloads(10)
	for k, data := range packed {
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	// Fresh loose writes after the compaction.
	loose := map[store.Key][]byte{}
	for i := 0; i < 5; i++ {
		data := []byte(fmt.Sprintf("post-compaction-%d", i))
		loose[store.KeyOf(data)] = data
		if err := b.Put(store.KeyOf(data), data); err != nil {
			t.Fatal(err)
		}
	}
	want := b.Stats()
	// Crash simulation: re-create loose duplicates of packed keys (as if
	// the crash hit after the pack rename but before the loose unlink)
	// and drop a torn tmp from a half-written next pack. No Close: the
	// process "died".
	ndup := 0
	for k, data := range packed {
		h := k.String()
		d := filepath.Join(dir, "objects", h[:2])
		if err := os.MkdirAll(d, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(d, h[2:]), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if ndup++; ndup == 4 {
			break
		}
	}
	tornPack := filepath.Join(dir, "packs", "pack-9.tmp42")
	if err := os.WriteFile(tornPack, []byte("DSVPACK1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}

	rb, err := store.OpenDiskBackendWith(dir, store.DiskOptions{CompactMinLoose: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if got := rb.Stats(); got != want {
		t.Fatalf("reopened Stats = %+v, want %+v", got, want)
	}
	for k, data := range packed {
		got, err := rb.Get(k)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reopened packed Get(%s) = %q, %v", k, got, err)
		}
	}
	for k, data := range loose {
		got, err := rb.Get(k)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reopened loose Get(%s) = %q, %v", k, got, err)
		}
	}
	// The interrupted compaction finished: duplicates gone, tmp swept.
	if n := countLooseFiles(t, dir); n != len(loose) {
		t.Fatalf("%d loose files after recovery, want %d (duplicates removed)", n, len(loose))
	}
	if _, err := os.Stat(tornPack); !os.IsNotExist(err) {
		t.Fatalf("torn pack tmp survived reopen: %v", err)
	}
	ps := rb.PackStats()
	if ps.Packs != 1 || ps.PackedObjects != len(packed) {
		t.Fatalf("reopened PackStats = %+v, want 1 pack with %d objects", ps, len(packed))
	}
}

// TestDeletePackedObjects verifies index-only deletes from packs,
// whole-pack reclamation when the last entry dies, and that bytes handed
// out before the pack was unlinked and unmapped stay readable (Get
// copies).
func TestDeletePackedObjects(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackendWith(dir, store.DiskOptions{CompactMinLoose: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	payloads := packPayloads(6)
	var keys []store.Key
	for k, data := range payloads {
		keys = append(keys, k)
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	held, err := b.Get(keys[0])
	if err != nil {
		t.Fatal(err)
	}
	heldCopy := append([]byte(nil), held...)
	for _, k := range keys {
		if err := b.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	if b.Len() != 0 {
		t.Fatalf("Len = %d after deleting everything", b.Len())
	}
	ps := b.PackStats()
	if ps.Packs != 0 || ps.PackedObjects != 0 {
		t.Fatalf("drained pack still reported: %+v", ps)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "packs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("drained pack file not unlinked: %v", ents)
	}
	if !bytes.Equal(held, heldCopy) {
		t.Fatal("outstanding Get result corrupted by the pack's death")
	}
}

// TestSparsePackRewrite verifies a mostly-dead pack is folded into the
// next compaction and its file reclaimed.
func TestSparsePackRewrite(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackendWith(dir, store.DiskOptions{CompactMinLoose: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	payloads := packPayloads(10)
	var keys []store.Key
	for k, data := range payloads {
		keys = append(keys, k)
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	for _, k := range keys[:6] { // 4/10 live: sparse
		if err := b.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	fresh := []byte("fresh-loose-object")
	if err := b.Put(store.KeyOf(fresh), fresh); err != nil {
		t.Fatal(err)
	}
	moved, err := b.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 5 { // 4 pack survivors + 1 loose
		t.Fatalf("Compact moved %d, want 5", moved)
	}
	ps := b.PackStats()
	if ps.Packs != 1 || ps.PackedObjects != 5 {
		t.Fatalf("PackStats after rewrite = %+v, want 1 pack with 5 objects", ps)
	}
	for _, k := range keys[6:] {
		got, err := b.Get(k)
		if err != nil || !bytes.Equal(got, payloads[k]) {
			t.Fatalf("survivor Get(%s) = %q, %v", k, got, err)
		}
	}
	if got, err := b.Get(store.KeyOf(fresh)); err != nil || !bytes.Equal(got, fresh) {
		t.Fatalf("fresh Get = %q, %v", got, err)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "packs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("pack dir holds %d files, want 1 (old pack reclaimed)", len(ents))
	}
}

// TestBackgroundCompactor verifies the compactor goroutine folds the
// loose tier on its own once past the threshold.
func TestBackgroundCompactor(t *testing.T) {
	b, err := store.OpenDiskBackendWith(t.TempDir(), store.DiskOptions{
		CompactMinLoose: 4,
		CompactEvery:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	payloads := packPayloads(8)
	for k, data := range payloads {
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for b.PackStats().Compactions == 0 {
		if time.Now().After(deadline) {
			t.Fatal("background compactor never ran")
		}
		time.Sleep(5 * time.Millisecond)
	}
	for k, data := range payloads {
		got, err := b.Get(k)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("Get(%s) = %q, %v", k, got, err)
		}
	}
}
