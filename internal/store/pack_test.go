package store_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/store"
	"repro/internal/store/backendtest"
)

// compactingBackend forces every object through the packfile tier by
// compacting after each Put, so the conformance suite exercises packed
// Get/Delete/Keys/Stats instead of the staged tier.
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
		b, err := store.OpenDiskBackend(dir)
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

// TestPackRecoverySpanningCompaction kills the backend (no Close) with
// two packs published — a compaction's and a Flush's — objects staged
// since and a torn pack tmp alongside. A reopen holds every published
// object whole and nothing else: the torn tmp is swept, and what was only
// staged went with the process.
func TestPackRecoverySpanningCompaction(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	published := packPayloads(10)
	for k, data := range published {
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		data := []byte(fmt.Sprintf("post-compaction-%d", i))
		published[store.KeyOf(data)] = data
		if err := b.Put(store.KeyOf(data), data); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	want := b.Stats()
	var staged []store.Key
	for i := 0; i < 3; i++ {
		data := []byte(fmt.Sprintf("never-published-%d", i))
		staged = append(staged, store.KeyOf(data))
		if err := b.Put(store.KeyOf(data), data); err != nil {
			t.Fatal(err)
		}
	}
	tornPack := filepath.Join(dir, "packs", "pack-9.tmp42")
	if err := os.WriteFile(tornPack, []byte("DSVPACK1garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	// No Close: the process "died".

	rb, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if got := rb.Stats(); got != want {
		t.Fatalf("reopened Stats = %+v, want %+v", got, want)
	}
	for k, data := range published {
		got, err := rb.Get(k)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reopened Get(%s) = %q, %v", k, got, err)
		}
	}
	for _, k := range staged {
		if _, err := rb.Get(k); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("Get of an object no publish included = %v, want ErrNotFound", err)
		}
	}
	if _, err := os.Stat(tornPack); !os.IsNotExist(err) {
		t.Fatalf("torn pack tmp survived reopen: %v", err)
	}
	ps := rb.PackStats()
	if ps.Packs != 2 || ps.PackedObjects != len(published) {
		t.Fatalf("reopened PackStats = %+v, want 2 packs with %d objects", ps, len(published))
	}
}

// TestDeletePackedObjects verifies index-only deletes from packs,
// whole-pack reclamation when the last entry dies, and that bytes handed
// out before the pack was unlinked and unmapped stay readable (Get
// copies).
func TestDeletePackedObjects(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackend(dir)
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
	b, err := store.OpenDiskBackend(dir)
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
	fresh := []byte("fresh-staged-object")
	if err := b.Put(store.KeyOf(fresh), fresh); err != nil {
		t.Fatal(err)
	}
	moved, err := b.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if moved != 5 { // 4 pack survivors + 1 staged
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

// TestStagedTierPublishesAtItsLimit: Puts stay in memory until their
// payloads pass 1 MiB, and the Put that passes it writes them all out as
// one pack, so an open backend never holds more than that unpublished.
func TestStagedTierPublishesAtItsLimit(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	put := func(i int) store.Key {
		data := bytes.Repeat([]byte(fmt.Sprintf("%07d|", i)), 8<<10) // 64 KiB
		if err := b.Put(store.KeyOf(data), data); err != nil {
			t.Fatal(err)
		}
		return store.KeyOf(data)
	}
	var keys []store.Key
	for i := 0; i < 15; i++ {
		keys = append(keys, put(i))
	}
	if ps := b.PackStats(); ps.Packs != 0 {
		t.Fatalf("%d packs after 960 KiB of Puts, want none yet", ps.Packs)
	}
	keys = append(keys, put(15))
	if ps := b.PackStats(); ps.Packs != 1 || ps.PackedObjects != 16 {
		t.Fatalf("PackStats = %+v after 1 MiB of Puts, want one pack of 16", ps)
	}
	keys = append(keys, put(16)) // staged again, lost with the process
	want := b.Stats()
	want.Objects--
	want.Bytes -= 64 << 10

	rb, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	if got := rb.Stats(); got != want {
		t.Fatalf("reopened after a kill: Stats = %+v, want the published %+v", got, want)
	}
	for _, k := range keys[:16] {
		if got, err := rb.Get(k); err != nil || store.KeyOf(got) != k {
			t.Fatalf("reopened Get(%s) = %d bytes, %v", k, len(got), err)
		}
	}
}

// TestStagedTierUnderFire has readers, a Put loop, a Delete loop and a
// forced publish work the same keys of the staged tier at once: a Get
// answers the object's bytes or ErrNotFound whichever tier the key is in
// at that instant, and the counters come out whole (run with -race).
func TestStagedTierUnderFire(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	payloads := packPayloads(32)
	var keys []store.Key
	for k := range payloads {
		keys = append(keys, k)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	loop := func(step func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				if err := step(i); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for r := 0; r < 3; r++ {
		loop(func(i int) error {
			k := keys[(i*7+r)%len(keys)]
			got, err := b.Get(k)
			if err != nil && !errors.Is(err, store.ErrNotFound) {
				return fmt.Errorf("Get(%s): %v", k, err)
			}
			if err == nil && !bytes.Equal(got, payloads[k]) {
				return fmt.Errorf("Get(%s) = %q, want %q", k, got, payloads[k])
			}
			return nil
		})
	}
	loop(func(i int) error { k := keys[i%len(keys)]; return b.Put(k, payloads[k]) })
	loop(func(i int) error { return b.Delete(keys[(i*5)%len(keys)]) })
	for i := 0; i < 40; i++ {
		if err := b.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()

	// Settle, and hold the bookkeeping to a reopen's scan of the files.
	for k, data := range payloads {
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	var bytesTotal int64
	for _, data := range payloads {
		bytesTotal += int64(len(data))
	}
	if st := b.Stats(); st.Objects != len(payloads) || st.Bytes != bytesTotal {
		t.Fatalf("Stats = %+v after settling, want %d objects / %d bytes", st, len(payloads), bytesTotal)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	rb, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer rb.Close()
	for k, data := range payloads {
		if got, err := rb.Get(k); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reopened Get(%s) = %q, %v", k, got, err)
		}
	}
}
