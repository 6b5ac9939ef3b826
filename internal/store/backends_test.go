package store_test

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/store"
	"repro/internal/store/backendtest"
)

func TestMemBackendConformance(t *testing.T) {
	backendtest.Run(t, func(t *testing.T) store.Backend { return store.NewMemBackend() })
}

func TestShardedMemBackendConformance(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(map[int]string{1: "1shard", 4: "4shards", 16: "16shards"}[shards], func(t *testing.T) {
			backendtest.Run(t, func(t *testing.T) store.Backend {
				return store.NewShardedMemBackend(shards)
			})
		})
	}
}

func TestDiskBackendConformance(t *testing.T) {
	backendtest.RunDurable(t, func(t *testing.T, dir string) store.Backend {
		b, err := store.OpenDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { b.Close() })
		return b
	})
}

// TestDiskBackendRecovery pins the crash-recovery contract: a backend
// reopened after a kill (no Close) rebuilds its index from the packs,
// sweeps torn *.tmp files from interrupted writes, serves every object a
// publish included whole, and holds no file for one that none did.
func TestDiskBackendRecovery(t *testing.T) {
	dir := t.TempDir()
	b, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	payloads := map[store.Key][]byte{}
	for _, s := range []string{"alpha", "beta", "gamma"} {
		data := []byte(s)
		k := store.KeyOf(data)
		payloads[k] = data
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	want := b.Stats()
	staged := []byte("put after the last publish")
	if err := b.Put(store.KeyOf(staged), staged); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Get(store.KeyOf(staged)); err != nil || !bytes.Equal(got, staged) {
		t.Fatalf("Get of a staged object = %q, %v: readable when Put returns", got, err)
	}

	// Simulate a crash mid-write: torn tmp files next to real packs.
	tornFiles := []string{
		filepath.Join(dir, "objects", "ab", "deadbeef.tmp123"),
		filepath.Join(dir, "packs", "pack-77.tmp"),
	}
	for _, f := range tornFiles {
		if err := os.MkdirAll(filepath.Dir(f), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, []byte("partial"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// "Restart": a fresh backend over the same directory.
	rb, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := rb.Stats(); got != want {
		t.Fatalf("reopened Stats = %+v, want %+v", got, want)
	}
	for k, data := range payloads {
		got, err := rb.Get(k)
		if err != nil || !bytes.Equal(got, data) {
			t.Fatalf("reopened Get(%s) = %q, %v", k, got, err)
		}
	}
	if _, err := rb.Get(store.KeyOf(staged)); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("reopened Get of an object no publish included = %v, want ErrNotFound", err)
	}
	for _, f := range tornFiles {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Fatalf("torn tmp file %s survived reopen: %v", f, err)
		}
	}
	ents, err := os.ReadDir(filepath.Join(dir, "objects"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.IsDir() {
			t.Fatalf("loose file %s: Put writes none", e.Name())
		}
	}

	// Deletes survive a reopen once they took the pack with them.
	for k := range payloads {
		if err := rb.Delete(k); err != nil {
			t.Fatal(err)
		}
	}
	rb2, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := rb2.Len(); got != 0 {
		t.Fatalf("Len after deleting everything and a reopen = %d, want 0", got)
	}
}

// TestDiskBackendReadsFanOutLayout: loose objects written by hand under
// objects/ab/cdef..., the oldest layout, are served, moved to
// objects/<hex key> at open, and stay served.
func TestDiskBackendReadsFanOutLayout(t *testing.T) {
	dir := t.TempDir()
	payloads := map[store.Key][]byte{}
	var bytesTotal int64
	for _, s := range []string{"alpha", "beta", "gamma", "delta"} {
		data := []byte(s)
		k := store.KeyOf(data)
		payloads[k] = data
		bytesTotal += int64(len(data))
		h := k.String()
		if err := os.MkdirAll(filepath.Join(dir, "objects", h[:2]), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "objects", h[:2], h[2:]), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 2; round++ {
		b, err := store.OpenDiskBackend(dir)
		if err != nil {
			t.Fatal(err)
		}
		if st := b.Stats(); st.Objects != len(payloads) || st.Bytes != bytesTotal {
			t.Fatalf("open %d: Stats = %+v, want %d objects / %d bytes", round, st, len(payloads), bytesTotal)
		}
		for k, data := range payloads {
			got, err := b.Get(k)
			if err != nil || !bytes.Equal(got, data) {
				t.Fatalf("open %d: Get(%s) = %q, %v", round, k, got, err)
			}
			if _, err := os.Stat(filepath.Join(dir, "objects", k.String())); err != nil {
				t.Fatalf("open %d: object not moved to the flat layout: %v", round, err)
			}
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// A new object joins them in no form: it is staged, and Close packs it.
	b, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	fresh := []byte("epsilon")
	if err := b.Put(store.KeyOf(fresh), fresh); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "objects", store.KeyOf(fresh).String())); !os.IsNotExist(err) {
		t.Fatalf("Put wrote objects/<hex key>: %v", err)
	}
	if ents, err := os.ReadDir(filepath.Join(dir, "packs")); err != nil || len(ents) != 1 {
		t.Fatalf("Close left %d files under packs/ (%v), want the new object's pack", len(ents), err)
	}
}

// TestDiskBackendNotFound pins the lazy-read miss path.
func TestDiskBackendNotFound(t *testing.T) {
	b, err := store.OpenDiskBackend(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(store.KeyOf([]byte("absent"))); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get absent = %v, want ErrNotFound", err)
	}
}
