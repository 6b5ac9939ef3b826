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

	// Simulate a crash mid-write: a torn tmp file next to a real pack.
	torn := filepath.Join(dir, "packs", "pack-77.tmp")
	if err := os.WriteFile(torn, []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
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
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn tmp file %s survived reopen: %v", torn, err)
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

// TestDiskBackendIgnoresObjectsDir: the loose objects/ files older
// builds wrote — flat, in the objects/ab/cdef... fan-out, or torn — are
// neither indexed nor removed, and nothing the backend does creates
// objects/.
func TestDiskBackendIgnoresObjectsDir(t *testing.T) {
	dir := t.TempDir()
	flat, fanOut := store.KeyOf([]byte("alpha")).String(), store.KeyOf([]byte("beta")).String()
	stray := map[string][]byte{
		filepath.Join(dir, "objects", flat):                   []byte("alpha"),
		filepath.Join(dir, "objects", fanOut[:2], fanOut[2:]): []byte("beta"),
		filepath.Join(dir, "objects", "ab", "cdef.tmp123"):    []byte("partial"),
	}
	for f, data := range stray {
		if err := os.MkdirAll(filepath.Dir(f), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	b, err := store.OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	if n := b.Len(); n != 0 {
		t.Fatalf("Len = %d over a dir holding only objects/ files, want 0", n)
	}
	for _, data := range [][]byte{[]byte("alpha"), []byte("beta")} {
		if _, err := b.Get(store.KeyOf(data)); !errors.Is(err, store.ErrNotFound) {
			t.Fatalf("Get of a loose file's key = %v, want ErrNotFound", err)
		}
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	for f, data := range stray {
		if got, err := os.ReadFile(f); err != nil || !bytes.Equal(got, data) {
			t.Fatalf("stray %s after open and Close = %q, %v; want it untouched", f, got, err)
		}
	}

	fresh := t.TempDir()
	b, err = store.OpenDiskBackend(fresh)
	if err != nil {
		t.Fatal(err)
	}
	payloads := packPayloads(6)
	var batch []store.Object
	for k, data := range payloads {
		if len(batch) < 3 {
			batch = append(batch, store.Object{Key: k, Payload: data})
		} else if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	for k := range payloads {
		if err := b.Delete(k); err != nil {
			t.Fatal(err)
		}
		break
	}
	if _, err := b.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(fresh, "objects")); !os.IsNotExist(err) {
		t.Fatalf("the backend created objects/: %v", err)
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
