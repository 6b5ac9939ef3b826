// Package backendtest is the shared conformance suite for store.Backend
// implementations. Every backend — in-memory, sharded, disk, and any
// future one — must pass Run, which pins the contract the checkout
// engine and the refcount GC rely on: content-addressed idempotent puts,
// ErrNotFound on absent keys, no-op deletes of absent keys, accurate
// Len/Keys/Stats, and safety under concurrent mixed traffic (run the
// suite with -race). A backend that implements store.BatchPutter is also
// pinned to its own Put: a batch must leave what a loop of Puts leaves.
package backendtest

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"repro/internal/store"
)

// Factory builds a fresh, empty backend for one subtest.
type Factory func(t *testing.T) store.Backend

// Run exercises the full Backend contract against factory-built
// instances.
func Run(t *testing.T, factory Factory) {
	t.Run("PutGetDelete", func(t *testing.T) { testPutGetDelete(t, factory(t)) })
	t.Run("IdempotentPut", func(t *testing.T) { testIdempotentPut(t, factory(t)) })
	t.Run("LenKeysStats", func(t *testing.T) { testLenKeysStats(t, factory(t)) })
	t.Run("KeysAbort", func(t *testing.T) { testKeysAbort(t, factory(t)) })
	t.Run("Concurrent", func(t *testing.T) { testConcurrent(t, factory(t)) })
	t.Run("Batch", func(t *testing.T) { testBatch(t, factory(t), factory(t), nil) })
}

// RunDurable is Run for a backend that persists under a directory: open
// of a directory whose backend was closed must serve what that backend
// held. The batch contract is checked across such reopens as well.
func RunDurable(t *testing.T, open func(t *testing.T, dir string) store.Backend) {
	Run(t, func(t *testing.T) store.Backend { return open(t, t.TempDir()) })
	t.Run("BatchReopen", func(t *testing.T) {
		dirs := [2]string{t.TempDir(), t.TempDir()}
		testBatch(t, open(t, dirs[0]), open(t, dirs[1]), func(i int, b store.Backend) store.Backend {
			if c, ok := b.(store.Closer); ok {
				if err := c.Close(); err != nil {
					t.Fatal(err)
				}
			}
			return open(t, dirs[i])
		})
	})
}

// payload builds a distinct object payload and its content key.
func payload(i int) (store.Key, []byte) {
	data := []byte(fmt.Sprintf("object-%d-payload", i))
	return store.KeyOf(data), data
}

func testPutGetDelete(t *testing.T, b store.Backend) {
	k, data := payload(1)
	if _, err := b.Get(k); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get on empty backend: %v, want ErrNotFound", err)
	}
	if err := b.Put(k, data); err != nil {
		t.Fatal(err)
	}
	got, err := b.Get(k)
	if err != nil || !bytes.Equal(got, data) {
		t.Fatalf("Get = %q, %v, want %q", got, err, data)
	}
	if err := b.Delete(k); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Get(k); !errors.Is(err, store.ErrNotFound) {
		t.Fatalf("Get after Delete: %v, want ErrNotFound", err)
	}
	if err := b.Delete(k); err != nil {
		t.Fatalf("Delete of absent key must be a no-op, got %v", err)
	}
}

func testIdempotentPut(t *testing.T, b store.Backend) {
	k, data := payload(2)
	for i := 0; i < 3; i++ {
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Len(); n != 1 {
		t.Fatalf("Len after repeated Put = %d, want 1", n)
	}
	if st := b.Stats(); st.Objects != 1 || st.Bytes != int64(len(data)) {
		t.Fatalf("Stats after repeated Put = %+v", st)
	}
}

func testLenKeysStats(t *testing.T, b store.Backend) {
	const n = 20
	want := make(map[store.Key]int)
	var bytesTotal int64
	for i := 0; i < n; i++ {
		k, data := payload(i)
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
		want[k] = len(data)
		bytesTotal += int64(len(data))
	}
	if got := b.Len(); got != n {
		t.Fatalf("Len = %d, want %d", got, n)
	}
	if st := b.Stats(); st.Objects != n || st.Bytes != bytesTotal {
		t.Fatalf("Stats = %+v, want %d objects / %d bytes", st, n, bytesTotal)
	}
	seen := make(map[store.Key]bool)
	if err := b.Keys(func(k store.Key) error {
		if seen[k] {
			return fmt.Errorf("key %s yielded twice", k)
		}
		seen[k] = true
		if _, ok := want[k]; !ok {
			return fmt.Errorf("unexpected key %s", k)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != n {
		t.Fatalf("Keys yielded %d keys, want %d", len(seen), n)
	}
	// Keys snapshots must tolerate mutation from within fn (the orphan
	// sweep deletes while iterating).
	if err := b.Keys(b.Delete); err != nil {
		t.Fatalf("delete-during-Keys: %v", err)
	}
	if got := b.Len(); got != 0 {
		t.Fatalf("Len after sweep = %d, want 0", got)
	}
}

func testKeysAbort(t *testing.T, b store.Backend) {
	for i := 0; i < 8; i++ {
		k, data := payload(i)
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	calls := 0
	if err := b.Keys(func(store.Key) error {
		calls++
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("Keys swallowed fn's error: %v", err)
	}
	if calls != 1 {
		t.Fatalf("Keys kept iterating after an error: %d calls", calls)
	}
}

func testConcurrent(t *testing.T, b store.Backend) {
	const (
		workers = 8
		objects = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < objects; i++ {
				k, data := payload(i) // all workers fight over the same keys
				switch (w + i) % 3 {
				case 0:
					if err := b.Put(k, data); err != nil {
						t.Errorf("Put: %v", err)
						return
					}
				case 1:
					got, err := b.Get(k)
					if err != nil && !errors.Is(err, store.ErrNotFound) {
						t.Errorf("Get: %v", err)
						return
					}
					if err == nil && !bytes.Equal(got, data) {
						t.Errorf("Get returned wrong bytes for %s", k)
						return
					}
				default:
					if err := b.Delete(k); err != nil {
						t.Errorf("Delete: %v", err)
						return
					}
				}
			}
			// Iteration racing mutation must not error or deadlock.
			if err := b.Keys(func(store.Key) error { return nil }); err != nil {
				t.Errorf("Keys under load: %v", err)
			}
			_ = b.Len()
			_ = b.Stats()
		}(w)
	}
	wg.Wait()
	// Settle: put everything, then verify a coherent final state.
	for i := 0; i < objects; i++ {
		k, data := payload(i)
		if err := b.Put(k, data); err != nil {
			t.Fatal(err)
		}
	}
	if n := b.Len(); n != objects {
		t.Fatalf("Len after settling = %d, want %d", n, objects)
	}
}

// testBatch drives two empty backends through the same script, one by
// PutBatch and one by a Put per object, and requires the same key set,
// Len, Stats and Get bytes after every step. With reopen set, both are
// closed and reopened before every comparison and the script runs twice.
// A reopened backend may hold a deleted key again (a pack keeps a deleted
// record until the whole pack dies); like versioning.Open, the test
// sweeps what it does not reference before it looks.
func testBatch(t *testing.T, batched, looped store.Backend, reopen func(i int, b store.Backend) store.Backend) {
	if _, ok := batched.(store.BatchPutter); !ok {
		t.Skip("backend has no PutBatch")
	}
	steps := []struct {
		name     string
		put, del []int
	}{
		{name: "empty batch"},
		{name: "batch of one", put: []int{1}},
		{name: "batch of one, already held", put: []int{1}},
		{name: "batch of many", put: []int{2, 3, 4, 5, 6, 7}},
		{name: "held keys and duplicates", put: []int{1, 8, 5, 8, 9, 9, 10}},
		{name: "held keys only", put: []int{2, 3, 2}},
		{name: "delete batched keys", del: []int{3, 8}},
		{name: "batch over deleted keys", put: []int{3, 8, 11}},
		{name: "delete a whole batch", del: []int{2, 3, 4, 5, 6, 7}},
		{name: "one new key among held and duplicates", put: []int{1, 9, 12, 12}},
	}
	live := make(map[store.Key]bool)
	for round := 0; round == 0 || (round == 1 && reopen != nil); round++ {
		for _, step := range steps {
			objs := make([]store.Object, len(step.put))
			for i, id := range step.put {
				k, data := payload(100*round + id)
				objs[i], live[k] = store.Object{Key: k, Payload: data}, true
				if err := looped.Put(k, data); err != nil {
					t.Fatal(err)
				}
			}
			if err := batched.(store.BatchPutter).PutBatch(objs); err != nil {
				t.Fatalf("%s: %v", step.name, err)
			}
			for _, id := range step.del {
				k, _ := payload(100*round + id)
				delete(live, k)
				for _, b := range []store.Backend{batched, looped} {
					if err := b.Delete(k); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := batched.Get(k); !errors.Is(err, store.ErrNotFound) {
					t.Fatalf("%s: Get of a deleted batched key: %v, want ErrNotFound", step.name, err)
				}
			}
			if reopen != nil {
				batched, looped = reopen(0, batched), reopen(1, looped)
			}
			var keys [2][]store.Key
			for i, b := range []store.Backend{batched, looped} {
				err := b.Keys(func(k store.Key) error {
					if reopen != nil && !live[k] {
						return b.Delete(k)
					}
					keys[i] = append(keys[i], k)
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				slices.SortFunc(keys[i], func(a, b store.Key) int { return bytes.Compare(a[:], b[:]) })
			}
			if !slices.Equal(keys[0], keys[1]) || len(keys[0]) != len(live) {
				t.Fatalf("%s: PutBatch left %d keys, Put %d, of %d live, or other keys", step.name, len(keys[0]), len(keys[1]), len(live))
			}
			if batched.Len() != looped.Len() || batched.Stats() != looped.Stats() {
				t.Fatalf("%s: PutBatch left Len %d, Stats %+v; Put left Len %d, Stats %+v",
					step.name, batched.Len(), batched.Stats(), looped.Len(), looped.Stats())
			}
			for _, k := range keys[0] {
				got, err := batched.Get(k)
				want, werr := looped.Get(k)
				if err != nil || werr != nil || !bytes.Equal(got, want) || store.KeyOf(got) != k {
					t.Fatalf("%s: Get(%s) = %d bytes, %v after PutBatch; %d bytes, %v after Put", step.name, k, len(got), err, len(want), werr)
				}
			}
		}
	}
}
