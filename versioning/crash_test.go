package versioning

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/store"
)

// A disk repository's backend keeps what a commit adds in memory and
// publishes it later; until then the journal is the only durable copy.
// These are the crash points that rests on. "Kill" is abandoning the
// repository without Close and opening its directory again.

// dataFiles counts the files under dir's packs/.
func dataFiles(t *testing.T, dir string) (packs int) {
	t.Helper()
	err := filepath.WalkDir(filepath.Join(dir, "packs"), func(_ string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			packs++
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return packs
}

// assertNoObjectsDir fails if dir holds an objects/ directory, which only
// older builds wrote.
func assertNoObjectsDir(t *testing.T, dir string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, "objects")); !os.IsNotExist(err) {
		t.Fatalf("%s has an objects/ directory: %v", dir, err)
	}
}

// crashDoc is version v of a document of n lines whose first own lines
// are v's alone and whose rest every version has.
func crashDoc(v, n, own int) []string {
	lines := make([]string, n)
	for i := range lines {
		if i < own {
			lines[i] = fmt.Sprintf("version %04d line %04d %0150d", v, i, v*n+i)
		} else {
			lines[i] = fmt.Sprintf("shared line %04d %0150d", i, i)
		}
	}
	return lines
}

func TestCrashPoints(t *testing.T) {
	ctx := context.Background()
	// chain commits n versions onto r, each the child of the one before,
	// and returns what was acknowledged.
	chain := func(t *testing.T, r *Repository, n int, doc func(v int) []string) [][]string {
		var acked [][]string
		for v := 0; v < n; v++ {
			lines := doc(v)
			id, err := r.Commit(ctx, NodeID(v-1), lines)
			if err != nil || id != NodeID(v) {
				t.Fatalf("Commit(%d) = %d, %v", v, id, err)
			}
			acked = append(acked, lines)
		}
		return acked
	}
	small := func(v int) []string { return crashDoc(v, 4, 1) }
	// No checkout cache: every read-back is a reconstruction from objects.
	open := func(dir string) (*Repository, error) {
		opt := groupOptions(dir)
		opt.CacheEntries = -1
		return Open("crash", opt)
	}
	for _, c := range []struct {
		name string
		// run drives r, opened on dir, up to the crash point and returns
		// the acknowledged contents by version. It runs twice, on the
		// repository that is killed and on the twin that is closed.
		run func(t *testing.T, r *Repository, dir string) [][]string
	}{
		{"nothing published", func(t *testing.T, r *Repository, dir string) [][]string {
			acked := chain(t, r, 12, small)
			if packs := dataFiles(t, dir); packs != 0 {
				t.Fatalf("12 small commits left %d packs, want the journal alone", packs)
			}
			return acked
		}},
		{"published mid-run", func(t *testing.T, r *Repository, dir string) [][]string {
			// A small root, then 20 versions of some 70 KB that share no
			// line: each one's delta outweighs it, so each is stored whole,
			// its chunks and manifest staged like a delta. Together they
			// pass the staged tier's 1 MiB once.
			acked := chain(t, r, 21, func(v int) []string {
				if v == 0 {
					return small(v)
				}
				return crashDoc(v, 400, 400)
			})
			st := r.Stats()
			if st.Blobs != 21 || st.StoredDeltas != 0 {
				t.Fatalf("%d versions stored whole and %d deltas, want all 21 whole", st.Blobs, st.StoredDeltas)
			}
			if packs := dataFiles(t, dir); packs != 1 || st.PackedObjects == 0 || st.PackedObjects == st.Objects {
				t.Fatalf("%d packs holding %d of %d objects, want one publish and a staged rest", packs, st.PackedObjects, st.Objects)
			}
			return acked
		}},
		{"after a re-plan", func(t *testing.T, r *Repository, dir string) [][]string {
			acked := chain(t, r, 12, func(v int) []string { return crashDoc(v, 40, 2) })
			if err := r.Replan(ctx); err != nil {
				t.Fatal(err)
			}
			st := r.Stats()
			if st.MigrationObjects == 0 || st.StoredDeltas == 0 || st.PackedObjects == st.Objects {
				t.Fatalf("%+v: want a migration that added objects and kept deltas that are still staged", st)
			}
			return acked
		}},
		{"torn pack tmp", func(t *testing.T, r *Repository, dir string) [][]string {
			acked := chain(t, r, 12, small)
			if err := os.WriteFile(filepath.Join(dir, "packs", "pack-1234.tmp"), []byte("DSVPACK1 and half a rec"), 0o644); err != nil {
				t.Fatal(err)
			}
			return acked
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			killedDir, closedDir := t.TempDir(), t.TempDir()
			killed, err := open(killedDir)
			if err != nil {
				t.Fatal(err)
			}
			acked := c.run(t, killed, killedDir)
			killed.stopMaintenance() // the dead instance's goroutine, not its files

			closed, err := open(closedDir)
			if err != nil {
				t.Fatal(err)
			}
			c.run(t, closed, closedDir)
			if err := closed.Close(); err != nil {
				t.Fatal(err)
			}

			r, err := open(killedDir)
			if err != nil {
				t.Fatalf("Open after the kill: %v", err)
			}
			defer r.Close()
			twin, err := open(closedDir)
			if err != nil {
				t.Fatal(err)
			}
			defer twin.Close()
			readBack := func() {
				t.Helper()
				for v, want := range acked {
					if got, err := r.Checkout(ctx, NodeID(v)); err != nil || !reflect.DeepEqual(got, want) {
						t.Fatalf("Checkout(%d) after the kill: %d lines, %v; want the %d acknowledged", v, len(got), err, len(want))
					}
				}
			}
			readBack()
			got, want := r.Stats(), twin.Stats()
			if got.Versions != want.Versions || got.Storage != want.Storage || got.SumRetrieval != want.SumRetrieval ||
				got.MaxRetrieval != want.MaxRetrieval || got.Objects != want.Objects || got.StoredBytes != want.StoredBytes {
				t.Fatalf("after the kill: %d versions, plan (%d, %d, %d), %d objects of %d bytes;\nafter a clean Close: %d versions, plan (%d, %d, %d), %d objects of %d bytes",
					got.Versions, got.Storage, got.SumRetrieval, got.MaxRetrieval, got.Objects, got.StoredBytes,
					want.Versions, want.Storage, want.SumRetrieval, want.MaxRetrieval, want.Objects, want.StoredBytes)
			}
			if ents, err := filepath.Glob(filepath.Join(killedDir, "*", "*.tmp*")); err != nil || len(ents) != 0 {
				t.Fatalf("tmp files after the reopen: %v, %v", ents, err)
			}

			next := small(len(acked))
			if id, err := r.Commit(ctx, NodeID(len(acked)-1), next); err != nil || id != NodeID(len(acked)) {
				t.Fatalf("Commit after the reopen = %d, %v", id, err)
			}
			acked = append(acked, next)
			if err := r.Replan(ctx); err != nil {
				t.Fatalf("Replan after the reopen: %v", err)
			}
			readBack()
			assertNoObjectsDir(t, killedDir)
			assertNoObjectsDir(t, closedDir)
		})
	}
}

// TestReopenFromJournalAlone: a data dir is its journal. With packs/
// deleted and a stray objects/ tree of the kind older builds wrote
// planted in its place, a reopen rebuilds every object the history needs
// by replay, after a kill and after Close alike. Some stray files are
// named by keys the repository holds but carry other bytes, so a read of
// one would show in a checkout; none is read, and none is removed.
func TestReopenFromJournalAlone(t *testing.T) {
	ctx := context.Background()
	for _, kill := range []bool{true, false} {
		t.Run(map[bool]string{true: "kill", false: "close"}[kill], func(t *testing.T) {
			dir := t.TempDir()
			opt := groupOptions(dir)
			opt.CacheEntries = -1
			r, err := Open("journal", opt)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(7))
			var oracle [][]string
			merges := 0
			commit := func(n int) {
				t.Helper()
				for ; n > 0; n-- {
					parents, lines := journalCommit(rng, oracle)
					id, err := r.CommitMerge(ctx, parents, lines)
					if err != nil || id != NodeID(len(oracle)) {
						t.Fatalf("commit %d = %d, %v", len(oracle), id, err)
					}
					if len(parents) > 1 {
						merges++
					}
					oracle = append(oracle, lines)
				}
			}
			commit(14)
			if st := r.Stats(); st.Blobs < 2 || merges == 0 {
				t.Fatalf("%d versions stored whole and %d merges: want both beside the root", st.Blobs, merges)
			}
			for _, n := range []int{13, 13, 0} {
				if err := r.Replan(ctx); err != nil {
					t.Fatal(err)
				}
				commit(n)
			}
			if packs := dataFiles(t, dir); packs == 0 {
				t.Fatal("three re-plans published no pack: removing packs/ tests nothing")
			}
			var held []string
			if err := r.st.Backend().Keys(func(k store.Key) error {
				held = append(held, k.String())
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if kill {
				r.stopMaintenance()
			} else if err := r.Close(); err != nil {
				t.Fatal(err)
			}

			if err := os.RemoveAll(filepath.Join(dir, "packs")); err != nil {
				t.Fatal(err)
			}
			stray := map[string]string{
				filepath.Join(dir, "objects", held[0]):                   "not the bytes of " + held[0],
				filepath.Join(dir, "objects", held[1][:2], held[1][2:]):  "not the bytes of " + held[1],
				filepath.Join(dir, "objects", held[2][:2], "cdef.tmp42"): "torn",
			}
			for f, data := range stray {
				if err := os.MkdirAll(filepath.Dir(f), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(f, []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
			}

			r, err = Open("journal", opt)
			if err != nil {
				t.Fatalf("Open from the journal alone: %v", err)
			}
			readAll(t, r, oracle, "after the reopen")
			assertCostMatchesPlan(t, r, "after the reopen")
			if err := r.Replan(ctx); err != nil {
				t.Fatal(err)
			}
			readAll(t, r, oracle, "after a re-plan of the reopened repository")
			assertCostMatchesPlan(t, r, "after a re-plan of the reopened repository")
			if err := r.Close(); err != nil {
				t.Fatal(err)
			}
			n := 0
			if err := filepath.WalkDir(filepath.Join(dir, "objects"), func(path string, d os.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				n++
				if got, err := os.ReadFile(path); err != nil || string(got) != stray[path] {
					t.Errorf("%s = %q, %v after the reopen; want the stray bytes untouched", path, got, err)
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if n != len(stray) {
				t.Fatalf("%d files under objects/, want the %d stray ones", n, len(stray))
			}
		})
	}
}

// journalCommit draws the next commit of a history of one root, small
// edits, merges and whole rewrites, which are stored whole.
func journalCommit(rng *rand.Rand, oracle [][]string) ([]NodeID, []string) {
	n := len(oracle)
	if n == 0 {
		return nil, layoutDoc(rng, 5+rng.Intn(200))
	}
	parents := []NodeID{NodeID(rng.Intn(n))}
	prev := oracle[parents[0]]
	if n%5 == 4 {
		// A merge: the first parent's head and another's tail.
		q := NodeID(rng.Intn(n))
		parents = append(parents, q)
		prev = slices.Concat(prev[:len(prev)/2], oracle[q][len(oracle[q])/2:])
	}
	if n%7 == 6 {
		return parents, layoutDoc(rng, len(prev)) // its delta outweighs it
	}
	return parents, layoutEdit(rng, prev, 1+rng.Intn(3))
}
