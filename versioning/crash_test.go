package versioning

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// A disk repository's backend keeps what a commit adds in memory and
// publishes it later; until then the journal is the only durable copy.
// These are the crash points that rests on. "Kill" is abandoning the
// repository without Close and opening its directory again.

// dataFiles counts the files under dir's objects/ and packs/.
func dataFiles(t *testing.T, dir string) (objects, packs int) {
	t.Helper()
	count := func(sub string) int {
		n := 0
		err := filepath.WalkDir(filepath.Join(dir, sub), func(_ string, d os.DirEntry, err error) error {
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
	return count("objects"), count("packs")
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
			if objects, packs := dataFiles(t, dir); objects != 0 || packs != 0 {
				t.Fatalf("12 small commits left %d loose files and %d packs, want the journal alone", objects, packs)
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
			if _, packs := dataFiles(t, dir); packs != 1 || st.PackedObjects == 0 || st.PackedObjects == st.Objects {
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
		})
	}
}
