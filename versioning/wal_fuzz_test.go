package versioning

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/diff"
)

// FuzzWALReplay throws arbitrary bytes at the journal recovery path.
// Invariants: openWAL never panics; whatever it accepts, a second open
// of the (now truncated) file replays the identical record prefix with
// nothing further to truncate — recovery is idempotent.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(walMagic)
	f.Add(append(append([]byte{}, walMagic...), 0xff, 0xff, 0xff, 0xff, 0xff))
	// written builds a seed journal the way commits do: every record
	// appended, one fsync covering them all.
	seedDir := f.TempDir()
	written := func(name string, recs ...walRecord) []byte {
		path := filepath.Join(seedDir, name)
		w, _, _, err := openWAL(path, true)
		if err != nil {
			f.Fatal(err)
		}
		for _, rec := range recs {
			if _, err := w.append(context.Background(), rec); err != nil {
				f.Fatal(err)
			}
		}
		if err := w.waitDurable(context.Background(), uint64(len(recs))); err != nil {
			f.Fatal(err)
		}
		if err := w.Close(); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	// A genuine two-record journal (root + delta child) as a seed, plus
	// the same journal with a torn tail.
	root := walRecord{v: 0, parent: NoParent, nodeStorage: 11, lines: []string{"seed root", "line two"}}
	child := walRecord{
		v: 1, parent: 0, nodeStorage: 13,
		fwdStorage: 5, fwdRetr: 5, revStorage: 4, revRetr: 4,
		delta: diff.Compute([]string{"seed root", "line two"}, []string{"seed root", "changed"}),
	}
	seed := written("seed.wal", root, child)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])
	// The same journal extended by a merge record (extra-parent edges
	// behind the walMergeFlag bit), plus a tear inside the merge payload.
	merge := walRecord{
		v: 2, parent: 1, nodeStorage: 17,
		fwdStorage: 6, fwdRetr: 6, revStorage: 5, revRetr: 5,
		extra: []walEdge{{parent: 0, fwdStorage: 8, fwdRetr: 8, revStorage: 7, revRetr: 7}},
		delta: diff.Compute([]string{"seed root", "changed"}, []string{"seed root", "merged"}),
	}
	merged := written("merge.wal", root, child, merge)
	f.Add(merged)
	f.Add(merged[:len(merged)-4])
	// Three independent roots, plus a tear in the middle of the batch.
	var roots []walRecord
	for i := 0; i < 3; i++ {
		roots = append(roots, walRecord{v: NodeID(i), parent: NoParent, nodeStorage: Cost(i + 1), lines: []string{"batched", string(rune('a' + i))}})
	}
	batched := written("batched.wal", roots...)
	f.Add(batched)
	f.Add(batched[:len(batched)-5])

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "journal.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		w1, recs1, _, err := openWAL(path, false)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if err := w1.Close(); err != nil {
			t.Fatalf("closing recovered journal: %v", err)
		}
		w2, recs2, truncated, err := openWAL(path, false)
		if err != nil {
			t.Fatalf("reopening recovered journal: %v", err)
		}
		defer w2.Close()
		if truncated != 0 {
			t.Fatalf("recovery not idempotent: second open truncated %d more bytes", truncated)
		}
		if len(recs2) != len(recs1) {
			t.Fatalf("recovery not idempotent: %d records, then %d", len(recs1), len(recs2))
		}
		for i := range recs1 {
			if recs1[i].v != recs2[i].v || recs1[i].parent != recs2[i].parent {
				t.Fatalf("record %d drifted across reopen: %+v vs %+v", i, recs1[i], recs2[i])
			}
		}
	})
}
