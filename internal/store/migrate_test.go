package store

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/graph"
	"repro/internal/lmg"
	"repro/internal/plan"
	"repro/internal/repogen"
)

// Install takes over what the serving plan holds instead of rebuilding
// it. These tests pin it to the from-scratch Install it replaced: a
// fresh store given the same plan must end up with the same objects.

// backendKeys lists a backend's keys in order.
func backendKeys(t *testing.T, b Backend) []Key {
	t.Helper()
	var keys []Key
	if err := b.Keys(func(k Key) error { keys = append(keys, k); return nil }); err != nil {
		t.Fatal(err)
	}
	slices.SortFunc(keys, func(a, b Key) int { return slices.Compare(a[:], b[:]) })
	return keys
}

// countingContent serves contents and records which versions were asked
// for, in order.
func countingContent(contents [][]string, asked *[]graph.NodeID) ContentFunc {
	return func(v graph.NodeID) ([]string, error) {
		*asked = append(*asked, v)
		return contents[v], nil
	}
}

// assertMatchesFromScratch installs p into a fresh store and requires s
// to hold the same keys with the same reference counts and byte total.
func assertMatchesFromScratch(t *testing.T, s *Store, g *graph.Graph, p *plan.Plan, contents [][]string) {
	t.Helper()
	fresh := New(Options{})
	if err := fresh.Install(g, p, func(v graph.NodeID) ([]string, error) { return contents[v], nil }); err != nil {
		t.Fatal(err)
	}
	if got, want := backendKeys(t, s.backend), backendKeys(t, fresh.backend); !slices.Equal(got, want) {
		t.Fatalf("incremental Install holds %d objects, from scratch %d, or other keys", len(got), len(want))
	}
	if got, want := s.backend.Stats().Bytes, fresh.backend.Stats().Bytes; got != want {
		t.Fatalf("incremental Install holds %d bytes, from scratch %d", got, want)
	}
	if !reflect.DeepEqual(s.refs, fresh.refs) {
		t.Fatal("reference counts differ from a from-scratch Install")
	}
	if !reflect.DeepEqual(s.blobs, fresh.blobs) || !reflect.DeepEqual(s.deltas, fresh.deltas) || !slices.Equal(s.parentEdge, fresh.parentEdge) {
		t.Fatal("serving maps differ from a from-scratch Install")
	}
}

// TestIncrementalInstallMatchesFromScratch grows a history the way a
// repository does (AddMaterialized / AddVersion, with unstored merge
// edges beside them) and migrates it now and then to a plan from a
// random solver. After every Install each backend must hold exactly what
// a from-scratch Install of that plan holds, must have been asked for
// exactly MigrationNeeds, must report exactly the objects it added, and
// must serve every version byte for byte.
func TestIncrementalInstallMatchesFromScratch(t *testing.T) {
	storedMerges := 0
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			src := repogen.GenerateRepo("migrate", 48, seed)
			// A shared head puts every version over the chunking
			// threshold, so blobs are manifests over shared chunks.
			shared := bigLines(150, "shared")
			contents := make([][]string, len(src.Contents))
			for v, c := range src.Contents {
				contents[v] = append(append([]string(nil), shared...), c...)
			}
			disk, err := OpenDiskBackend(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			stores := map[string]*Store{
				"mem":     New(Options{Backend: NewMemBackend(), CacheEntries: -1}),
				"sharded": New(Options{Backend: NewShardedMemBackend(4), CacheEntries: 8}),
				"disk":    New(Options{Backend: disk, CacheEntries: -1}),
			}
			defer stores["disk"].Close()

			g := graph.New("migrate")
			merge := make(map[graph.EdgeID]bool)
			for i := range contents {
				v := graph.NodeID(i)
				g.AddNode(diff.ByteSize(contents[v]))
				if parent := src.Parents[v]; parent == graph.None {
					for name, s := range stores {
						if err := s.AddMaterialized(v, contents[v]); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
				} else {
					e, d := addEdgePair(g, contents, parent, v)
					for name, s := range stores {
						if err := s.AddVersion(v, parent, e, d, nil); err != nil {
							t.Fatalf("%s: %v", name, err)
						}
					}
					if other := graph.NodeID(rng.Intn(i)); other != parent && rng.Intn(3) == 0 {
						e, _ := addEdgePair(g, contents, other, v)
						merge[e], merge[e+1] = true, true
					}
				}
				if rng.Intn(4) != 0 && i != len(contents)-1 {
					continue
				}

				var p *plan.Plan
				switch kind := rng.Intn(4); kind {
				case 0:
					var sol core.Solution
					sol, err = core.MST(context.Background(), g)
					p = sol.Plan
				case 1:
					var sol core.Solution
					sol, err = core.SPT(g, graph.NodeID(rng.Intn(g.N())))
					p = sol.Plan
				case 2:
					p = plan.MaterializeAll(g)
				default:
					var mst core.Solution
					if mst, err = core.MST(context.Background(), g); err != nil {
						break
					}
					var res core.Solution
					res, err = lmg.LMG(context.Background(), g, mst.Cost.Storage+graph.Cost(rng.Int63n(int64(2*mst.Cost.Storage))))
					p = res.Plan
				}
				if err != nil {
					t.Fatal(err)
				}
				for e := range merge {
					if p.Stored[e] {
						storedMerges++
					}
				}
				for name, s := range stores {
					held := make(map[Key]bool)
					for _, k := range backendKeys(t, s.backend) {
						held[k] = true
					}
					before := s.Stats()
					needs := s.MigrationNeeds(g, p)
					var asked []graph.NodeID
					if err := s.Install(g, p, countingContent(contents, &asked)); err != nil {
						t.Fatalf("%s: Install at %d versions: %v", name, g.N(), err)
					}
					slices.Sort(asked)
					if !slices.Equal(asked, needs) {
						t.Fatalf("%s: Install asked for %v, MigrationNeeds said %v", name, asked, needs)
					}
					assertMatchesFromScratch(t, s, g, p, contents[:g.N()])
					var added, addedBytes int64
					for _, k := range backendKeys(t, s.backend) {
						if held[k] {
							continue
						}
						payload, err := s.backend.Get(k)
						if err != nil {
							t.Fatal(err)
						}
						added++
						addedBytes += int64(len(payload))
					}
					after := s.Stats()
					objs, bytes := after.MigrationObjects-before.MigrationObjects, after.MigrationBytes-before.MigrationBytes
					if objs != added || bytes != addedBytes {
						t.Fatalf("%s: Install reports %d objects / %d bytes written, backend gained %d / %d",
							name, objs, bytes, added, addedBytes)
					}
					checkAll(t, s, contents[:g.N()])
				}
			}
		})
	}
	if storedMerges == 0 {
		t.Fatal("no installed plan stored a merge edge: the sequences never migrated onto an edge Add* had not written")
	}
}

// chainFixture is a chain 0 -> 1 -> ... of n versions with forward and
// reverse edges, version i+1 appending one line to version i.
func chainFixture(n int, base []string) (*graph.Graph, [][]string) {
	g := graph.New("chain")
	contents := [][]string{base}
	g.AddNode(diff.ByteSize(base))
	for i := 1; i < n; i++ {
		next := append(append([]string(nil), contents[i-1]...), fmt.Sprintf("line of version %d", i))
		contents = append(contents, next)
		g.AddNode(diff.ByteSize(next))
		addEdgePair(g, contents, graph.NodeID(i-1), graph.NodeID(i))
	}
	return g, contents
}

// addEdgePair adds from -> to and its reverse, weighed by real edit
// scripts, and returns the forward edge with its script.
func addEdgePair(g *graph.Graph, contents [][]string, from, to graph.NodeID) (graph.EdgeID, diff.Delta) {
	fwd, rev := diff.Compute(contents[from], contents[to]), diff.Compute(contents[to], contents[from])
	e := g.AddEdge(from, to, fwd.StorageCost(), fwd.StorageCost())
	g.AddEdge(to, from, rev.StorageCost(), rev.StorageCost())
	return e, fwd
}

// forwardChainPlan materializes version 0 and stores every forward edge
// of a chainFixture graph.
func forwardChainPlan(g *graph.Graph, n int) *plan.Plan {
	p := plan.New(g)
	p.Materialized[0] = true
	for i := 1; i < n; i++ {
		p.Stored[2*(i-1)] = true
	}
	return p
}

// TestReinstallServingPlanIsFree: migrating to the plan already serving
// reads no content and writes nothing, and says so.
func TestReinstallServingPlanIsFree(t *testing.T) {
	g, contents := chainFixture(12, bigLines(200, "free"))
	p := forwardChainPlan(g, 12)
	s := New(Options{CacheEntries: -1})
	var asked []graph.NodeID
	if err := s.Install(g, p, countingContent(contents, &asked)); err != nil {
		t.Fatal(err)
	}
	if obj := s.Stats().MigrationObjects; obj == 0 || len(asked) != 12 {
		t.Fatalf("first Install wrote %d objects and asked for %d contents, want every one", obj, len(asked))
	}
	before := s.Stats()
	asked = nil
	if needs := s.MigrationNeeds(g, p); len(needs) != 0 {
		t.Fatalf("MigrationNeeds of the serving plan = %v, want none", needs)
	}
	if err := s.Install(g, p.Clone(), countingContent(contents, &asked)); err != nil {
		t.Fatal(err)
	}
	after := s.Stats()
	if after.MigrationObjects != before.MigrationObjects || after.MigrationBytes != before.MigrationBytes || len(asked) != 0 {
		t.Fatalf("re-installing the serving plan wrote %d objects / %d bytes and asked for %v, want nothing",
			after.MigrationObjects-before.MigrationObjects, after.MigrationBytes-before.MigrationBytes, asked)
	}
	assertMatchesFromScratch(t, s, g, p, contents)
	checkAll(t, s, contents)
}

// TestInstallAsksOnlyForTheChangedEdge: a plan that differs from the
// serving one in a single stored edge reads that edge's two endpoints
// and writes one object.
func TestInstallAsksOnlyForTheChangedEdge(t *testing.T) {
	g, contents := chainFixture(10, bigLines(100, "edge"))
	shortcut, _ := addEdgePair(g, contents, 2, 5)
	p := forwardChainPlan(g, 10)
	s := New(Options{CacheEntries: -1})
	if err := s.Install(g, p, func(v graph.NodeID) ([]string, error) { return contents[v], nil }); err != nil {
		t.Fatal(err)
	}
	q := p.Clone()
	q.Stored[2*4] = false // 4 -> 5 ...
	q.Stored[shortcut] = true
	objBefore := s.Stats().MigrationObjects
	var asked []graph.NodeID
	if err := s.Install(g, q, countingContent(contents, &asked)); err != nil {
		t.Fatal(err)
	}
	if slices.Sort(asked); !slices.Equal(asked, []graph.NodeID{2, 5}) {
		t.Fatalf("Install asked for %v, want the new edge's endpoints [2 5]", asked)
	}
	if objAfter := s.Stats().MigrationObjects; objAfter-objBefore != 1 {
		t.Fatalf("Install wrote %d objects, want the one new delta", objAfter-objBefore)
	}
	assertMatchesFromScratch(t, s, g, q, contents)
	checkAll(t, s, contents)

	// The same edge id between other endpoints is another delta: nothing
	// of it may be taken over.
	g2, contents2 := chainFixture(10, bigLines(100, "edge"))
	addEdgePair(g2, contents2, 3, 5)
	asked = nil
	if err := s.Install(g2, q, countingContent(contents2, &asked)); err != nil {
		t.Fatal(err)
	}
	if slices.Sort(asked); !slices.Equal(asked, []graph.NodeID{3, 5}) {
		t.Fatalf("Install asked for %v, want the re-pointed edge's endpoints [3 5]", asked)
	}
	assertMatchesFromScratch(t, s, g2, q, contents2)
	checkAll(t, s, contents2)
}

// TestInstallRepeatedChunkRefcounts: a version whose content repeats a
// chunk references that object more than once. Taking its blob over
// must carry the whole multiset, and dropping it must not take a chunk
// another version still uses.
func TestInstallRepeatedChunkRefcounts(t *testing.T) {
	same := make([]string, 300)
	for i := range same {
		same[i] = "the same line over and over"
	}
	g, contents := chainFixture(3, same)
	s := New(Options{CacheEntries: -1})
	if err := s.AddMaterialized(0, contents[0]); err != nil {
		t.Fatal(err)
	}
	repeated := false
	for _, n := range s.refs {
		repeated = repeated || n > 1
	}
	if !repeated {
		t.Fatal("fixture has no chunk referenced twice by one version")
	}
	for v := 1; v < 3; v++ {
		e := graph.EdgeID(2 * (v - 1))
		if err := s.AddVersion(graph.NodeID(v), graph.NodeID(v-1), e, diff.Compute(contents[v-1], contents[v]), nil); err != nil {
			t.Fatal(err)
		}
	}
	content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }
	all := plan.MaterializeAll(g)
	tail := plan.New(g) // version 2 in full, 1 and 0 by reverse deltas
	tail.Materialized[2] = true
	tail.Stored[1], tail.Stored[3] = true, true
	for i, p := range []*plan.Plan{forwardChainPlan(g, 3), all, tail, all} {
		if err := s.Install(g, p, content); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		assertMatchesFromScratch(t, s, g, p, contents)
		checkAll(t, s, contents)
	}
}

// failingBackend fails every Put after the first okPuts. It has no
// PutBatch, so a publish reaches it one Put at a time.
type failingBackend struct {
	Backend
	okPuts int
}

var errBackendFull = errors.New("backend full")

func (b *failingBackend) Put(k Key, payload []byte) error {
	if b.okPuts == 0 {
		return errBackendFull
	}
	b.okPuts--
	return b.Backend.Put(k, payload)
}

// failingBatchBackend fails every PutBatch after the first okBatches and
// counts the objects the others landed.
type failingBatchBackend struct {
	Backend
	okBatches, landed int
}

func (b *failingBatchBackend) PutBatch(objs []Object) error {
	if b.okBatches == 0 {
		return errBackendFull
	}
	b.okBatches--
	b.landed += len(objs)
	return putBatch(b.Backend, objs)
}

// TestFailedInstallKeepsServingPlan: a content error or a backend write
// failure part-way through the build or the publish leaves the serving
// plan as it was — readable, every taken-over object in place, nothing
// orphaned.
func TestFailedInstallKeepsServingPlan(t *testing.T) {
	errContent := errors.New("content unavailable")
	for _, c := range []struct {
		name                        string
		okContents                  int // contents served before the fault; -1 = no fault
		okPuts, okBatches, maxStage int // the backend's budget and the stage bound during the failing Install
		wantLanded                  bool
		want                        error
	}{
		{name: "content", okContents: 2, okPuts: -1, want: errContent},
		{name: "put", okContents: -1, okPuts: 3, want: errBackendFull},
		// The only publish fails: nothing landed.
		{name: "putbatch", okContents: -1, okBatches: 0, maxStage: stageLimit, want: errBackendFull},
		// A stage bound of 256 bytes cuts the build into several publishes;
		// the second fails with the first in the backend.
		{name: "second-publish", okContents: -1, okBatches: 1, maxStage: 256, wantLanded: true, want: errBackendFull},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, contents := chainFixture(10, bigLines(200, "fail"))
			loop := &failingBackend{Backend: NewMemBackend(), okPuts: -1}
			batch := &failingBatchBackend{Backend: NewMemBackend(), okBatches: -1}
			var b Backend = loop
			if c.maxStage != 0 {
				b = batch
			}
			s := New(Options{Backend: b, CacheEntries: -1})
			p := forwardChainPlan(g, 10)
			if err := s.Install(g, p, func(v graph.NodeID) ([]string, error) { return contents[v], nil }); err != nil {
				t.Fatal(err)
			}
			before := backendKeys(t, b)
			refs := s.refs
			loop.okPuts, batch.okBatches, batch.landed = c.okPuts, c.okBatches, 0
			if c.maxStage != 0 {
				s.maxStage = c.maxStage
			}
			// The target keeps version 0's blob and the first deltas, and
			// needs new blobs for versions 4..9.
			q := p.Clone()
			for v := 4; v < 10; v++ {
				q.Materialized[v] = true
				q.Stored[2*(v-1)] = false
			}
			served := 0
			err := s.Install(g, q, func(v graph.NodeID) ([]string, error) {
				if served == c.okContents {
					return nil, errContent
				}
				served++
				return contents[v], nil
			})
			if !errors.Is(err, c.want) {
				t.Fatalf("Install = %v, want %v", err, c.want)
			}
			if served == 0 {
				t.Fatal("the build failed before writing anything: nothing to roll back")
			}
			if after := backendKeys(t, b); !slices.Equal(after, before) {
				t.Fatalf("failed Install left %d objects, serving plan had %d", len(after), len(before))
			}
			if !reflect.DeepEqual(s.refs, refs) {
				t.Fatal("failed Install changed the serving references")
			}
			checkAll(t, s, contents)
			if (batch.landed > 0) != c.wantLanded {
				t.Fatalf("publishes before the failing one landed %d objects", batch.landed)
			}
			loop.okPuts, batch.okBatches = -1, -1
			if err := s.Install(g, q, func(v graph.NodeID) ([]string, error) { return contents[v], nil }); err != nil {
				t.Fatalf("retry after the fault cleared: %v", err)
			}
			assertMatchesFromScratch(t, s, g, q, contents)
			checkAll(t, s, contents)
		})
	}
}

// dirFiles counts the regular files under dir.
func dirFiles(t *testing.T, dir string) int {
	t.Helper()
	n := 0
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
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

// openDiskStore opens a store on a disk backend rooted at dir.
func openDiskStore(t *testing.T, dir string) (*DiskBackend, *Store) {
	t.Helper()
	b, err := OpenDiskBackend(dir)
	if err != nil {
		t.Fatal(err)
	}
	return b, New(Options{Backend: b, CacheEntries: -1})
}

// TestDiskInstallPublishesOnePack: on disk, what one store operation adds
// is at most one durable write. A migration that
// adds several objects leaves one new pack. What a commit adds — a
// delta, or a whole version's chunks and manifest, which the caller's
// journal can rebuild — leaves no file at all until Close publishes
// every such object together, and so does a migration that adds a single
// object; one that adds nothing leaves nothing. A reopen after Close
// holds everything.
func TestDiskInstallPublishesOnePack(t *testing.T) {
	dir := t.TempDir()
	b, s := openDiskStore(t, dir)
	packs := func() int { return dirFiles(t, filepath.Join(dir, "packs")) }
	g, contents := chainFixture(10, bigLines(400, "pack"))
	shortcut, _ := addEdgePair(g, contents, 2, 5)
	content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }

	if err := s.AddMaterialized(0, contents[0]); err != nil {
		t.Fatal(err)
	}
	if n := packs(); n != 0 || b.Len() < 3 {
		t.Fatalf("a chunked root of %d objects left %d packs, want its objects held and no file", b.Len(), n)
	}
	rootObjects := b.Len()
	for v := 1; v < 4; v++ {
		e := graph.EdgeID(2 * (v - 1))
		if err := s.AddVersion(graph.NodeID(v), graph.NodeID(v-1), e, diff.Compute(contents[v-1], contents[v]), nil); err != nil {
			t.Fatal(err)
		}
	}
	if n := packs(); n != 0 || b.Len() != rootObjects+3 {
		t.Fatalf("three commits left %d packs and %d objects, want their three deltas held and no file", n, b.Len()-rootObjects)
	}

	p := forwardChainPlan(g, 10)
	objBefore := s.Stats().MigrationObjects
	if err := s.Install(g, p, content); err != nil {
		t.Fatal(err)
	}
	if obj := s.Stats().MigrationObjects; obj-objBefore != 6 {
		t.Fatalf("the migration added %d objects, want the six new deltas", obj-objBefore)
	}
	if n := packs(); n != 1 {
		t.Fatalf("a migration adding six objects left %d packs, want one", n)
	}

	q := p.Clone()
	q.Stored[2*4], q.Stored[shortcut] = false, true
	if err := s.Install(g, q, content); err != nil {
		t.Fatal(err)
	}
	if err := s.Install(g, q.Clone(), content); err != nil {
		t.Fatal(err)
	}
	if n := packs(); n != 1 {
		t.Fatalf("a migration adding one object and a re-install of the serving plan left %d packs, want no new file", n)
	}
	if ps := b.PackStats(); ps.Compactions != 0 || ps.PackedObjects != b.Len()-rootObjects-4 {
		t.Fatalf("%+v of %d objects, want no compaction and all but the root's and the four lone objects in packs", ps, b.Len())
	}
	assertMatchesFromScratch(t, s, g, q, contents)
	checkAll(t, s, contents)

	// Close publishes the root's objects and the four lone ones as one pack.
	held := backendKeys(t, b)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := packs(); n != 2 {
		t.Fatalf("Close left %d packs, want one more pack", n)
	}
	// Every object held at Close is in a pack now (beside the one record
	// the second migration's GC left dead in a pack that lives on).
	b2, s2 := openDiskStore(t, dir)
	defer s2.Close()
	for _, k := range held {
		if got, err := b2.Get(k); err != nil || KeyOf(got) != k {
			t.Fatalf("reopened Get(%s) = %d bytes, %v", k, len(got), err)
		}
	}
	if ps := b2.PackStats(); ps.PackedObjects != b2.Len() || b2.Len() != len(held)+1 {
		t.Fatalf("reopened backend holds %d objects, %d of them packed; the closed one held %d", b2.Len(), ps.PackedObjects, len(held))
	}
}

// TestInterruptedPublish covers the two crash points of a publish, on a
// process that dies without Close. A pack still under its tmp name is
// swept at open. A pack that was published for a plan the store never
// swapped to holds objects nothing references: the orphan sweep that
// versioning.Open runs removes them, and the pack file with the last.
// Either way the serving plan reads back whole.
func TestInterruptedPublish(t *testing.T) {
	dir := t.TempDir()
	b, s := openDiskStore(t, dir)
	g, contents := chainFixture(10, bigLines(200, "crash"))
	content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }
	p := forwardChainPlan(g, 10)
	if err := s.Install(g, p, content); err != nil {
		t.Fatal(err)
	}
	serving := backendKeys(t, b)
	packDir := filepath.Join(dir, "packs")

	// The objects a migration to q would add, built beside the store.
	q := p.Clone()
	for v := 4; v < 10; v++ {
		q.Materialized[v], q.Stored[2*(v-1)] = true, false
	}
	target := New(Options{})
	if err := target.Install(g, q, content); err != nil {
		t.Fatal(err)
	}
	var added []Object
	for _, k := range backendKeys(t, target.backend) {
		if _, held := slices.BinarySearchFunc(serving, k, func(a, b Key) int { return slices.Compare(a[:], b[:]) }); !held {
			payload, err := target.backend.Get(k)
			if err != nil {
				t.Fatal(err)
			}
			added = append(added, Object{Key: k, Payload: payload})
		}
	}
	if len(added) < 2 {
		t.Fatalf("the target plan adds %d objects: not a pack", len(added))
	}

	// Crash one: the pack never got its name.
	torn := filepath.Join(packDir, "pack-123456.tmp")
	if err := os.WriteFile(torn, []byte(packMagic+"half a record"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Crash two: published and indexed, the process dies before the swap.
	if err := b.PutBatch(added); err != nil {
		t.Fatal(err)
	}
	if n := dirFiles(t, packDir); n != 3 {
		t.Fatalf("%d files in the pack directory before the crash, want the serving pack, the torn tmp and the unswapped pack", n)
	}

	b2, s2 := openDiskStore(t, dir)
	defer s2.Close()
	if _, err := os.Stat(torn); !os.IsNotExist(err) {
		t.Fatalf("torn pack tmp survived reopen: %v", err)
	}
	if got := b2.Len(); got != len(serving)+len(added) {
		t.Fatalf("reopened backend holds %d objects, want %d serving and %d unswapped", got, len(serving), len(added))
	}
	// What versioning.Open does: rebuild the serving state, then sweep.
	objBefore := s2.Stats().MigrationObjects
	if err := s2.Install(g, p, content); err != nil {
		t.Fatal(err)
	}
	if obj := s2.Stats().MigrationObjects; obj-objBefore != int64(len(serving)) {
		t.Fatalf("rebuilding the serving state staged %d objects, want all %d", obj-objBefore, len(serving))
	}
	removed, err := s2.SweepOrphans()
	if err != nil || removed != len(added) {
		t.Fatalf("SweepOrphans = %d, %v; want the %d unswapped objects", removed, err, len(added))
	}
	if got := backendKeys(t, b2); !slices.Equal(got, serving) {
		t.Fatalf("after the sweep the backend holds %d objects, the serving plan %d, or other keys", len(got), len(serving))
	}
	if n := dirFiles(t, packDir); n != 1 {
		t.Fatalf("%d files in the pack directory after recovery, want the serving plan's one pack", n)
	}
	checkAll(t, s2, contents)
}

// TestPackMappingsAreReleased: a pack's mapping ends with the pack or at
// Close, whichever is first, so a tenant that is opened, migrated and
// evicted again and again leaks none; and a closed store still serves a
// plan that lives in packs.
func TestPackMappingsAreReleased(t *testing.T) {
	dir := t.TempDir()
	g, contents := chainFixture(10, bigLines(200, "mmap"))
	content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }
	p := forwardChainPlan(g, 10)
	all := plan.MaterializeAll(g)
	start := mappedPacks.Load()
	for round := 0; round < 100; round++ {
		// What a tenant's life between two evictions does to the backend:
		// open, rebuild the chain (every object already held), sweep what
		// the chain does not reference (the last round's pack dies),
		// re-plan (a new pack), close.
		b, s := openDiskStore(t, dir)
		if err := s.Install(g, p, content); err != nil {
			t.Fatal(err)
		}
		if removed, err := s.SweepOrphans(); err != nil || (removed == 0) != (round == 0) {
			t.Fatalf("round %d: SweepOrphans = %d, %v", round, removed, err)
		}
		if err := s.Install(g, all, content); err != nil {
			t.Fatal(err)
		}
		if ps := b.PackStats(); ps.Packs != 2 || mappedPacks.Load()-start != 2 {
			t.Fatalf("round %d: %d live packs and %d mappings, want the chain's pack and the plan's", round, ps.Packs, mappedPacks.Load()-start)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if n := mappedPacks.Load() - start; n != 0 {
			t.Fatalf("round %d: %d pack mappings outlive Close", round, n)
		}
		if round%25 == 0 {
			before := b.PackStats().PackReads
			checkAll(t, s, contents) // from the pack files
			if b.PackStats().PackReads == before {
				t.Fatal("the closed store's plan does not live in packs")
			}
			if n := mappedPacks.Load() - start; n != 0 {
				t.Fatalf("round %d: reads after Close left %d mappings", round, n)
			}
		}
	}
	if n := dirFiles(t, filepath.Join(dir, "packs")); n != 2 {
		t.Fatalf("%d pack files after 100 rounds, want 2: dead packs are not unlinked", n)
	}
}

// TestReadersWhilePacksDie hammers Get through checkouts while Installs
// publish packs and their GC kills the older ones: a reader must never
// touch a mapping that is gone (run with -race).
func TestReadersWhilePacksDie(t *testing.T) {
	_, s := openDiskStore(t, t.TempDir())
	defer s.Close()
	g, contents := chainFixture(10, bigLines(200, "race"))
	content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }
	plans := []*plan.Plan{forwardChainPlan(g, 10), plan.MaterializeAll(g)}
	if err := s.Install(g, plans[0], content); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := i % len(contents)
				got, err := s.Checkout(context.Background(), graph.NodeID(v))
				if err != nil || !slices.Equal(got, contents[v]) {
					t.Errorf("Checkout(%d) beside a migration: %d lines, %v", v, len(got), err)
					return
				}
			}
		}(r)
	}
	for i := 1; i <= 60; i++ {
		if err := s.Install(g, plans[i%2], content); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	b := s.backend.(*DiskBackend)
	if ps := b.PackStats(); ps.Packs > 2 || ps.PackReads == 0 || len(b.packs) > 3 {
		t.Fatalf("after 60 migrations: %+v in %d slots, want reads from packs and the dead packs gone, their slots reused", ps, len(b.packs))
	}
}
