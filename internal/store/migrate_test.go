package store

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
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
					p, _, err = plan.MinStorage(g)
				case 1:
					var sol core.Solution
					sol, err = core.SPT(g, graph.NodeID(rng.Intn(g.N())))
					p = sol.Plan
				case 2:
					p = plan.MaterializeAll(g)
				default:
					var mst core.Solution
					if mst, err = core.MST(g); err != nil {
						break
					}
					var res lmg.Result
					res, err = lmg.LMG(g, mst.Cost.Storage+graph.Cost(rng.Int63n(int64(2*mst.Cost.Storage))))
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
					objBefore, bytesBefore, _ := s.InstallTotals()
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
					objAfter, bytesAfter, _ := s.InstallTotals()
					if objAfter-objBefore != added || bytesAfter-bytesBefore != addedBytes {
						t.Fatalf("%s: Install reports %d objects / %d bytes written, backend gained %d / %d",
							name, objAfter-objBefore, bytesAfter-bytesBefore, added, addedBytes)
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
	if obj, _, _ := s.InstallTotals(); obj == 0 || len(asked) != 12 {
		t.Fatalf("first Install wrote %d objects and asked for %d contents, want every one", obj, len(asked))
	}
	objBefore, bytesBefore, _ := s.InstallTotals()
	asked = nil
	if needs := s.MigrationNeeds(g, p); len(needs) != 0 {
		t.Fatalf("MigrationNeeds of the serving plan = %v, want none", needs)
	}
	if err := s.Install(g, p.Clone(), countingContent(contents, &asked)); err != nil {
		t.Fatal(err)
	}
	objAfter, bytesAfter, _ := s.InstallTotals()
	if objAfter != objBefore || bytesAfter != bytesBefore || len(asked) != 0 {
		t.Fatalf("re-installing the serving plan wrote %d objects / %d bytes and asked for %v, want nothing",
			objAfter-objBefore, bytesAfter-bytesBefore, asked)
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
	objBefore, _, _ := s.InstallTotals()
	var asked []graph.NodeID
	if err := s.Install(g, q, countingContent(contents, &asked)); err != nil {
		t.Fatal(err)
	}
	if slices.Sort(asked); !slices.Equal(asked, []graph.NodeID{2, 5}) {
		t.Fatalf("Install asked for %v, want the new edge's endpoints [2 5]", asked)
	}
	if objAfter, _, _ := s.InstallTotals(); objAfter-objBefore != 1 {
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

// failingBackend fails every Put after the first okPuts.
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

// TestFailedInstallKeepsServingPlan: a content error or a backend write
// failure part-way through the build leaves the serving plan as it was —
// readable, every taken-over object in place, nothing orphaned.
func TestFailedInstallKeepsServingPlan(t *testing.T) {
	errContent := errors.New("content unavailable")
	for _, c := range []struct {
		name               string
		okPuts, okContents int // -1 = no fault
		want               error
	}{
		{"content", -1, 2, errContent},
		{"put", 3, -1, errBackendFull},
	} {
		t.Run(c.name, func(t *testing.T) {
			g, contents := chainFixture(10, bigLines(200, "fail"))
			b := &failingBackend{Backend: NewMemBackend(), okPuts: -1}
			s := New(Options{Backend: b, CacheEntries: -1})
			p := forwardChainPlan(g, 10)
			if err := s.Install(g, p, func(v graph.NodeID) ([]string, error) { return contents[v], nil }); err != nil {
				t.Fatal(err)
			}
			before := backendKeys(t, b)
			refs := s.refs
			b.okPuts = c.okPuts
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
			b.okPuts = -1
			if err := s.Install(g, q, func(v graph.NodeID) ([]string, error) { return contents[v], nil }); err != nil {
				t.Fatalf("retry after the fault cleared: %v", err)
			}
			assertMatchesFromScratch(t, s, g, q, contents)
			checkAll(t, s, contents)
		})
	}
}
