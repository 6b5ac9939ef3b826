package store

import (
	"bytes"
	"context"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/wire"
)

// countingBackend counts Get calls per key kind for singleflight tests.
type countingBackend struct {
	Backend
	gets atomic.Int64
}

func (c *countingBackend) Get(k Key) ([]byte, error) {
	c.gets.Add(1)
	return c.Backend.Get(k)
}

// chainStore builds a single materialized root with a delta chain of n
// further versions, returning the store and all contents.
func chainStore(t *testing.T, n int, opt Options) (*Store, [][]string) {
	t.Helper()
	s := New(opt)
	contents := [][]string{{"l0", "l1", "l2"}}
	if err := s.AddMaterialized(0, contents[0]); err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= n; i++ {
		prev := contents[i-1]
		next := append(append([]string(nil), prev...), "extra")
		next[0] = "head-" + string(rune('a'+i%26))
		contents = append(contents, next)
		if err := s.AddVersion(graph.NodeID(i), graph.NodeID(i-1), graph.EdgeID(i-1),
			diff.Compute(prev, next), nil); err != nil {
			t.Fatal(err)
		}
	}
	return s, contents
}

func TestCheckoutSingleflightAndCache(t *testing.T) {
	cb := &countingBackend{Backend: NewMemBackend()}
	s, contents := chainStore(t, 12, Options{Backend: cb})
	deep := graph.NodeID(12)
	// Drop the cache entry AddMaterialized seeded so the whole path must
	// be fetched.
	s.cache = newContentCache(64, 0)

	cb.gets.Store(0)
	const K = 16
	var wg sync.WaitGroup
	results := make([][]string, K)
	errs := make([]error, K)
	for i := 0; i < K; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Checkout(context.Background(), deep)
		}(i)
	}
	wg.Wait()
	for i := 0; i < K; i++ {
		if errs[i] != nil {
			t.Fatalf("concurrent Checkout: %v", errs[i])
		}
		if !reflect.DeepEqual(results[i], contents[deep]) {
			t.Fatalf("goroutine %d got wrong content", i)
		}
	}
	// Every goroutine either joined the single flight or hit the cache it
	// filled: the 13-object path (1 blob + 12 deltas) was fetched once.
	if got := cb.gets.Load(); got != 13 {
		t.Fatalf("backend saw %d Gets, want 13 (one reconstruction)", got)
	}
	if st := s.Stats(); st.Checkouts != K {
		t.Fatalf("Stats = %+v, want %d checkouts", st, K)
	}
	// A repeat checkout is a pure cache hit.
	cb.gets.Store(0)
	if _, err := s.Checkout(context.Background(), deep); err != nil {
		t.Fatal(err)
	}
	if cb.gets.Load() != 0 {
		t.Fatal("cached checkout touched the backend")
	}
}

func TestCheckoutUsesCachedAncestors(t *testing.T) {
	cb := &countingBackend{Backend: NewMemBackend()}
	s, contents := chainStore(t, 10, Options{Backend: cb})
	s.cache = newContentCache(64, 0)
	mid, tip := graph.NodeID(7), graph.NodeID(10)
	got, err := s.Checkout(context.Background(), mid)
	if err != nil || !reflect.DeepEqual(got, contents[mid]) {
		t.Fatalf("Checkout(mid) = %v, %v", got, err)
	}
	cb.gets.Store(0)
	if _, err := s.Checkout(context.Background(), tip); err != nil {
		t.Fatal(err)
	}
	// The walk stops at the cached version 7: only deltas 8..10 fetched.
	if gets := cb.gets.Load(); gets != 3 {
		t.Fatalf("backend saw %d Gets, want 3 (walk shortcut at cached ancestor)", gets)
	}
}

func TestCheckoutBatch(t *testing.T) {
	s, contents := chainStore(t, 20, Options{CacheEntries: 8})
	ids := make([]graph.NodeID, 0, 2*len(contents))
	for i := range contents {
		ids = append(ids, graph.NodeID(i), graph.NodeID(len(contents)-1-i)) // duplicates on purpose
	}
	out := s.CheckoutBatch(context.Background(), ids)
	if len(out) != len(ids) {
		t.Fatalf("got %d results, want %d", len(out), len(ids))
	}
	for i, item := range out {
		if item.Err != nil {
			t.Fatalf("item %d: %v", i, item.Err)
		}
		if !reflect.DeepEqual(item.Lines, contents[ids[i]]) {
			t.Fatalf("item %d content mismatch", i)
		}
	}
}

func TestCheckoutBatchCancellation(t *testing.T) {
	s, contents := chainStore(t, 10, Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := s.CheckoutBatch(ctx, []graph.NodeID{0, graph.NodeID(len(contents) - 1)})
	for i, item := range out {
		if item.Err == nil {
			t.Fatalf("item %d succeeded under cancelled ctx", i)
		}
	}
}

func TestLRUEviction(t *testing.T) {
	s, contents := chainStore(t, 6, Options{CacheEntries: 2})
	s.cache = newContentCache(2, 0)
	for i := range contents {
		if _, err := s.Checkout(context.Background(), graph.NodeID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.cache.Len(); n != 2 {
		t.Fatalf("cache holds %d entries, want cap 2", n)
	}
	// Most recent stays, oldest is gone.
	if _, ok := s.cache.Get(graph.NodeID(len(contents) - 1)); !ok {
		t.Fatal("most recent checkout evicted")
	}
	if _, ok := s.cache.Get(0); ok {
		t.Fatal("oldest entry survived a full sweep with cap 2")
	}
}

func TestCheckoutErrors(t *testing.T) {
	s, _ := chainStore(t, 3, Options{CacheEntries: -1})
	if _, err := s.Checkout(context.Background(), 99); err == nil {
		t.Fatal("unknown version accepted")
	}
	if _, err := s.Checkout(context.Background(), -1); err == nil {
		t.Fatal("negative version accepted")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Checkout(ctx, 3); err == nil {
		t.Fatal("cancelled reconstruction succeeded")
	}
}

func TestConcurrentInstallAndCheckout(t *testing.T) {
	// Migrations racing checkouts: every checkout must see a consistent
	// plan (old or new) and correct bytes. Run with -race.
	g, contents := chainFixture(24, []string{"base"})
	content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }
	mst, err := core.MST(context.Background(), g)
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{CacheEntries: 4})
	if err := s.Install(g, mst.Plan, content); err != nil {
		t.Fatal(err)
	}
	// The shortest-path tree from the middle keeps the chain's upper
	// half, so migrations to and from it take objects over while the
	// checkouts read them.
	spt, err := core.SPT(g, 12)
	if err != nil {
		t.Fatal(err)
	}
	plans := []*plan.Plan{plan.MaterializeAll(g), mst.Plan, spt.Plan}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := graph.NodeID((w*7 + i) % len(contents))
				got, err := s.Checkout(context.Background(), v)
				if err != nil {
					t.Errorf("Checkout(%d): %v", v, err)
					return
				}
				if !reflect.DeepEqual(got, contents[v]) {
					t.Errorf("Checkout(%d) content mismatch", v)
					return
				}
			}
		}(w)
	}
	for i := 0; i < 12; i++ {
		if err := s.Install(g, plans[i%3], content); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestEmptyVersionIsEmptyOnEveryPath: a version with no lines checks out
// as an empty, non-nil slice whether the plan stores the deltas into it
// or materializes it, so its wire body (and with it its ETag) does not
// depend on the plan.
func TestEmptyVersionIsEmptyOnEveryPath(t *testing.T) {
	g := graph.New("to-empty")
	contents := [][]string{{"a", "b"}, {"a"}, {}}
	for _, c := range contents {
		g.AddNode(diff.ByteSize(c))
	}
	addEdgePair(g, contents, 0, 1)
	addEdgePair(g, contents, 1, 2)
	content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }
	var bodies [][]byte
	for _, p := range []*plan.Plan{forwardChainPlan(g, 3), plan.MaterializeAll(g)} {
		s := New(Options{CacheEntries: -1})
		if err := s.Install(g, p, content); err != nil {
			t.Fatal(err)
		}
		got, err := s.Checkout(t.Context(), 2)
		if err != nil || got == nil || len(got) != 0 {
			t.Fatalf("Checkout(empty version) = %#v, %v; want []string{}", got, err)
		}
		body, err := wire.Encode(wire.Checkout{ID: 2, Lines: got})
		if err != nil {
			t.Fatal(err)
		}
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("stored-delta body %s, materialized body %s", bodies[0], bodies[1])
	}
}

// TestLongPathFromCachedBase: a path of nine deltas from a cached base
// goes through the pooled scratch buffers and leaves the base as it
// was, alone and under concurrent checkouts of every version on it. The
// cache's budget is the base's size, so it refuses every (longer)
// version above it and each checkout walks down to the base.
func TestLongPathFromCachedBase(t *testing.T) {
	const n, baseV, tip = 12, 2, 11
	g, contents := chainFixture(n, bigLines(300, "long"))
	s := New(Options{CacheBytes: linesSize(contents[baseV])})
	if err := s.Install(g, forwardChainPlan(g, n), func(v graph.NodeID) ([]string, error) { return contents[v], nil }); err != nil {
		t.Fatal(err)
	}
	base, err := s.Checkout(t.Context(), baseV)
	if err != nil {
		t.Fatal(err)
	}
	if cached, ok := s.cache.Get(baseV); !ok || s.cache.Len() != 1 || &cached[0] != &base[0] {
		t.Fatalf("cache holds %d versions, want only the base", s.cache.Len())
	}
	was := slices.Clone(base)
	applies := s.Stats().DeltaApplies
	got, err := s.Checkout(t.Context(), tip)
	if err != nil || !slices.Equal(got, contents[tip]) {
		t.Fatalf("Checkout(%d) = %d lines, %v; want the committed %d", tip, len(got), err, len(contents[tip]))
	}
	if d := s.Stats().DeltaApplies - applies; d != tip-baseV {
		t.Fatalf("the path applied %d deltas, want %d from the cached base", d, tip-baseV)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 4*(tip-baseV+1); i++ {
				v := graph.NodeID(baseV + (w+i)%(tip-baseV+1))
				got, err := s.Checkout(context.Background(), v)
				if err != nil || !slices.Equal(got, contents[v]) {
					t.Errorf("Checkout(%d) = %d lines, %v; want the committed %d", v, len(got), err, len(contents[v]))
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if !slices.Equal(base, was) {
		t.Fatal("the cached base changed under checkouts built on it")
	}
	if st := s.Stats(); st.CachedVersions != 1 {
		t.Fatalf("cache holds %d versions, want only the base", st.CachedVersions)
	}
}

// TestScratchReleasePinsNothing: a buffer that took a longer step and
// then a shorter one holds no line anywhere in its capacity once
// released, so a pooled buffer keeps no object payload alive.
func TestScratchReleasePinsNothing(t *testing.T) {
	long, short := bigLines(40, "long"), bigLines(10, "short")
	sc := new(lineScratch)
	for j, d := range []diff.Delta{diff.Compute(nil, long), diff.Compute(nil, long), diff.Compute(nil, short)} {
		if _, err := sc.apply(j%2, d, nil); err != nil {
			t.Fatal(err)
		}
	}
	sc.release()
	for j, buf := range sc {
		if len(buf) != 0 {
			t.Fatalf("buffer %d released with length %d", j, len(buf))
		}
		for i, l := range buf[:cap(buf)] {
			if l != "" {
				t.Fatalf("buffer %d pins %q at %d of %d", j, l, i, cap(buf))
			}
		}
	}
}

// TestCacheHitAllocatesNothing: a checkout the LRU answers allocates
// nothing, for a version id of any width — the cache is keyed by the id
// itself, not by a rendering of it.
func TestCacheHitAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	s := New(Options{})
	const n = 128
	for v := graph.NodeID(0); v < n; v++ {
		if err := s.AddMaterialized(v, []string{"version " + strconv.Itoa(int(v))}); err != nil {
			t.Fatal(err)
		}
	}
	ctx := t.Context()
	allocs := testing.AllocsPerRun(100, func() {
		if lines, err := s.Checkout(ctx, n-1); err != nil || len(lines) != 1 {
			t.Fatalf("Checkout = %q, %v", lines, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a cache hit on version %d allocated %.0f times, want 0", n-1, allocs)
	}
	if st := s.Stats(); st.CacheHits != st.Checkouts {
		t.Fatalf("%d of %d checkouts hit the cache, want all", st.CacheHits, st.Checkouts)
	}
}

// TestUncachedCheckoutAllocatesNoSlicePerStep bounds what an uncached
// checkout of a 4,000-line version eight deltas deep allocates: the
// base's chunks and the returned slice, not a slice per step. Eight
// intermediate slices of 4,000 lines would add 512 KiB.
func TestUncachedCheckoutAllocatesNoSlicePerStep(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers")
	}
	const n = 9
	g, contents := chainFixture(n, bigLines(4000, "alloc"))
	s := New(Options{CacheEntries: -1})
	if err := s.Install(g, forwardChainPlan(g, n), func(v graph.NodeID) ([]string, error) { return contents[v], nil }); err != nil {
		t.Fatal(err)
	}
	checkout := func() {
		got, err := s.Checkout(t.Context(), n-1)
		if err != nil || len(got) != len(contents[n-1]) {
			t.Fatalf("Checkout = %d lines, %v", len(got), err)
		}
	}
	checkout() // fill the scratch pool outside the measurement
	const calls = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < calls; i++ {
		checkout()
	}
	runtime.ReadMemStats(&after)
	perCall := (after.TotalAlloc - before.TotalAlloc) / calls
	t.Logf("%d bytes per checkout", perCall)
	if perCall > 400<<10 {
		t.Fatalf("an uncached checkout 8 deltas deep allocated %d bytes, want under %d", perCall, 400<<10)
	}
}
