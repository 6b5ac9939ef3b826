package dptree

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/diff"
	"repro/internal/graph"
	"repro/internal/graphalg"
)

// randomTree builds a bidirectional tree of n versions. shape 0 is a
// chain, 1 a star, 2 a history that forks off an earlier version one time
// in five, 3 a uniformly random tree. Each direction of a tree edge is
// left out of the graph one time in ten, so FromParents has to synthesize
// it (or, with both gone, bridge two components with a phantom link).
func randomTree(t *testing.T, rng *rand.Rand, n, shape int, maxNode, maxEdge graph.Cost) *BiTree {
	t.Helper()
	g := graph.New("kernel")
	cost := func(max graph.Cost) graph.Cost { return 1 + rng.Int63n(max) }
	parent := make([]graph.NodeID, n)
	for v := 0; v < n; v++ {
		g.AddNode(cost(maxNode))
		if v == 0 {
			parent[v] = graph.None
			continue
		}
		p := v - 1
		switch {
		case shape == 1:
			p = 0
		case shape == 2 && rng.Float64() < 0.2, shape == 3:
			p = rng.Intn(v)
		}
		parent[v] = graph.NodeID(p)
		if rng.Float64() < 0.9 {
			g.AddEdge(graph.NodeID(p), graph.NodeID(v), cost(maxEdge), cost(maxEdge))
		}
		if rng.Float64() < 0.9 {
			g.AddEdge(graph.NodeID(v), graph.NodeID(p), cost(maxEdge), cost(maxEdge))
		}
	}
	bt, err := FromParents(g, 0, parent)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// minStorage is the cost of the minimum-storage plan of g.
func minStorage(t testing.TB, g *graph.Graph) graph.Cost {
	t.Helper()
	x := graph.Extend(g)
	_, total, err := graphalg.MinArborescence(x.Graph, x.Aux, graphalg.StorageWeight)
	if err != nil {
		t.Fatal(err)
	}
	return total
}

type stateTuple struct {
	fromBelow         bool
	k                 int32
	gamma, sigma, rho graph.Cost
}

func tuples(d *MSRDP) []stateTuple {
	out := make([]stateTuple, len(d.states))
	for i, s := range d.states {
		out[i] = stateTuple{s.fromBelow, s.k, s.gamma, s.sigma, s.rho}
	}
	return out
}

func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error() && errors.Is(got, ErrInfeasible) == errors.Is(want, ErrInfeasible)
}

// checkAgainstReference runs both kernels on bt and compares everything a
// caller can observe: the error, the root states in order, the frontier,
// and the plan Best extracts at each of the budgets.
func checkAgainstReference(t *testing.T, label string, bt *BiTree, opt MSROptions, budgets []graph.Cost) {
	t.Helper()
	got, gotErr := MSRFrontier(bt, opt)
	want, wantErr := referenceMSRFrontier(bt, opt)
	if !sameError(gotErr, wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if g, w := tuples(got), tuples(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("%s: root states differ\n got %v\nwant %v", label, g, w)
	}
	if !reflect.DeepEqual(got.Frontier(), want.Frontier()) {
		t.Fatalf("%s: frontiers differ", label)
	}
	for _, s := range budgets {
		g, gErr := got.Best(s)
		w, wErr := want.Best(s)
		if !sameError(gErr, wErr) {
			t.Fatalf("%s: Best(%d) error %v, reference %v", label, s, gErr, wErr)
		}
		if gErr != nil {
			continue
		}
		if g.Cost != w.Cost ||
			!reflect.DeepEqual(g.Plan.Materialized, w.Plan.Materialized) ||
			!reflect.DeepEqual(g.Plan.Stored, w.Plan.Stored) {
			t.Fatalf("%s: Best(%d) plans differ: cost %+v, reference %+v", label, s, g.Cost, w.Cost)
		}
	}
}

var kernelModes = []struct {
	name string
	opt  MSROptions
}{
	{"exact", MSROptions{}},
	{"linear", MSROptions{Epsilon: 0.1}},
	{"geometric", MSROptions{Epsilon: 0.05, Geometric: true}},
}

func TestMergeKernelMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	costRanges := []graph.Cost{1, 10, 1000, 1_000_000}
	instances := 36
	if testing.Short() {
		instances = 12
	}
	for it := 0; it < instances; it++ {
		shape := it % 4
		maxNode := costRanges[rng.Intn(len(costRanges))]
		maxEdge := costRanges[rng.Intn(len(costRanges))]
		for _, maxStates := range []int{0, 4, 256} {
			// Without a cap the state sets grow with the number of
			// distinct (k, γ, ρ) buckets, with a wide cap a merge walks up
			// to 256² pairs in the map-based reference: keep those small.
			n := 1 + rng.Intn(400)
			switch maxStates {
			case 0:
				n = 1 + rng.Intn(10)
			case 256:
				n = 1 + rng.Intn(48)
			}
			bt := randomTree(t, rng, n, shape, maxNode, maxEdge)
			mst := minStorage(t, bt.G)
			budgets := []graph.Cost{mst - 1, mst, mst + mst/2, 2 * mst, bt.G.TotalNodeStorage()}
			for _, mode := range kernelModes {
				for _, prune := range []graph.Cost{-1, 2 * mst, 1} {
					opt := mode.opt
					opt.MaxStates = maxStates
					opt.PruneStorage = prune
					label := fmt.Sprintf("it %d n %d shape %d %s states %d prune %d", it, n, shape, mode.name, maxStates, prune)
					checkAgainstReference(t, label, bt, opt, budgets)
				}
			}
		}
	}
}

// FuzzMergeKernelMatchesReference decodes its bytes into a tree and a
// tuning and runs both kernels on them. The header bytes pick the number
// of versions (at most 40, at most 10 without a state cap), the mode, the
// state cap, the prune bound and the two cost ranges; then each version
// reads its parent, which deltas exist and its costs. The narrow ranges
// (costs 1–3) make exact (σ, ρ) ties, and with them the tie-break,
// common; bytes past the end read as zero.
func FuzzMergeKernelMatchesReference(f *testing.F) {
	f.Add([]byte{39, 2, 3, 0, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{25, 1, 1, 2, 1, 2, 0xff, 0x80, 0x10, 0x07, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		ranges := []graph.Cost{3, 10, 1000, 1_000_000}
		n, mode, maxStates, prune := next(), next(), []int{0, 4, 16, 256}[next()%4], next()
		maxNode, maxEdge := ranges[next()%4], ranges[next()%4]
		if maxStates == 0 {
			n = 1 + n%10
		} else {
			n = 1 + n%40
		}
		cost := func(max graph.Cost) graph.Cost {
			return 1 + graph.Cost(next()|next()<<8|next()<<16)%max
		}
		g := graph.New("fuzz")
		parent := make([]graph.NodeID, n)
		parent[0] = graph.None
		g.AddNode(cost(maxNode))
		for v := 1; v < n; v++ {
			p, edges := graph.NodeID(next()%v), next()
			parent[v] = p
			g.AddNode(cost(maxNode))
			// Each direction is left out one time in four, so FromParents
			// synthesizes it or, with both gone, links a phantom.
			if edges&3 != 3 {
				g.AddEdge(p, graph.NodeID(v), cost(maxEdge), cost(maxEdge))
			}
			if edges&12 != 12 {
				g.AddEdge(graph.NodeID(v), p, cost(maxEdge), cost(maxEdge))
			}
		}
		bt, err := FromParents(g, 0, parent)
		if err != nil {
			t.Fatal(err)
		}
		mst := minStorage(t, g)
		m := kernelModes[mode%len(kernelModes)]
		opt := m.opt
		opt.MaxStates = maxStates
		opt.PruneStorage = []graph.Cost{-1, 1, mst, mst + mst/2, 2 * mst}[prune%5]
		budgets := []graph.Cost{mst - 1, mst, mst + mst/2, 2 * mst, g.TotalNodeStorage()}
		label := fmt.Sprintf("n %d %s states %d prune %d", n, m.name, maxStates, opt.PruneStorage)
		checkAgainstReference(t, label, bt, opt, budgets)
	})
}

// replanScaleGraph builds a history shaped like the benchmark's
// replan-scale workload: 30-line bodies of 48-byte lines, one to three
// line edits per commit, a fork off one of the last 32 versions one time
// in five, a second parent one time in twenty, every delta weighed by a
// real Myers diff in both directions.
func replanScaleGraph(versions int, seed int64) *graph.Graph {
	rng := rand.New(rand.NewSource(seed))
	line := func() string { return fmt.Sprintf("%047x", rng.Uint64()) }
	g := graph.New("replan-scale")
	contents := make([][]string, 0, versions)
	link := func(u, v int) {
		fwd := diff.Compute(contents[u], contents[v]).StorageCost()
		rev := diff.Compute(contents[v], contents[u]).StorageCost()
		g.AddEdge(graph.NodeID(u), graph.NodeID(v), fwd, fwd)
		g.AddEdge(graph.NodeID(v), graph.NodeID(u), rev, rev)
	}
	for v := 0; v < versions; v++ {
		var body []string
		parent, other := v-1, -1
		if v == 0 {
			for i := 0; i < 30; i++ {
				body = append(body, line())
			}
		} else {
			if rng.Float64() < 0.2 {
				parent = v - 1 - rng.Intn(min(v, 32))
			}
			if v > 2 && rng.Float64() < 0.05 {
				other = v - 1 - rng.Intn(min(v, 32))
			}
			body = append(body, contents[parent]...)
			for e := 1 + rng.Intn(3); e > 0; e-- {
				at := rng.Intn(len(body))
				switch p := rng.Float64(); {
				case p < 0.6:
					body[at] = line()
				case p < 0.85 || len(body) < 2:
					body = append(body[:at], append([]string{line()}, body[at:]...)...)
				default:
					body = append(body[:at], body[at+1:]...)
				}
			}
		}
		contents = append(contents, body)
		g.AddNode(diff.ByteSize(body))
		if v > 0 {
			link(parent, v)
		}
		if other >= 0 && other != parent {
			link(other, v)
		}
	}
	return g
}

// spanningTree is the tree MSROnGraph runs the DP on.
func spanningTree(t testing.TB, g *graph.Graph) *BiTree {
	t.Helper()
	parent, err := ExtractSpanningTree(g, 0)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := FromParents(g, 0, parent)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// daemonRun is one re-plan's DP on g: the daemon's tuning, storage budget
// and prune bound at twice the minimum storage.
func daemonRun(t testing.TB, g *graph.Graph) (opt MSROptions, budget graph.Cost) {
	budget = 2 * minStorage(t, g)
	opt = DefaultMSROptions(0, 0)
	opt.PruneStorage = budget
	return opt, budget
}

// BenchmarkDPMSR_ReplanScale is the DP-MSR member of the first and the
// last MSR race of the benchmark's replan-scale plan phase: the graph
// shape of that workload at 850 and 950 versions, solved as a re-plan
// does (MSROnGraph's steps). offers/op is the candidates offered to the
// merges' tables, truncations/op the merges the state cap cut.
func BenchmarkDPMSR_ReplanScale(b *testing.B) {
	for _, versions := range []int{850, 950} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			g := replanScaleGraph(versions, 21)
			opt, budget := daemonRun(b, g)
			var stats MSRStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt, err := FromGraph(g, 0)
				if err != nil {
					b.Fatal(err)
				}
				dp, err := MSRFrontier(bt, opt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dp.Best(budget); err != nil {
					b.Fatal(err)
				}
				stats = dp.Stats()
			}
			b.ReportMetric(float64(stats.Offers), "offers/op")
			b.ReportMetric(float64(stats.Truncations), "truncations/op")
		})
	}
}

func TestMergeKernelMatchesReferenceAtReplanScale(t *testing.T) {
	g := replanScaleGraph(800, 21)
	opt, budget := daemonRun(t, g)
	bt := spanningTree(t, g)
	checkAgainstReference(t, "replan-scale", bt, opt, []graph.Cost{budget / 2, budget})

	// MSROnGraph, the re-plan's entry point, is that run: same tree, the
	// prune bound filled in from the budget.
	got, err := MSROnGraph(g, budget, 0, DefaultMSROptions(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	dp, err := MSRFrontier(bt, opt)
	if err != nil {
		t.Fatal(err)
	}
	want, err := dp.Best(budget)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cost != want.Cost || !reflect.DeepEqual(got.Plan, want.Plan) {
		t.Fatalf("MSROnGraph cost %+v, MSRFrontier.Best %+v", got.Cost, want.Cost)
	}
}

// TestGeoBucketTableExact pins the table lookup to the float expression
// it replaces.
func TestGeoBucketTableExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	randoms := 2_000_000
	if testing.Short() {
		randoms = 100_000
	}
	// 0.0005 has more steps below 2^46 than the table holds, so its limit
	// comes from geoMaxSteps.
	for _, eps := range []float64{0.0005, 0.01, 0.05, 0.1, 0.5, 1} {
		ref := referenceBucketer{geoLog: math.Log1p(eps)}
		b := &bucketer{geoLog: ref.geoLog}
		b.buildGeoTable(geoTableMax)
		check := func(x graph.Cost) {
			want := referenceBucket(ref, x)
			if got := b.bucket(x); got != want {
				t.Fatalf("ε=%v: bucket(%d) = %d, float expression gives %d", eps, x, got, want)
			}
			// Every value from x to end-1 shares x's bucket (bucket is
			// monotone, so end-1 stands for them all).
			if got, end := b.bucketEnd(x); got != want || end-1 < x || referenceBucket(ref, end-1) != want {
				t.Fatalf("ε=%v: bucketEnd(%d) = %d, %d; bucket %d, float expression at end-1 %d", eps, x, got, end, want, referenceBucket(ref, end-1))
			}
		}
		if eps >= 0.01 && b.geoLimit != geoTableMax {
			t.Fatalf("ε=%v: table ends at %d, want %d", eps, b.geoLimit, geoTableMax)
		}
		for _, x := range []graph.Cost{math.MinInt64, -1, 0} {
			if got := b.bucket(x); got != 0 {
				t.Fatalf("ε=%v: bucket(%d) = %d, want 0", eps, x, got)
			}
		}
		for x := graph.Cost(0); x <= 1<<21; x++ {
			check(x)
		}
		for i := 0; i < randoms; i++ {
			// Uniform in bit length, so small and huge values are both
			// covered; past geoLimit the lookup is the float expression.
			check(rng.Int63n(1<<62) >> rng.Intn(62))
		}
		for _, step := range b.geoStep {
			check(step - 1)
			check(step)
			check(step + 1)
		}
		check(b.geoLimit - 1)
		check(b.geoLimit)
		check(math.MaxInt64)
	}
}

// TestGeoBucketTableReach checks a table cut short by the tree's own
// bound: exact below it, the float expression above.
func TestGeoBucketTableReach(t *testing.T) {
	ref := referenceBucketer{geoLog: math.Log1p(0.05)}
	for _, reach := range []graph.Cost{0, 1, 2, 63, 64, 1000, 123_456} {
		b := &bucketer{geoLog: ref.geoLog}
		b.buildGeoTable(reach)
		if b.geoLimit < reach || b.geoLimit > 2*reach+2 {
			t.Fatalf("reach %d: table ends at %d", reach, b.geoLimit)
		}
		for x := graph.Cost(-2); x < 4*reach+200; x++ {
			if got, want := b.bucket(x), referenceBucket(ref, x); got != want {
				t.Fatalf("reach %d: bucket(%d) = %d, want %d", reach, x, got, want)
			}
		}
	}
}

// TestTableSortMatchesSortFunc pins the merge's sort of its table to
// slices.SortFunc with compare on random tables: runs of equal (σ, ρ)
// that only the rest of compare orders, σ and ρ spread past 2^32 (so the
// radix key is wider than 64 bits) or negative, and sizes on both sides
// of radixCutoff. Without the table, the radix sort alone is a stable
// sort by (σ, ρ).
func TestTableSortMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	spans := []graph.Cost{1, 4, 1000, 1 << 20, 1 << 40, math.MaxInt64 / 4}
	sizes := []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 300, 5000}
	var rs radixSorter
	for it := 0; it < 400; it++ {
		n := sizes[it%len(sizes)]
		spanS, spanR := spans[rng.Intn(len(spans))], spans[rng.Intn(len(spans))]
		offS, offR := graph.Cost(0), graph.Cost(0)
		if rng.Intn(4) == 0 {
			offS, offR = -spanS/2, -spanR/2
		}
		// Distinct (σ, ρ, fromBelow, k, γ), as the keys of a table are.
		tab := &msrTable{}
		seen := map[stateTuple]bool{}
		for len(tab.cands) < n {
			c := msrCand{
				k:     int32(rng.Intn(n)),
				gamma: graph.Cost(rng.Intn(3)),
				sigma: offS + rng.Int63n(int64(spanS)),
				rho:   offR + rng.Int63n(int64(spanR)),
			}
			c.key.fromBelow = rng.Intn(2) == 0
			if st := (stateTuple{c.key.fromBelow, c.k, c.gamma, c.sigma, c.rho}); !seen[st] {
				seen[st] = true
				tab.cands = append(tab.cands, c)
			}
		}
		order := make([]msrOrd, n)
		for e := range order {
			order[e] = msrOrd{tab.cands[e].sigma, tab.cands[e].rho, int32(e)}
		}
		want := slices.Clone(order)
		slices.SortFunc(want, tab.compare)
		got := slices.Clone(order)
		tab.sort(got, &rs)
		if !slices.Equal(got, want) {
			t.Fatalf("it %d: n %d, σ span %d, ρ span %d: table sort differs from slices.SortFunc", it, n, spanS, spanR)
		}
		want = slices.Clone(order)
		slices.SortStableFunc(want, func(a, z msrOrd) int {
			return cmp.Or(cmp.Compare(a.sigma, z.sigma), cmp.Compare(a.rho, z.rho))
		})
		rs.sort(order)
		if !slices.Equal(order, want) {
			t.Fatalf("it %d: n %d, σ span %d, ρ span %d: radix sort is not the stable sort by (σ, ρ)", it, n, spanS, spanR)
		}
	}
}

// TestMSRStats checks what a run reports it did: every merge offers, no
// merge is cut without a cap, and with one the cut merges are counted.
func TestMSRStats(t *testing.T) {
	g := replanScaleGraph(120, 3)
	bt := spanningTree(t, g)
	merges := bt.N() - 1
	for _, maxStates := range []int{0, 4, 256} {
		opt := MSROptions{Epsilon: 0.05, Geometric: true, MaxStates: maxStates}
		dp, err := MSRFrontier(bt, opt)
		if err != nil {
			t.Fatal(err)
		}
		st := dp.Stats()
		if st.Offers < int64(merges) {
			t.Errorf("MaxStates %d: %d offers over %d merges", maxStates, st.Offers, merges)
		}
		switch {
		case maxStates == 0 && st.Truncations != 0:
			t.Errorf("uncapped run reports %d truncations", st.Truncations)
		case maxStates == 4 && (st.Truncations == 0 || st.Truncations > merges):
			t.Errorf("MaxStates 4: %d truncations over %d merges", st.Truncations, merges)
		}
		t.Logf("MaxStates %d: %+v", maxStates, st)
	}
}

// TestMSRConcurrentRuns guards against scratch shared between runs: the
// portfolio's batch solves and a fleet of tenants run DPs side by side.
func TestMSRConcurrentRuns(t *testing.T) {
	const workers, calls = 8, 20
	type instance struct {
		g      *graph.Graph
		budget graph.Cost
		want   MSRResult
	}
	opt := DefaultMSROptions(0, 0)
	instances := make([][]instance, workers)
	for w := range instances {
		for c := 0; c < calls; c++ {
			g := replanScaleGraph(10+2*c+w, int64(100*w+c))
			budget := 2 * minStorage(t, g)
			want, err := MSROnGraph(g, budget, 0, opt)
			if err != nil {
				t.Fatal(err)
			}
			instances[w] = append(instances[w], instance{g, budget, want})
		}
	}
	var wg sync.WaitGroup
	for w := range instances {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c, in := range instances[w] {
				got, err := MSROnGraph(in.g, in.budget, 0, opt)
				if err != nil {
					t.Errorf("worker %d call %d: %v", w, c, err)
					return
				}
				if got.Cost != in.want.Cost || !reflect.DeepEqual(got.Plan, in.want.Plan) {
					t.Errorf("worker %d call %d: cost %+v, sequential run gave %+v", w, c, got.Cost, in.want.Cost)
				}
			}
		}()
	}
	wg.Wait()
}

// TestMSRRetainedHeap guards against the run's scratch outliving it: the
// heap a finished *MSRDP keeps alive is its chained states, as it was
// with the reference kernel. Survivors allocated in one slab per merge,
// or stale prev/child pointers in reused table slots, show here.
func TestMSRRetainedHeap(t *testing.T) {
	g := replanScaleGraph(800, 21)
	opt, _ := daemonRun(t, g)
	bt := spanningTree(t, g)
	retained := func(run func(*BiTree, MSROptions) (*MSRDP, error)) uint64 {
		var before, after runtime.MemStats
		// Twice: what a sync.Pool holds (diff's scratch, from generating
		// the graph) survives one collection and would be freed, and
		// credited to the run, by the one after it.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		dp, err := run(bt, opt)
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(dp)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}
	want := retained(referenceMSRFrontier)
	got := retained(MSRFrontier)
	t.Logf("retained heap: kernel %d B, reference %d B", got, want)
	if got > want+want/10 {
		t.Fatalf("a finished run retains %d B, the reference kernel %d B", got, want)
	}
}
