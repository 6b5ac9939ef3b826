package dptree

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"repro/internal/core"
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
	bt, err := FromParents(g, parent)
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
	out := make([]stateTuple, len(d.root.vals))
	for i, s := range d.root.vals {
		out[i] = stateTuple{s.fromBelow, s.k, s.gamma, s.sigma, s.rho}
	}
	return out
}

func sameError(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error() && errors.Is(got, core.ErrInfeasible) == errors.Is(want, core.ErrInfeasible)
}

// checkAgainstReference runs both kernels on bt and compares everything a
// caller can observe: the error, the root states in order, the frontier,
// and the plan Best extracts at each of the budgets.
func checkAgainstReference(t *testing.T, label string, bt *BiTree, opt MSROptions, budgets []graph.Cost) {
	t.Helper()
	got, gotErr := MSRFrontier(context.Background(), bt, opt)
	wantRoot, wantErr := referenceMSRFrontier(bt, opt, true, nil)
	if !sameError(gotErr, wantErr) {
		t.Fatalf("%s: error %v, reference %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	want := logForm(bt, wantRoot)
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

// fuzzBytes returns a reader of data's bytes that reads zeros past the end.
func fuzzBytes(data []byte) func() int {
	return func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
}

// fuzzTree decodes a tree of n versions from next: each version reads its
// parent, which deltas exist and its costs, node costs in [1, maxNode] and
// delta costs in [1, maxEdge].
func fuzzTree(t *testing.T, next func() int, n int, maxNode, maxEdge graph.Cost) *BiTree {
	t.Helper()
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
	bt, err := FromParents(g, parent)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// FuzzMergeKernelMatchesReference decodes its bytes into a tree and a
// tuning and runs both kernels on them. The header bytes pick the number
// of versions (at most 40, at most 10 without a state cap), the mode, the
// state cap, the prune bound and the two cost ranges; then each version
// reads its parent, which deltas exist and its costs. The narrow ranges
// (costs 1–3) make exact (σ, ρ) ties, and with them the tie-break,
// common; bytes past the end read as zero. An uncapped case also checks
// that the dominance rule costs no objective (checkDominanceCostsNothing).
func FuzzMergeKernelMatchesReference(f *testing.F) {
	f.Add([]byte{39, 2, 3, 0, 0, 0})
	f.Add([]byte{9, 0, 0, 0, 3, 3, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{25, 1, 1, 2, 1, 2, 0xff, 0x80, 0x10, 0x07, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		bt, opt, budgets, label := fuzzKernelCase(t, data)
		checkAgainstReference(t, label, bt, opt, budgets)
		if opt.MaxStates == 0 {
			checkDominanceCostsNothing(t, label, bt, opt, budgets)
		}
	})
}

// checkDominanceCostsNothing runs the reference with and without the
// dominance rule on bt, uncapped, and checks that the rule never costs
// an objective: at each of the budgets and at every root σ of either run,
// Best's ΣR with the rule is the same in exact mode and never higher in a
// bucketed one, and a budget the run without the rule meets the run with
// it meets too. It also checks the invariants the rule relies on over
// every state each merge keeps: a rooted state's γ and a from-below
// state's k are 0.
func checkDominanceCostsNothing(t *testing.T, label string, bt *BiTree, opt MSROptions, budgets []graph.Cost) {
	t.Helper()
	exact := opt.Epsilon == 0
	invariants := func(states []*msrState) {
		for _, s := range states {
			if s.fromBelow && s.k != 0 || !s.fromBelow && s.gamma != 0 {
				t.Fatalf("%s: state %+v: a rooted state has γ 0, a from-below one k 0", label, *s)
			}
		}
	}
	withRoot, withErr := referenceMSRFrontier(bt, opt, true, invariants)
	withoutRoot, withoutErr := referenceMSRFrontier(bt, opt, false, invariants)
	if withErr != nil && withoutErr == nil || exact && (withErr == nil) != (withoutErr == nil) {
		t.Fatalf("%s: with dominance %v, without %v", label, withErr, withoutErr)
	}
	if withoutErr != nil {
		return
	}
	with, without := logForm(bt, withRoot), logForm(bt, withoutRoot)
	for _, s := range withRoot {
		budgets = append(budgets, s.sigma)
	}
	for _, s := range withoutRoot {
		budgets = append(budgets, s.sigma)
	}
	for _, s := range budgets {
		w, wErr := with.Best(s)
		o, oErr := without.Best(s)
		switch {
		case oErr != nil && !errors.Is(oErr, core.ErrInfeasible), wErr != nil && !errors.Is(wErr, core.ErrInfeasible):
			t.Fatalf("%s: Best(%d): with dominance %v, without %v", label, s, wErr, oErr)
		case oErr != nil:
			if exact && wErr == nil {
				t.Fatalf("%s: Best(%d): exact run feasible only with dominance", label, s)
			}
		case wErr != nil:
			t.Fatalf("%s: Best(%d) infeasible with dominance, ΣR %d without", label, s, o.Cost.SumRetrieval)
		case w.Cost.SumRetrieval > o.Cost.SumRetrieval, exact && w.Cost.SumRetrieval != o.Cost.SumRetrieval:
			t.Fatalf("%s: Best(%d): ΣR %d with dominance, %d without", label, s, w.Cost.SumRetrieval, o.Cost.SumRetrieval)
		}
	}
}

// fuzzKernelCase decodes FuzzMergeKernelMatchesReference's bytes.
func fuzzKernelCase(t *testing.T, data []byte) (bt *BiTree, opt MSROptions, budgets []graph.Cost, label string) {
	t.Helper()
	next := fuzzBytes(data)
	ranges := []graph.Cost{3, 10, 1000, 1_000_000}
	n, mode, maxStates, prune := next(), next(), []int{0, 4, 16, 256}[next()%4], next()
	maxNode, maxEdge := ranges[next()%4], ranges[next()%4]
	if maxStates == 0 {
		n = 1 + n%10
	} else {
		n = 1 + n%40
	}
	bt = fuzzTree(t, next, n, maxNode, maxEdge)
	g := bt.G
	mst := minStorage(t, g)
	m := kernelModes[mode%len(kernelModes)]
	opt = m.opt
	opt.MaxStates = maxStates
	opt.PruneStorage = []graph.Cost{-1, 1, mst, mst + mst/2, 2 * mst}[prune%5]
	budgets = []graph.Cost{mst - 1, mst, mst + mst/2, 2 * mst, g.TotalNodeStorage()}
	label = fmt.Sprintf("n %d %s states %d prune %d", n, m.name, maxStates, opt.PruneStorage)
	return bt, opt, budgets, label
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
	parent, err := ExtractSpanningTree(g)
	if err != nil {
		t.Fatal(err)
	}
	bt, err := FromParents(g, parent)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// daemonRun is one re-plan's DP on g: the daemon's tuning, storage budget
// and prune bound at twice the minimum storage.
func daemonRun(t testing.TB, g *graph.Graph) (opt MSROptions, budget graph.Cost) {
	budget = 2 * minStorage(t, g)
	opt = DefaultMSROptions()
	opt.PruneStorage = budget
	return opt, budget
}

// BenchmarkDPMSR_ReplanScale is the DP-MSR member of the first and the
// last MSR race of the benchmark's replan-scale plan phase: the graph
// shape of that workload at 850 and 950 versions, solved as a re-plan
// does (MSROnGraph's steps), and at 300 versions, the size of the
// benchmark's hot-read plan pass. offers/op is the candidates offered to
// the merges' tables, keys/op the candidates the tables kept before the
// dominance sweep and the state cap, dominated/op those the sweep
// dropped, truncations/op the merges the cap cut, and peak_log_bytes/op
// the most bytes the reconstruction log's records held.
func BenchmarkDPMSR_ReplanScale(b *testing.B) {
	for _, versions := range []int{300, 850, 950} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			g := replanScaleGraph(versions, 21)
			opt, budget := daemonRun(b, g)
			var stats MSRStats
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				bt, err := FromGraph(g)
				if err != nil {
					b.Fatal(err)
				}
				dp, err := MSRFrontier(context.Background(), bt, opt)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := dp.Best(budget); err != nil {
					b.Fatal(err)
				}
				stats = dp.Stats()
			}
			b.ReportMetric(float64(stats.Offers), "offers/op")
			b.ReportMetric(float64(stats.Keys), "keys/op")
			b.ReportMetric(float64(stats.Dominated), "dominated/op")
			b.ReportMetric(float64(stats.Truncations), "truncations/op")
			b.ReportMetric(float64(stats.PeakLog)*float64(unsafe.Sizeof(msrRec{})), "peak_log_bytes/op")
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
	got, err := MSROnGraph(context.Background(), g, budget, DefaultMSROptions())
	if err != nil {
		t.Fatal(err)
	}
	dp, err := MSRFrontier(context.Background(), bt, opt)
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

// TestMSRStats checks what a run reports it did: every merge offers and
// keeps at most what it offers, the dominance sweep keeps at least one of
// a merge's candidates, no merge is cut without a cap, and with one the
// cut merges are counted.
func TestMSRStats(t *testing.T) {
	g := replanScaleGraph(120, 3)
	bt := spanningTree(t, g)
	merges := bt.N() - 1
	for _, maxStates := range []int{0, 4, 256} {
		opt := MSROptions{Epsilon: 0.05, Geometric: true, MaxStates: maxStates}
		dp, err := MSRFrontier(context.Background(), bt, opt)
		if err != nil {
			t.Fatal(err)
		}
		st := dp.Stats()
		if st.Offers < int64(merges) || st.Keys < int64(merges) || st.Keys > st.Offers || st.Keys-st.Dominated < int64(merges) {
			t.Errorf("MaxStates %d: %d offers, %d keys and %d dominated over %d merges", maxStates, st.Offers, st.Keys, st.Dominated, merges)
		}
		switch {
		case maxStates == 0 && st.Truncations != 0:
			t.Errorf("uncapped run reports %d truncations", st.Truncations)
		case maxStates == 4 && (st.Truncations == 0 || st.Truncations > merges):
			t.Errorf("MaxStates 4: %d truncations over %d merges", st.Truncations, merges)
		}
		t.Logf("MaxStates %d: %+v", maxStates, st)
	}
	// The log compacts on the replan-scale graph, not on a tree too small
	// to reach msrLogFloor. The keys the 950-version run keeps, and those
	// of them the dominance sweep drops, are pinned: the table keeps one
	// candidate per key offered whatever its layout.
	for _, c := range []struct {
		versions        int
		compacts        bool
		keys, dominated int64
	}{{950, true, 199_522, 71_515}, {3, false, 0, 0}} {
		g := replanScaleGraph(c.versions, 21)
		opt, _ := daemonRun(t, g)
		dp, err := MSRFrontier(context.Background(), spanningTree(t, g), opt)
		if err != nil {
			t.Fatal(err)
		}
		st := dp.Stats()
		if st.PeakLog < len(dp.log) || st.PeakLog == 0 || (st.Compactions > 0) != c.compacts {
			t.Errorf("%d versions: %+v, %d records kept", c.versions, st, len(dp.log))
		}
		if c.keys > 0 && (st.Keys != c.keys || st.Dominated != c.dominated) {
			t.Errorf("%d versions: %d keys, %d dominated, want %d and %d", c.versions, st.Keys, st.Dominated, c.keys, c.dominated)
		}
		t.Logf("%d versions: %+v", c.versions, st)
	}
}

// reachable counts the records the root's states of d reach.
func reachable(d *MSRDP) int {
	seen := make([]bool, len(d.log))
	var stack []int32
	for i := range d.root.vals {
		if at := d.root.base + int32(i); at != noRec {
			stack = append(stack, at)
		}
	}
	n := 0
	for len(stack) > 0 {
		at := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if seen[at] {
			continue
		}
		seen[at] = true
		n++
		for _, next := range []int32{d.log[at].prev, d.log[at].child} {
			if next != noRec {
				stack = append(stack, next)
			}
		}
	}
	return n
}

// TestMSRLogCompacts runs the daemon's DP on the replan-scale graph,
// whose log compacts between merges: the handle keeps exactly the
// records its root's states reach, and its plans are the reference's.
// The committed fuzz seed seed-log-compacts compacts too, so the fuzz
// corpus keeps a tree that does.
func TestMSRLogCompacts(t *testing.T) {
	g := replanScaleGraph(950, 21)
	opt, budget := daemonRun(t, g)
	bt := spanningTree(t, g)
	dp, err := MSRFrontier(context.Background(), bt, opt)
	if err != nil {
		t.Fatal(err)
	}
	st := dp.Stats()
	if st.Compactions == 0 {
		t.Fatalf("no compaction: %+v", st)
	}
	if n := reachable(dp); n != len(dp.log) {
		t.Fatalf("the handle keeps %d records, its root's states reach %d", len(dp.log), n)
	}
	t.Logf("%+v, %d records kept", st, len(dp.log))
	checkAgainstReference(t, "replan-scale 950", bt, opt, []graph.Cost{budget / 2, budget})

	corpus, err := os.ReadFile("testdata/fuzz/FuzzMergeKernelMatchesReference/seed-log-compacts")
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(corpus), "\n")
	data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		t.Fatal(err)
	}
	bt, opt, _, label := fuzzKernelCase(t, []byte(data))
	if dp, err = MSRFrontier(context.Background(), bt, opt); err != nil {
		t.Fatal(err)
	}
	if st := dp.Stats(); st.Compactions == 0 {
		t.Fatalf("seed-log-compacts (%s) does not compact: %+v", label, st)
	}
}

// TestMSRConcurrentRuns guards against scratch shared between runs: the
// portfolio's batch solves and a fleet of tenants run DPs side by side.
func TestMSRConcurrentRuns(t *testing.T) {
	const workers, calls = 8, 20
	type instance struct {
		g      *graph.Graph
		budget graph.Cost
		want   core.Solution
	}
	opt := DefaultMSROptions()
	instances := make([][]instance, workers)
	for w := range instances {
		for c := 0; c < calls; c++ {
			g := replanScaleGraph(10+2*c+w, int64(100*w+c))
			budget := 2 * minStorage(t, g)
			want, err := MSROnGraph(context.Background(), g, budget, opt)
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
				got, err := MSROnGraph(context.Background(), in.g, in.budget, opt)
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

// TestMSRRetainedHeap guards against the run's scratch outliving it: a
// finished *MSRDP keeps its root's values and the log records they
// reach, no more heap than the reference kernel's root states and the
// chains of states behind them. A handle that kept the run's pooled value
// buffers, its table or its log's headroom, or a log compacted from more
// than the root's states, shows here.
func TestMSRRetainedHeap(t *testing.T) {
	g := replanScaleGraph(800, 21)
	opt, _ := daemonRun(t, g)
	bt := spanningTree(t, g)
	retained := func(run func() (any, error)) uint64 {
		var before, after runtime.MemStats
		// Twice: what a sync.Pool holds (diff's scratch, from generating
		// the graph) survives one collection and would be freed, and
		// credited to the run, by the one after it.
		runtime.GC()
		runtime.GC()
		runtime.ReadMemStats(&before)
		kept, err := run()
		if err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(kept)
		if after.HeapAlloc < before.HeapAlloc {
			return 0
		}
		return after.HeapAlloc - before.HeapAlloc
	}
	want := retained(func() (any, error) { return referenceMSRFrontier(bt, opt, true, nil) })
	got := retained(func() (any, error) { return MSRFrontier(context.Background(), bt, opt) })
	t.Logf("retained heap: kernel %d B, reference %d B", got, want)
	if got > want+want/10 {
		t.Fatalf("a finished run retains %d B, the reference kernel %d B", got, want)
	}
}

// TestMSRTableMatchesMap offers random walks to one table over many
// merges and checks it against a map from key to the candidate that
// comes first by before: each merge's table holds exactly the map's
// candidates, in the order their keys were first offered, and nothing of
// an earlier merge. A walk holds its class and offers in ascending
// ρ-bucket, as offerRuns does, from a random start, so rows grow below
// and above their first slot and page; ρ-buckets come from exact ρ in the
// millions, linear ticks and geometric ticks, and a merge has one, a few
// or hundreds of classes.
func TestMSRTableMatchesMap(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	geo := &bucketer{geoLog: math.Log1p(0.05)}
	geo.buildGeoTable(1 << 40)
	// A walk starts at base + [0, spread) and steps up by at most step,
	// so walks of one class meet in the same buckets.
	modes := []struct {
		name               string
		b                  *bucketer
		base, spread, step graph.Cost
	}{
		{"exact", &bucketer{}, 3_000_000, 3_000, 60},
		{"linear", &bucketer{linearTick: 37.5}, 0, 100_000, 4_000},
		{"geometric", geo, 0, 1 << 30, 1 << 25},
	}
	for _, mode := range modes {
		tab := newMSRTable() // each mode's third merge grows its class index
		grewBelow, grewAbove := false, false
		for merge := 0; merge < 60; merge++ {
			classes := []int{1, 4, 300}[merge%3]
			want := map[msrKey]msrCand{}
			var firsts []msrKey        // keys in the order first offered
			first := map[int32]int64{} // each row's first page
			for walk := 0; walk < 4*classes+20; walk++ {
				// Classes that share all but their k or all but their γ-bucket,
				// so the class index's probes meet near twins.
				k, gb := int32(rng.Intn(classes)), int64(0)
				if rng.Intn(2) == 0 {
					k, gb = 0, int64(rng.Intn(classes))
				}
				cand := msrCand{key: msrKey{fromBelow: rng.Intn(2) == 0, k: k, gb: gb}, op: msrOp(rng.Intn(4))}
				cur := tab.cursor(tab.row(cand.key.class()))
				rho := mode.base + rng.Int63n(mode.spread)
				for step := rng.Intn(12); step >= 0; step-- {
					rho += rng.Int63n(mode.step + 1)
					cand.key.rb = mode.b.bucket(rho)
					// Narrow σ, ρ and positions, so ties go to the rest of
					// before.
					cand.sigma, cand.rho = rng.Int63n(4), rho-rng.Int63n(2)
					cand.x, cand.y, cand.k, cand.gamma = int32(rng.Intn(4)), int32(rng.Intn(4)), int32(rng.Intn(9)), rng.Int63n(9)
					tab.offer(&cand, &cur)
					if _, ok := first[cur.row]; !ok {
						first[cur.row] = cur.num
					}
					if d, ok := want[cand.key]; !ok {
						want[cand.key] = cand
						firsts = append(firsts, cand.key)
					} else if cand.before(&d) {
						want[cand.key] = cand
					}
				}
			}
			if len(tab.cands) != len(firsts) {
				t.Fatalf("%s merge %d: table holds %d candidates, the map %d", mode.name, merge, len(tab.cands), len(firsts))
			}
			for e, key := range firsts {
				if got := tab.cands[e]; got != want[key] {
					t.Fatalf("%s merge %d: candidate %d is %+v, the map's %+v", mode.name, merge, e, got, want[key])
				}
			}
			for r, f := range first {
				pages := tab.rows[r].pages
				grewBelow = grewBelow || pages[0].num < f
				grewAbove = grewAbove || pages[len(pages)-1].num > f
			}
			tab.reset()
			if len(tab.cands) != 0 || len(tab.rows) != 0 || slices.ContainsFunc(tab.classes, func(e int32) bool { return e != 0 }) {
				t.Fatalf("%s merge %d: reset leaves %d candidates and %d rows", mode.name, merge, len(tab.cands), len(tab.rows))
			}
		}
		if !grewBelow || !grewAbove {
			t.Errorf("%s: rows grew below their first page %v, above %v", mode.name, grewBelow, grewAbove)
		}
	}
}
