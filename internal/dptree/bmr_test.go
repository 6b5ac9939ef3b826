package dptree

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/graph"
)

func TestBallOnChain(t *testing.T) {
	// Path 0-1-2-3 rooted at 0, every delta retrieval 2.
	chain := graph.New("chain")
	for i := 0; i < 4; i++ {
		chain.AddNode(10)
	}
	for i := 0; i < 3; i++ {
		chain.AddBiEdge(graph.NodeID(i), graph.NodeID(i+1), 1, 2)
	}
	bt, err := FromGraph(chain)
	if err != nil {
		t.Fatal(err)
	}
	none := graph.None
	for _, c := range []struct {
		v    graph.NodeID
		r    graph.Cost
		want []ballEntry
	}{
		{1, 4, []ballEntry{{1, 1}, {0, none}, {2, 2}, {3, 2}}},
		{1, 3, []ballEntry{{1, 1}, {0, none}, {2, 2}}},
		{3, 6, []ballEntry{{3, 3}, {2, none}, {1, none}, {0, none}}},
		{0, 5, []ballEntry{{0, 0}, {1, 1}, {2, 1}}},
		{2, 0, []ballEntry{{2, 2}}},
	} {
		got, _ := bt.ball(c.v, c.r, nil, nil)
		if !reflect.DeepEqual(got, c.want) {
			t.Fatalf("ball(%d, %d) = %v, want %v", c.v, c.r, got, c.want)
		}
	}
}

// TestBallMatchesNaive checks every ball against the naive path oracles:
// v first, each u with R(u, v) ≤ r exactly once, and the right via.
func TestBallMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var ball []ballEntry
	var steps []ballStep
	for it := 0; it < 40; it++ {
		bt := randomTree(t, rng, 1+rng.Intn(24), it%4, 100, []graph.Cost{3, 20, 1000}[it%3])
		n := graph.NodeID(bt.N())
		for v := graph.NodeID(0); v < n; v++ {
			for _, r := range []graph.Cost{0, 2, 10, 40, 1000, graph.Infinite / 2} {
				ball, steps = bt.ball(v, r, ball, steps)
				if ball[0] != (ballEntry{v, v}) {
					t.Fatalf("it %d ball(%d, %d) starts with %v", it, v, r, ball[0])
				}
				var want []ballEntry
				for u := graph.NodeID(0); u < n; u++ {
					if naivePathRetrieval(bt, u, v) > r {
						continue
					}
					via := graph.None
					switch {
					case u == v:
						via = v
					case naiveInSubtree(bt, v, u):
						via = naiveChildTowards(bt, v, u)
					}
					want = append(want, ballEntry{u, via})
				}
				got := slices.SortedFunc(slices.Values(ball), func(a, b ballEntry) int { return int(a.u - b.u) })
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("it %d ball(%d, %d):\n got %v\nwant %v", it, v, r, got, want)
				}
			}
		}
	}
}

// checkBMRAgainstReference runs both kernels on bt at bound r and compares
// what a caller sees: the error, the cost and the plan itself.
func checkBMRAgainstReference(t *testing.T, label string, bt *BiTree, r graph.Cost) {
	t.Helper()
	got, gotErr := BMR(context.Background(), bt, r)
	want, wantErr := referenceBMR(bt, r)
	if !sameError(gotErr, wantErr) {
		t.Fatalf("%s r %d: error %v, reference %v", label, r, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if got.Cost != want.Cost ||
		!reflect.DeepEqual(got.Plan.Materialized, want.Plan.Materialized) ||
		!reflect.DeepEqual(got.Plan.Stored, want.Plan.Stored) {
		t.Fatalf("%s r %d: plans differ: cost %+v, reference %+v", label, r, got.Cost, want.Cost)
	}
}

func TestBMRMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	costRanges := []graph.Cost{1, 3, 100, 1_000_000}
	for it := 0; it < 60; it++ {
		bt := randomTree(t, rng, 1+rng.Intn(40), it%4, costRanges[rng.Intn(4)], costRanges[rng.Intn(4)])
		n := bt.N()
		bounds := []graph.Cost{-1, 0, graph.Infinite / 2}
		for k := 0; k < 6; k++ {
			r := naivePathRetrieval(bt, graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			bounds = append(bounds, r-1, r)
		}
		for _, r := range bounds {
			checkBMRAgainstReference(t, fmt.Sprintf("it %d n %d shape %d", it, n, it%4), bt, r)
		}
	}
}

// FuzzBMRMatchesReference decodes its bytes into a tree (at most 40
// versions, the cost ranges from the header) and a bound, and runs both
// DP-BMR kernels on them. After the tree, one byte picks the bound: -1, 0,
// unbounded, or R(u, v) - 1, R(u, v) or R(u, v) + 1 for a pair the next
// bytes name, so bounds that exactly meet a path cost are common; bytes
// past the end read as zero.
func FuzzBMRMatchesReference(f *testing.F) {
	f.Add([]byte{39, 0, 0})
	f.Add([]byte{9, 1, 2, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add([]byte{25, 3, 1, 0xff, 0x80, 0x10, 0x07, 0x3f})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := fuzzBytes(data)
		ranges := []graph.Cost{3, 10, 1000, 1_000_000}
		n := 1 + next()%40
		bt := fuzzTree(t, next, n, ranges[next()%4], ranges[next()%4])
		var r graph.Cost
		switch sel := next() % 8; sel {
		case 0:
			r = -1
		case 1:
			r = 0
		case 2:
			r = graph.Infinite / 2
		default:
			u, v := graph.NodeID(next()%n), graph.NodeID(next()%n)
			r = naivePathRetrieval(bt, u, v) + graph.Cost(sel%3) - 1
		}
		checkBMRAgainstReference(t, fmt.Sprintf("n %d", n), bt, r)
	})
}

// TestBMROnGraphPastDenseCap solves a chain one version longer than the
// dense kernel's 8,192-version cap. At bound 20 each materialized version
// serves its next two through the 10-retrieval deltas, so the optimum
// materializes every third.
func TestBMROnGraphPastDenseCap(t *testing.T) {
	const n = 8193
	g := graph.New("chain")
	for v := 0; v < n; v++ {
		g.AddNode(100)
		if v > 0 {
			g.AddEdge(graph.NodeID(v-1), graph.NodeID(v), 10, 10)
		}
	}
	res, err := BMROnGraph(context.Background(), g, 20)
	if err != nil {
		t.Fatal(err)
	}
	if want := graph.Cost(n/3*100 + (n-n/3)*10); res.Cost.Storage != want || res.Cost.MaxRetrieval != 20 {
		t.Fatalf("chain: %+v, want storage %d at max retrieval 20", res.Cost, want)
	}
}
