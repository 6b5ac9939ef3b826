package versioning

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// layoutDoc returns a fresh document of n lines whose text is drawn
// from rng.
func layoutDoc(rng *rand.Rand, n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = layoutLine(rng)
	}
	return lines
}

func layoutLine(rng *rand.Rand) string {
	return fmt.Sprintf("%x %s", rng.Uint64(), "line text"[:rng.Intn(10)])
}

// layoutEdit returns prev with k random edits — a line rewritten,
// inserted or deleted — keeping 5 to 2,000 lines.
func layoutEdit(rng *rand.Rand, prev []string, k int) []string {
	next := append([]string(nil), prev...)
	for ; k > 0; k-- {
		i := rng.Intn(len(next))
		switch op := rng.Intn(3); {
		case op == 0 && len(next) < 2000:
			next = append(next[:i], append([]string{layoutLine(rng)}, next[i:]...)...)
		case op == 1 && len(next) > 5:
			next = append(next[:i], next[i+1:]...)
		default:
			next[i] = layoutLine(rng)
		}
	}
	return next
}

// TestIncrementalLayoutBoundsRetrieval pins the commit-time placement
// rule on random histories that are never re-planned: roots, commits and
// merge commits off random earlier versions, documents of 5 to 2,000
// lines, edits from one line to most of the document, no checkout
// cache. After every commit, and again after Close and Open replay the
// journal, every version reads no dearer than it stores (R(v) ≤ s_v
// under the plan), the incremental cost bookkeeping equals an
// evaluation of the plan, and every version reads back as committed.
// The replayed plan is the live one, and a re-plan of it reads back too.
func TestIncrementalLayoutBoundsRetrieval(t *testing.T) {
	for _, durable := range []bool{false, true} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("durable=%t/seed=%d", durable, seed), func(t *testing.T) {
				testIncrementalLayout(t, seed, durable)
			})
		}
	}
}

func testIncrementalLayout(t *testing.T, seed int64, durable bool) {
	ctx := context.Background()
	opt := RepositoryOptions{
		Problem:            ProblemMSR,
		ReplanEvery:        -1,
		CacheEntries:       -1,
		MaintenanceWorkers: -1,
		EngineOptions:      testEngineOptions(),
	}
	if durable {
		opt.DataDir = t.TempDir()
	}
	r, err := Open("layout", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { r.Close() }()
	rng := rand.New(rand.NewSource(seed))
	var oracle [][]string

	check := func(when string) {
		t.Helper()
		p := r.Plan()
		for v, rv := range p.Retrievals(r.g) {
			if sv := r.g.NodeStorage(NodeID(v)); rv > sv {
				t.Fatalf("%s: R(%d) = %d > s = %d", when, v, rv, sv)
			}
		}
		assertCostMatchesPlan(t, r, when)
		readAll(t, r, oracle, when)
	}

	const versions = 48
	for v := 0; v < versions; v++ {
		var parents []NodeID
		var lines []string
		switch n := len(oracle); {
		case n == 0 || rng.Intn(16) == 0:
			lines = layoutDoc(rng, 5+rng.Intn(rng.Intn(1996)+1))
		default:
			p := NodeID(rng.Intn(n))
			if rng.Intn(2) == 0 {
				p = NodeID(n - 1) // most commits extend a recent tip
			}
			parents = append(parents, p)
			prev := oracle[p]
			if rng.Intn(6) == 0 && n > 1 {
				// A merge: the first parent's head and another's tail.
				q := NodeID(rng.Intn(n))
				parents = append(parents, q)
				other := oracle[q]
				prev = append(append([]string(nil), prev[:len(prev)/2]...), other[len(other)/2:]...)
				if len(prev) < 5 {
					prev = append(prev, layoutDoc(rng, 5)...)
				}
			}
			// One line up to most of the document.
			k := 1 + rng.Intn(len(prev))
			if rng.Intn(2) == 0 {
				k = 1 + rng.Intn(3)
			}
			lines = layoutEdit(rng, prev, k)
		}
		id, err := r.CommitMerge(ctx, parents, lines)
		if err != nil || id != NodeID(v) {
			t.Fatalf("commit %d = %d, %v", v, id, err)
		}
		oracle = append(oracle, lines)
		check(fmt.Sprintf("after commit %d", v))
	}
	if st := r.Stats(); st.Blobs < 2 || st.StoredDeltas == 0 {
		t.Fatalf("%d versions stored whole and %d deltas: the history never exercised both appends", st.Blobs, st.StoredDeltas)
	}

	if durable {
		live := r.Plan()
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		if r, err = Open("layout", opt); err != nil {
			t.Fatal(err)
		}
		check("after the reopen")
		if got := r.Plan(); !reflect.DeepEqual(got, live) {
			t.Fatalf("the replayed layout materializes %v, the live one %v", got.MaterializedNodes(), live.MaterializedNodes())
		}
	}
	if err := r.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	assertCostMatchesPlan(t, r, "after the re-plan")
	readAll(t, r, oracle, "after the re-plan")
}

// assertCostMatchesPlan holds the incrementally kept plan cost to an
// evaluation of the installed plan.
func assertCostMatchesPlan(t *testing.T, r *Repository, when string) {
	t.Helper()
	st, want := r.Stats(), Evaluate(r.g, r.Plan())
	if st.Storage != want.Storage || st.SumRetrieval != want.SumRetrieval || st.MaxRetrieval != want.MaxRetrieval {
		t.Fatalf("%s: Stats (%d, %d, %d), Evaluate (%d, %d, %d)", when,
			st.Storage, st.SumRetrieval, st.MaxRetrieval, want.Storage, want.SumRetrieval, want.MaxRetrieval)
	}
}

// readAll asserts every version checks out as oracle holds it.
func readAll(t *testing.T, r *Repository, oracle [][]string, when string) {
	t.Helper()
	for v, want := range oracle {
		if got, err := r.Checkout(context.Background(), NodeID(v)); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Checkout(%d) = %d lines, %v; want the %d committed", when, v, len(got), err, len(want))
		}
	}
}
