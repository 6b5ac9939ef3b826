package gitpack

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/lmg"
	"repro/internal/plan"
	"repro/internal/repogen"
)

func TestAlwaysFeasible(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for it := 0; it < 40; it++ {
		g := graph.Random(graph.RandomOptions{
			Nodes:      1 + rng.Intn(20),
			ExtraEdges: rng.Intn(30),
			Bidirected: it%2 == 0,
		}, rng)
		for _, opt := range []Options{{}, {Window: 3}, {Window: 50, SortBySize: true}} {
			res := Solve(g, opt)
			if !res.Cost.Feasible {
				t.Fatalf("it %d opts %+v: infeasible plan", it, opt)
			}
			if err := res.Plan.Validate(g); err != nil {
				t.Fatalf("it %d: %v", it, err)
			}
		}
	}
}

func TestWindowZeroUsesDefault(t *testing.T) {
	g := graph.Chain(5, 100, 1, 1)
	res := Solve(g, Options{})
	// Chain fits in the default window: materialize the head, store the
	// rest as deltas.
	if res.Cost.Storage != 100+4 {
		t.Fatalf("storage %d, want 104", res.Cost.Storage)
	}
}

func TestTinyWindowMaterializesMore(t *testing.T) {
	// With window 1 only the immediate predecessor can serve as a delta
	// base; a branchy graph then forces extra materializations compared
	// to a large window.
	g := repogen.Generate(repogen.Spec{
		Name: "w", Commits: 120, ExtraBiEdges: 20,
		AvgNodeCost: 10_000, AvgDeltaCost: 100, BranchProb: 0.4, Seed: 5,
	})
	small := Solve(g, Options{Window: 1})
	large := Solve(g, Options{Window: 60})
	if small.Cost.Storage < large.Cost.Storage {
		t.Fatalf("window 1 storage %d beat window 60 storage %d", small.Cost.Storage, large.Cost.Storage)
	}
}

func TestGitPackLosesToVersionAwareMethods(t *testing.T) {
	// The VLDB'15 observation the paper repeats: git's window heuristic
	// does not compete with version-graph-aware optimization. Give
	// LMG-All the same storage budget git ends up using: it must achieve
	// at most git's total retrieval.
	g := repogen.Generate(repogen.Spec{
		Name: "cmp", Commits: 150, ExtraBiEdges: 25,
		AvgNodeCost: 1_000_000, AvgDeltaCost: 8_000, BranchProb: 0.2, Seed: 9,
	})
	git := Solve(g, Options{Window: 10})
	smart, err := lmg.LMGAll(context.Background(), g, git.Cost.Storage)
	if err != nil {
		t.Fatal(err)
	}
	if smart.Cost.SumRetrieval > git.Cost.SumRetrieval {
		t.Fatalf("LMG-All (ΣR=%d) worse than git pack (ΣR=%d) at equal storage",
			smart.Cost.SumRetrieval, git.Cost.SumRetrieval)
	}
}

func TestSingleNodeAndEmpty(t *testing.T) {
	empty := Solve(graph.New("e"), Options{})
	if empty.Cost.Storage != 0 || !empty.Cost.Feasible {
		t.Fatal("empty graph mishandled")
	}
	one := graph.NewWithNodes("o", 1, 42)
	res := Solve(one, Options{SortBySize: true})
	if res.Cost.Storage != 42 {
		t.Fatalf("single node storage %d", res.Cost.Storage)
	}
}

func TestSortBySizeChangesOrder(t *testing.T) {
	// Two versions connected both ways with asymmetric delta costs: the
	// order decides which delta is stored.
	g := graph.New("pair")
	small := g.AddNode(10)
	big := g.AddNode(1000)
	g.AddEdge(small, big, 5, 5)  // small → big
	g.AddEdge(big, small, 50, 5) // big → small
	bySize := Solve(g, Options{Window: 5, SortBySize: true})
	// Size order: big first (materialized), small delta'd from... the
	// only backward delta is big → small (storage 50) vs materializing
	// small (10): materialize both.
	if !bySize.Plan.Materialized[big] {
		t.Fatal("largest version should be materialized first in size order")
	}
	insertion := Solve(g, Options{Window: 5})
	// Insertion order: small first (materialized, 10), big delta'd via
	// small → big (5).
	c := plan.Evaluate(g, insertion.Plan)
	if c.Storage != 15 {
		t.Fatalf("insertion-order storage %d, want 15", c.Storage)
	}
}
