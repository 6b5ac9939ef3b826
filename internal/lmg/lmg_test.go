package lmg

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/graph"
	"repro/internal/plan"
)

// figure2 builds the adversarial chain of Theorem 1 (Figure 2) with
// ε = b/c: node costs a, b, c; edge (A,B) has both costs (1-ε)b and
// edge (B,C) has both costs (1-ε)c.
func figure2(a, b, c graph.Cost) *graph.Graph {
	g := graph.New("figure2")
	va := g.AddNode(a)
	vb := g.AddNode(b)
	vc := g.AddNode(c)
	ab := b - b*b/c // (1-b/c)·b
	bc := c - b     // (1-b/c)·c
	g.AddEdge(va, vb, ab, ab)
	g.AddEdge(vb, vc, bc, bc)
	return g
}

func TestTheorem1LMGArbitrarilyBad(t *testing.T) {
	// With a = 10^6, b = 100, c = 10^4 (ε = 0.01), any storage constraint
	// in [a+(1-ε)b+c, a+b+c) makes LMG pick option (1) (materialize B)
	// with final retrieval (1-ε)c, while the optimum (materialize C) has
	// retrieval (1-ε)b — a gap of c/b = 100.
	g := figure2(1_000_000, 100, 10_000)
	if g.GeneralizedTriangleViolations() != 0 {
		t.Fatal("adversarial instance must satisfy the triangle inequality")
	}
	s := graph.Cost(1_000_000 + 99 + 10_000)
	res, err := LMG(g, s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.SumRetrieval != 9900 {
		t.Fatalf("LMG retrieval = %d, Theorem 1 predicts 9900", res.Cost.SumRetrieval)
	}
	opt, err := bruteforce.SolveMSR(g, s, 0)
	if err != nil {
		t.Fatal(err)
	}
	if opt.Cost.SumRetrieval != 99 {
		t.Fatalf("optimum = %d, want 99", opt.Cost.SumRetrieval)
	}
	if res.Cost.SumRetrieval/opt.Cost.SumRetrieval != 100 {
		t.Fatalf("LMG/OPT ratio = %d, want c/b = 100", res.Cost.SumRetrieval/opt.Cost.SumRetrieval)
	}
}

func TestLMGFigure1(t *testing.T) {
	g := graph.Figure1()
	// Generous budget: everything materialized, retrieval 0.
	res, err := LMG(g, g.TotalNodeStorage())
	if err != nil {
		t.Fatal(err)
	}
	if res.Cost.SumRetrieval != 0 {
		t.Fatalf("unconstrained LMG retrieval %d", res.Cost.SumRetrieval)
	}
	// Infeasible budget.
	if _, err := LMG(g, 100); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
	if _, err := LMGAll(g, 100); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("err = %v, want ErrInfeasible", err)
	}
}

func randomInstance(rng *rand.Rand) *graph.Graph {
	return graph.Random(graph.RandomOptions{
		Nodes:      2 + rng.Intn(6),
		ExtraEdges: rng.Intn(8),
		Bidirected: rng.Intn(2) == 0,
	}, rng)
}

func TestHeuristicsFeasibleAndAboveOptimum(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for it := 0; it < 60; it++ {
		g := randomInstance(rng)
		minPlan, minStorage, err := plan.MinStorage(g)
		if err != nil {
			t.Fatal(err)
		}
		minCost := plan.Evaluate(g, minPlan)
		// Sweep three budgets between min storage and full
		// materialization.
		total := g.TotalNodeStorage()
		for _, frac := range []graph.Cost{0, 1, 2} {
			s := minStorage + (total-minStorage)*frac/2
			if s < minStorage {
				s = minStorage
			}
			opt, err := bruteforce.SolveMSR(g, s, 0)
			if err != nil {
				t.Fatalf("it %d: %v", it, err)
			}
			for name, run := range map[string]func() (Result, error){
				"LMG":    func() (Result, error) { return LMG(g, s) },
				"LMGAll": func() (Result, error) { return LMGAll(g, s) },
			} {
				res, err := run()
				if err != nil {
					t.Fatalf("it %d %s: %v", it, name, err)
				}
				if !res.Cost.Feasible {
					t.Fatalf("it %d %s: infeasible plan", it, name)
				}
				if res.Cost.Storage > s {
					t.Fatalf("it %d %s: storage %d > budget %d", it, name, res.Cost.Storage, s)
				}
				if res.Cost.SumRetrieval < opt.Cost.SumRetrieval {
					t.Fatalf("it %d %s: retrieval %d beats optimum %d (impossible)",
						it, name, res.Cost.SumRetrieval, opt.Cost.SumRetrieval)
				}
				if res.Cost.SumRetrieval > minCost.SumRetrieval {
					t.Fatalf("it %d %s: retrieval %d worse than the untouched min-storage tree %d",
						it, name, res.Cost.SumRetrieval, minCost.SumRetrieval)
				}
			}
		}
	}
}

func TestLMGAllTerminatesOnZeroCostEdges(t *testing.T) {
	// Zero-retrieval zero-storage deltas invite infinite swap loops; the
	// strictness guard must terminate.
	g := graph.NewWithNodes("z", 4, 10)
	g.AddBiEdge(0, 1, 0, 0)
	g.AddBiEdge(1, 2, 0, 0)
	g.AddBiEdge(2, 3, 0, 0)
	g.AddBiEdge(0, 3, 0, 0)
	res, err := LMGAll(g, 40)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Cost.Feasible {
		t.Fatal("infeasible")
	}
	if res.Cost.SumRetrieval != 0 {
		t.Fatalf("retrieval %d", res.Cost.SumRetrieval)
	}
}

func TestRatioLess(t *testing.T) {
	// 3/2 < 2/1; huge values exercise the 128-bit path.
	if !ratioLess(3, 2, 2, 1) {
		t.Fatal("3/2 should be < 2/1")
	}
	if ratioLess(2, 1, 3, 2) {
		t.Fatal("2/1 should not be < 3/2")
	}
	big := graph.Cost(3_000_000_000_000)
	if !ratioLess(big, big+1, big, big) {
		t.Fatal("big/(big+1) should be < big/big")
	}
	if ratioLess(big, big, big, big) {
		t.Fatal("equal ratios are not less")
	}
}

func TestSingleNode(t *testing.T) {
	g := graph.NewWithNodes("one", 1, 42)
	for _, run := range []func() (Result, error){
		func() (Result, error) { return LMG(g, 42) },
		func() (Result, error) { return LMGAll(g, 42) },
	} {
		res, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if res.Cost.Storage != 42 || res.Cost.SumRetrieval != 0 {
			t.Fatalf("single node cost %+v", res.Cost)
		}
	}
}
