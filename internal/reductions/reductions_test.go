package reductions

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/graph"
	"repro/internal/lmg"
	"repro/internal/mp"
)

func TestAdversarialLMGScalesUnboundedly(t *testing.T) {
	// Theorem 1: the LMG/OPT gap equals c/b and grows without bound.
	for _, ratio := range []graph.Cost{10, 50, 200} {
		b := ratio // keeps c = b² within the integral-instance regime
		c := b * ratio
		g, s := AdversarialLMG(1_000_000*ratio, b, c)
		if g.GeneralizedTriangleViolations() != 0 {
			t.Fatalf("ratio %d: triangle inequality violated", ratio)
		}
		res, err := lmg.LMG(context.Background(), g, s)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := bruteforce.SolveMSR(g, s, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Cost.SumRetrieval / opt.Cost.SumRetrieval; got != ratio {
			t.Fatalf("ratio %d: LMG/OPT = %d", ratio, got)
		}
	}
}

func TestAdversarialLMGRejectsBadParameters(t *testing.T) {
	for _, f := range []func(){
		func() { AdversarialLMG(10, 0, 10) },
		func() { AdversarialLMG(10, 10, 10) },
		func() { AdversarialLMG(10, 3, 10) }, // 3 does not divide 10
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			f()
		}()
	}
}

func TestSetCoverSolvers(t *testing.T) {
	sc := SetCover{NumElements: 4, Sets: [][]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {0, 1, 2, 3}}}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	exact, err := sc.ExactSetCover()
	if err != nil {
		t.Fatal(err)
	}
	if len(exact) != 1 {
		t.Fatalf("exact cover size %d, want 1", len(exact))
	}
	greedy := sc.GreedySetCover()
	if greedy == nil || len(greedy) < len(exact) {
		t.Fatalf("greedy cover %v", greedy)
	}
	// Invalid instances.
	if err := (SetCover{NumElements: 2, Sets: [][]int{{0}}}).Validate(); err == nil {
		t.Fatal("uncoverable element accepted")
	}
	if err := (SetCover{NumElements: 1, Sets: [][]int{{5}}}).Validate(); err == nil {
		t.Fatal("out-of-range element accepted")
	}
}

func TestSetCoverToBMREquivalence(t *testing.T) {
	// Theorem 3 / Lemma 4: the optimal BMR storage under R = 1 on the
	// reduction graph encodes the minimum set cover.
	rng := rand.New(rand.NewSource(89))
	for it := 0; it < 12; it++ {
		sc := SetCover{NumElements: 2 + rng.Intn(3), Sets: make([][]int, 2+rng.Intn(2))}
		for o := 0; o < sc.NumElements; o++ {
			sc.Sets[rng.Intn(len(sc.Sets))] = append(sc.Sets[rng.Intn(len(sc.Sets))], o)
		}
		if sc.Validate() != nil {
			// Random assignment may double-place an element into the
			// same set twice; fix coverage by appending.
			continue
		}
		const n = 1000
		r, err := SetCoverToBMR(sc, n)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := sc.ExactSetCover()
		if err != nil {
			t.Fatal(err)
		}
		opt, err := bruteforce.SolveBMR(r.G, 1, 0)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		if opt.Cost.Storage != r.OptimalBMRStorage(len(exact)) {
			t.Fatalf("it %d: BMR storage %d, want %d for cover size %d",
				it, opt.Cost.Storage, r.OptimalBMRStorage(len(exact)), len(exact))
		}
	}
}

func TestLemma4Improvement(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	for it := 0; it < 15; it++ {
		sc := SetCover{NumElements: 2 + rng.Intn(4), Sets: make([][]int, 2+rng.Intn(3))}
		for o := 0; o < sc.NumElements; o++ {
			sc.Sets[rng.Intn(len(sc.Sets))] = append(sc.Sets[rng.Intn(len(sc.Sets))], o)
		}
		if sc.Validate() != nil {
			continue
		}
		r, err := SetCoverToBMR(sc, 500)
		if err != nil {
			t.Fatal(err)
		}
		// MP produces a feasible R=1 plan that may materialize elements.
		res, err := mp.Solve(r.G, 1)
		if err != nil {
			t.Fatal(err)
		}
		improved, err := r.ImproveBMRPlan(res.Plan)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		for j := 0; j < sc.NumElements; j++ {
			if improved.Materialized[r.ElementNode(j)] {
				t.Fatalf("it %d: element %d still materialized", it, j)
			}
		}
		if improved.StorageCost(r.G) > res.Plan.StorageCost(r.G) {
			t.Fatalf("it %d: storage increased", it)
		}
		// The materialized sets must form a valid cover (every element
		// retrievable in one hop from a materialized set).
		cover := r.CoverFromPlan(improved.Materialized)
		covered := make([]bool, sc.NumElements)
		for _, i := range cover {
			for _, o := range sc.Sets[i] {
				covered[o] = true
			}
		}
		for o, c := range covered {
			if !c {
				t.Fatalf("it %d: element %d not covered by extracted cover", it, o)
			}
		}
	}
}

func TestSubsetSumToMSR(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for it := 0; it < 15; it++ {
		nv := 2 + rng.Intn(4)
		ss := SubsetSum{Target: 10 + graph.Cost(rng.Intn(30))}
		var total graph.Cost
		for i := 0; i < nv; i++ {
			a := 1 + graph.Cost(rng.Intn(15))
			ss.Values = append(ss.Values, a)
			total += a
		}
		red := SubsetSumToMSR(ss, 10_000)
		opt, err := bruteforce.SolveMSR(red.G, red.Constraint, 0)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		// MSR objective = Σ a_i − (best subset sum ≤ T).
		want := total - ss.Solve()
		if opt.Cost.SumRetrieval != want {
			t.Fatalf("it %d: MSR %d, want %d (subset-sum %d of %v target %d)",
				it, opt.Cost.SumRetrieval, want, ss.Solve(), ss.Values, ss.Target)
		}
		// The materialized children must be a feasible subset.
		var sum graph.Cost
		for i, a := range ss.Values {
			if opt.Plan.Materialized[i+1] {
				sum += a
			}
		}
		if sum > ss.Target {
			t.Fatalf("it %d: materialized subset sums to %d > target %d", it, sum, ss.Target)
		}
	}
}

// randomMetric builds a random symmetric metric via shortest-path
// closure.
func randomMetric(n int, rng *rand.Rand) Metric {
	d := make(Metric, n)
	for i := range d {
		d[i] = make([]graph.Cost, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = 1 + graph.Cost(rng.Intn(20))
			}
		}
	}
	// Symmetrize then Floyd–Warshall closure.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if d[j][i] < d[i][j] {
				d[i][j] = d[j][i]
			} else {
				d[j][i] = d[i][j]
			}
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if d[i][k]+d[k][j] < d[i][j] {
					d[i][j] = d[i][k] + d[k][j]
				}
			}
		}
	}
	return d
}

func TestKMedianAndKCenterReductions(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	for it := 0; it < 10; it++ {
		n := 3 + rng.Intn(3)
		k := 1 + rng.Intn(2)
		d := randomMetric(n, rng)
		if err := d.Validate(); err != nil {
			t.Fatal(err)
		}
		var dmax graph.Cost
		for i := range d {
			for j := range d[i] {
				if d[i][j] > dmax {
					dmax = d[i][j]
				}
			}
		}
		// N large enough that k+1 materializations are infeasible while
		// k materializations plus any edge set fit.
		bigN := graph.Cost(n)*dmax + 1
		red, err := ClusterToVersioning(d, k, bigN)
		if err != nil {
			t.Fatal(err)
		}
		s := graph.Cost(k)*bigN + graph.Cost(n)*dmax
		msr, err := bruteforce.SolveMSR(red.G, s, 0)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		if want := ExactKMedian(d, k); msr.Cost.SumRetrieval != want {
			t.Fatalf("it %d: MSR %d, k-median %d", it, msr.Cost.SumRetrieval, want)
		}
		mmr, err := bruteforce.SolveMMR(red.G, s, 0)
		if err != nil {
			t.Fatalf("it %d: %v", it, err)
		}
		if want := ExactKCenter(d, k); mmr.Cost.MaxRetrieval != want {
			t.Fatalf("it %d: MMR %d, k-center %d", it, mmr.Cost.MaxRetrieval, want)
		}
	}
}

func TestMetricValidate(t *testing.T) {
	bad := Metric{{0, 1}, {1, 0, 0}}
	if bad.Validate() == nil {
		t.Fatal("non-square metric accepted")
	}
	diag := Metric{{1}}
	if diag.Validate() == nil {
		t.Fatal("nonzero diagonal accepted")
	}
	tri := Metric{{0, 1, 5}, {1, 0, 1}, {5, 1, 0}}
	if tri.Validate() == nil {
		t.Fatal("triangle violation accepted")
	}
}

func TestSubsetSumSolver(t *testing.T) {
	ss := SubsetSum{Values: []graph.Cost{3, 5, 7}, Target: 11}
	if got := ss.Solve(); got != 10 {
		t.Fatalf("subset sum = %d, want 10", got)
	}
	none := SubsetSum{Values: []graph.Cost{50}, Target: 11}
	if got := none.Solve(); got != 0 {
		t.Fatalf("subset sum = %d, want 0", got)
	}
}
