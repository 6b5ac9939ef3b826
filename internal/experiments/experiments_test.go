package experiments

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/graph"
)

func tinyConfig() Config {
	return Config{Scale: 0.02, SweepPoints: 4, Epsilon: 0.2, MaxStates: 64}
}

func TestTable4(t *testing.T) {
	stats := Table4(tinyConfig())
	if len(stats) != 8 {
		t.Fatalf("%d dataset rows, want 8", len(stats))
	}
	for _, s := range stats {
		if s.Nodes == 0 || s.Edges == 0 {
			t.Fatalf("empty dataset %q", s.Name)
		}
	}
	table := RenderStats(stats)
	for _, name := range []string{"datasharing", "styleguide", "996.ICU", "freeCodeCamp", "LeetCode (1)"} {
		if !strings.Contains(table, name) {
			t.Fatalf("table missing %s:\n%s", name, table)
		}
	}
}

func checkSweep(t *testing.T, results []Result, algorithms ...string) {
	t.Helper()
	if len(results) == 0 {
		t.Fatal("no results")
	}
	for _, r := range results {
		if len(r.Series) < len(algorithms) {
			t.Fatalf("%s/%s: %d series, want ≥ %d", r.Figure, r.Dataset, len(r.Series), len(algorithms))
		}
		for _, want := range algorithms {
			found := false
			for _, s := range r.Series {
				if s.Algorithm == want {
					found = true
					// Objectives must be monotone non-increasing for
					// exact/frontier methods... at minimum, finite at the
					// loosest constraint.
					last := s.Points[len(s.Points)-1]
					if last.Infeasible {
						t.Fatalf("%s/%s/%s: infeasible at loosest constraint", r.Figure, r.Dataset, want)
					}
					if last.Failed {
						t.Fatalf("%s/%s/%s: failed at loosest constraint", r.Figure, r.Dataset, want)
					}
				}
			}
			if !found {
				t.Fatalf("%s/%s: missing series %s", r.Figure, r.Dataset, want)
			}
		}
		if out := Render(r); !strings.Contains(out, r.Dataset) {
			t.Fatal("render missing dataset name")
		}
	}
}

func TestFigure10(t *testing.T) {
	checkSweep(t, Figure10(tinyConfig()), "LMG", "LMG-All", "DP-MSR")
}

func TestFigure11And12(t *testing.T) {
	checkSweep(t, Figure11(tinyConfig()), "LMG", "LMG-All", "DP-MSR")
	checkSweep(t, Figure12(tinyConfig()), "LMG", "LMG-All", "DP-MSR")
}

// TestMSRSweepNeverBeatsBruteforce runs msrSweep's LMG, LMG-All and
// DP-MSR series on Figure 1 and on seeded random graphs small enough for
// the bruteforce oracle, and checks that at every budget no series
// reports a total retrieval below the proven MSR optimum there.
func TestMSRSweepNeverBeatsBruteforce(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	graphs := []*graph.Graph{graph.Figure1()}
	for i := 0; i < 20; i++ {
		graphs = append(graphs, graph.Random(graph.RandomOptions{
			Nodes:       3 + rng.Intn(6),
			ExtraEdges:  rng.Intn(5),
			Bidirected:  i%2 == 0,
			MaxNodeCost: 400,
			MaxEdgeCost: 60,
		}, rng))
	}
	cfg := tinyConfig()
	cfg.SweepPoints = 6
	for gi, g := range graphs {
		r := msrSweep(g, cfg)
		if len(r.Series) != 3 {
			t.Fatalf("graph %d: %d series, want LMG, LMG-All and DP-MSR", gi, len(r.Series))
		}
		for i, budget := range r.Series[0].Points {
			opt, err := bruteforce.SolveMSR(g, budget.Constraint, 0)
			if err != nil {
				t.Fatalf("graph %d at %d: oracle: %v", gi, budget.Constraint, err)
			}
			for _, s := range r.Series {
				p := s.Points[i]
				if p.Failed {
					t.Fatalf("graph %d: %s failed at budget %d", gi, s.Algorithm, p.Constraint)
				}
				if !p.Infeasible && p.Objective < opt.Cost.SumRetrieval {
					t.Fatalf("graph %d: %s reports %d at budget %d, below the optimum %d",
						gi, s.Algorithm, p.Objective, p.Constraint, opt.Cost.SumRetrieval)
				}
			}
		}
	}
}

func TestFigure13(t *testing.T) {
	results := Figure13(tinyConfig())
	checkSweep(t, results, "MP", "DP-BMR")
	for _, r := range results {
		var dp *Series
		for i := range r.Series {
			if r.Series[i].Algorithm == "DP-BMR" {
				dp = &r.Series[i]
			}
		}
		// DP-BMR objective must decrease monotonically in the constraint
		// (Section 7.3 observation).
		prev := graph.Infinite
		for _, p := range dp.Points {
			if p.Infeasible {
				t.Fatal("DP-BMR infeasible inside sweep")
			}
			if p.Objective > prev {
				t.Fatalf("%s: DP-BMR not monotone", r.Dataset)
			}
			prev = p.Objective
		}
	}
}

// TestPoint checks how a solver's error becomes a sweep point: none gives
// the objective, core.ErrInfeasible (wrapped or not) Infeasible, and any
// other error, a deadline say, Failed.
func TestPoint(t *testing.T) {
	for _, c := range []struct {
		err  error
		want Point
	}{
		{nil, Point{Constraint: 5, Objective: 7, Millis: 1}},
		{core.ErrInfeasible, Point{Constraint: 5, Millis: 1, Infeasible: true}},
		{fmt.Errorf("lmg: %w", core.ErrInfeasible), Point{Constraint: 5, Millis: 1, Infeasible: true}},
		{context.DeadlineExceeded, Point{Constraint: 5, Millis: 1, Failed: true}},
	} {
		if got := point(5, 7, 1, c.err); got != c.want {
			t.Fatalf("point(err %v) = %+v, want %+v", c.err, got, c.want)
		}
	}
}

func TestTheorem1Experiment(t *testing.T) {
	rows := Theorem1([]graph.Cost{10, 50})
	if len(rows) != 2 {
		t.Fatalf("%d rows", len(rows))
	}
	for _, r := range rows {
		if r.LMGOverOPT != r.Ratio {
			t.Fatalf("ratio %d: LMG/OPT = %d", r.Ratio, r.LMGOverOPT)
		}
		if !r.DPMSRMatches {
			t.Fatalf("ratio %d: DP-MSR missed the optimum on a chain", r.Ratio)
		}
	}
	if out := RenderTheorem1(rows); !strings.Contains(out, "LMG/OPT") {
		t.Fatal("render broken")
	}
}

func TestTreewidths(t *testing.T) {
	rows := Treewidths(tinyConfig())
	if len(rows) < 4 {
		t.Fatalf("%d treewidth rows", len(rows))
	}
	for _, r := range rows {
		if r.MinDegree < r.LowerBound || r.MinFill < r.LowerBound {
			t.Fatalf("%s: heuristic width below lower bound", r.Dataset)
		}
		if r.MinDegree > 16 {
			t.Fatalf("%s: width %d too high for a version graph", r.Dataset, r.MinDegree)
		}
	}
	if out := RenderTreewidths(rows); !strings.Contains(out, "min-fill") {
		t.Fatal("render broken")
	}
}

func TestSweepAndWinner(t *testing.T) {
	pts := sweep(0, 100, 5)
	if len(pts) != 5 || pts[0] != 0 || pts[4] != 100 {
		t.Fatalf("sweep = %v", pts)
	}
	r := Result{Series: []Series{
		{Algorithm: "A", Points: []Point{{Objective: 10}}},
		{Algorithm: "B", Points: []Point{{Objective: 5}}},
	}}
	if Winner(r) != "B" {
		t.Fatal("winner wrong")
	}
	// A failed point has no objective, so it wins nothing.
	r.Series = append(r.Series, Series{Algorithm: "C", Points: []Point{{Failed: true}}})
	if Winner(r) != "B" {
		t.Fatal("a failed last point won")
	}
}
