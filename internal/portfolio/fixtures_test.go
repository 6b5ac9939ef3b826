package portfolio

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/bruteforce"
	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/reductions"
)

// TestAdversarialFixtures races the default registry on the paper's
// hardness constructions (Section 3): every member's plan is valid and
// within the constraint, the winner is the best of the reports and never
// beats the exact optimum. On Theorem 1's chains both greedies end a
// factor c/b from the optimum and DP-MSR — the chain is a tree — is the
// member that rescues the race.
func TestAdversarialFixtures(t *testing.T) {
	type fixture struct {
		name       string
		g          *graph.Graph
		problem    core.Problem
		constraint graph.Cost
		gap        graph.Cost // Theorem 1's c/b; 0 on the other constructions
	}
	var fixtures []fixture
	for _, ratio := range []graph.Cost{4, 16, 64} {
		g, s := reductions.AdversarialLMG(1_000_000*ratio, ratio, ratio*ratio)
		fixtures = append(fixtures, fixture{fmt.Sprintf("theorem1/%d", ratio), g, core.ProblemMSR, s, ratio})
	}
	sc, err := reductions.SetCoverToBMR(reductions.SetCover{NumElements: 4, Sets: [][]int{{0, 1}, {2, 3}, {0, 2}, {1, 3}}}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	fixtures = append(fixtures, fixture{"setcover", sc.G, core.ProblemBMR, 1, 0})
	ss := reductions.SubsetSumToMSR(reductions.SubsetSum{Values: []graph.Cost{7, 5, 4, 3}, Target: 9}, 10_000)
	fixtures = append(fixtures, fixture{"subsetsum", ss.G, core.ProblemMSR, ss.Constraint, 0})

	oracle := map[core.Problem]func(*graph.Graph, graph.Cost, int64) (core.Solution, error){
		core.ProblemMSR: bruteforce.SolveMSR, core.ProblemBMR: bruteforce.SolveBMR,
	}
	e := New(Options{})
	ctx := context.Background()
	for _, f := range fixtures {
		t.Run(f.name, func(t *testing.T) {
			opt, err := oracle[f.problem](f.g, f.constraint, 0)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.Solve(ctx, f.g, f.problem, f.constraint)
			if err != nil {
				t.Fatal(err)
			}
			objective := map[string]graph.Cost{}
			for i, s := range DefaultRegistry(f.problem) {
				rep := res.Reports[i]
				if rep.Solver != s.Name || rep.Err != nil {
					t.Fatalf("report %d = %+v, want a plan from %s", i, rep, s.Name)
				}
				sol, err := s.Solve(ctx, f.g, f.constraint)
				if err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if err := sol.Plan.Validate(f.g); err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if err := checkConstraint(f.problem, f.constraint, sol.Cost); err != nil {
					t.Fatalf("%s: %v", s.Name, err)
				}
				if sol.Cost != rep.Cost {
					t.Fatalf("%s: raced to %+v, alone to %+v", s.Name, rep.Cost, sol.Cost)
				}
				objective[s.Name] = Objective(f.problem, rep.Cost)
			}
			best, exact := Objective(f.problem, res.Solution.Cost), Objective(f.problem, opt.Cost)
			if best != objective[res.Winner] || best < exact {
				t.Fatalf("winner %s at %d, its report %d, the optimum %d", res.Winner, best, objective[res.Winner], exact)
			}
			for name, o := range objective {
				if o < best {
					t.Fatalf("%s (%d) beats the winner %s (%d)", name, o, res.Winner, best)
				}
			}
			t.Logf("winner %s, objectives %v, optimum %d", res.Winner, objective, exact)
			if f.gap == 0 {
				return
			}
			for _, greedy := range []string{"LMG", "LMG-All"} {
				if objective[greedy] != f.gap*exact {
					t.Errorf("%s ends at Σ R = %d, want c/b = %d times the optimum %d", greedy, objective[greedy], f.gap, exact)
				}
			}
			if res.Winner != "DP-MSR" || best != exact {
				t.Errorf("winner %s at %d, want DP-MSR at the optimum %d", res.Winner, best, exact)
			}
		})
	}
}
