package portfolio

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/lmg"
	"repro/internal/repogen"
)

// TestLMGNeverBeatsTheMSRRace is the evidence for leaving LMG out of the
// MSR line-up: on Table 4 graphs at 1, 1.5, 2 and 3× the min storage,
// lmg.LMG's Σ R is never below the race's winner. The comparison is with
// the winner, not with LMG-All alone: on datasharing at 1.5× LMG beats
// LMG-All and loses to DP-MSR. 996.ICU, whose DP-MSR rows take the
// longest, runs unless -short.
func TestLMGNeverBeatsTheMSRRace(t *testing.T) {
	datasets := []string{"datasharing", "styleguide", "LeetCodeAnimation"}
	if !testing.Short() {
		datasets = append(datasets, "996.ICU")
	}
	e := New(Options{})
	ctx := context.Background()
	for _, name := range datasets {
		g, err := repogen.Dataset(name)
		if err != nil {
			t.Fatal(err)
		}
		mst, err := core.MST(ctx, g)
		if err != nil {
			t.Fatal(err)
		}
		for _, times := range []float64{1, 1.5, 2, 3} {
			s := graph.Cost(times * float64(mst.Cost.Storage))
			res, err := e.Solve(ctx, g, core.ProblemMSR, s)
			if err != nil {
				t.Fatalf("%s at %g×: race: %v", name, times, err)
			}
			l, err := lmg.LMG(ctx, g, s)
			if err != nil {
				t.Fatalf("%s at %g×: LMG: %v", name, times, err)
			}
			if won := res.Solution.Cost.SumRetrieval; l.Cost.SumRetrieval < won {
				t.Errorf("%s at %g×: LMG reaches Σ R %d, below the race's winner %s at %d", name, times, l.Cost.SumRetrieval, res.Winner, won)
			}
		}
	}
}
