package experiments

import "testing"

// TestPortfolioComparisonShape runs the engine-backed comparison at a
// tiny scale and checks the panel structure: one series per raced solver
// plus the portfolio envelope, the ILP's OPT line on the datasharing MSR
// panel only, and the envelope never worse than any individual solver at
// the same sweep point.
func TestPortfolioComparisonShape(t *testing.T) {
	cfg := Default()
	cfg.Scale = 0.05
	cfg.SweepPoints = 3
	cfg.MaxILPNodes = 20 // the series must exist; TestFigure10 checks the OPT line
	out := PortfolioComparison(cfg)
	if len(out) != 4 {
		t.Fatalf("got %d panels, want 4", len(out))
	}
	for _, r := range out {
		if len(r.Series) < 3 { // Portfolio + at least two solvers
			t.Fatalf("%s %s: only %d series", r.Figure, r.Dataset, len(r.Series))
		}
		hasILP := false
		for _, s := range r.Series {
			hasILP = hasILP || s.Algorithm == "ILP"
		}
		if wantILP := r.Figure == "Portfolio (MSR race)" && r.Dataset == "datasharing"; hasILP != wantILP {
			t.Fatalf("%s %s: ILP series present = %v, want %v", r.Figure, r.Dataset, hasILP, wantILP)
		}
		if r.Series[0].Algorithm != "Portfolio" {
			t.Fatalf("%s %s: first series is %q", r.Figure, r.Dataset, r.Series[0].Algorithm)
		}
		env := r.Series[0].Points
		for _, s := range r.Series[1:] {
			if len(s.Points) != len(env) {
				t.Fatalf("%s %s: ragged series %s", r.Figure, r.Dataset, s.Algorithm)
			}
			for i, p := range s.Points {
				if p.Infeasible || p.Failed || env[i].Infeasible || env[i].Failed {
					continue
				}
				if p.Objective < env[i].Objective {
					t.Fatalf("%s %s: %s beats the portfolio envelope at point %d (%d < %d)",
						r.Figure, r.Dataset, s.Algorithm, i, p.Objective, env[i].Objective)
				}
			}
		}
	}
}
