package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/portfolio"
	"repro/internal/repogen"
	"repro/versioning"
)

// algorithms maps the registry's families to the public constants.
var algorithms = map[string]versioning.Algorithm{
	"auto": versioning.Auto, "lmg": versioning.AlgLMG, "lmg-all": versioning.AlgLMGAll,
	"dp": versioning.AlgDPTree, "mp": versioning.AlgMP,
}

var regimes = []core.Problem{core.ProblemMSR, core.ProblemMMR, core.ProblemBSR, core.ProblemBMR}

// fixture writes a small content-backed graph to a temp file and returns
// it with a constraint per regime that every member can meet: twice the
// minimum storage for the budgeted regimes, a third of the
// minimum-storage plan's Σ R and max R for the bounded ones.
func fixture(t *testing.T) (path string, g *versioning.Graph, constraint map[core.Problem]versioning.Cost) {
	t.Helper()
	g = repogen.GenerateRepo("dsvsolve-test", 8, 2).Graph
	path = filepath.Join(t.TempDir(), "graph.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Write(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	mst, err := versioning.MinStoragePlan(g)
	if err != nil {
		t.Fatal(err)
	}
	return path, g, map[core.Problem]versioning.Cost{
		core.ProblemMSR: 2 * mst.Cost.Storage,
		core.ProblemMMR: 2 * mst.Cost.Storage,
		core.ProblemBSR: mst.Cost.SumRetrieval / 3,
		core.ProblemBMR: mst.Cost.MaxRetrieval / 3,
	}
}

// families lists what -algo accepts for p: auto plus the registry's.
func families(p core.Problem) []string {
	out := []string{"auto"}
	for _, s := range portfolio.DefaultRegistry(p) {
		out = append(out, s.Family)
	}
	return out
}

func dsvsolve(args ...string) (string, error) {
	var out bytes.Buffer
	err := run(args, &out)
	return out.String(), err
}

// printedCost reads the three cost lines of the human-readable output.
func printedCost(t *testing.T, out string) (c versioning.PlanCost) {
	t.Helper()
	for label, dst := range map[string]*versioning.Cost{
		"storage:": &c.Storage, "sum retrieval:": &c.SumRetrieval, "max retrieval:": &c.MaxRetrieval,
	} {
		_, rest, ok := strings.Cut(out, "\n"+label)
		if !ok {
			t.Fatalf("no %q line in:\n%s", label, out)
		}
		if _, err := fmt.Sscan(rest, dst); err != nil {
			t.Fatalf("%q line: %v in:\n%s", label, err, out)
		}
	}
	return c
}

func solveX(g *versioning.Graph, p core.Problem, c versioning.Cost, opt versioning.Options) (versioning.Solution, error) {
	switch p {
	case core.ProblemMSR:
		return versioning.SolveMSR(g, c, opt)
	case core.ProblemMMR:
		return versioning.SolveMMR(g, c, opt)
	case core.ProblemBSR:
		return versioning.SolveBSR(g, c, opt)
	default:
		return versioning.SolveBMR(g, c, opt)
	}
}

// TestAlgoSelectsTheRegistryMember pins -algo to the solver table in all
// four regimes: the printed costs are versioning.SolveXXX's for the same
// family, and -algo is read where members differ.
func TestAlgoSelectsTheRegistryMember(t *testing.T) {
	path, g, constraint := fixture(t)
	costs := map[string]versioning.PlanCost{}
	for _, p := range regimes {
		for _, fam := range families(p) {
			out, err := dsvsolve("-in", path, "-problem", p.String(), "-constraint", fmt.Sprint(constraint[p]), "-algo", fam)
			if err != nil {
				t.Fatalf("%s -algo %s: %v", p, fam, err)
			}
			want, err := solveX(g, p, constraint[p], versioning.Options{Algorithm: algorithms[fam]})
			if err != nil {
				t.Fatalf("versioning %s %s: %v", p, fam, err)
			}
			got := printedCost(t, out)
			got.Feasible = true
			if got != want.Cost {
				t.Errorf("%s -algo %s printed %+v, versioning.Solve%s gives %+v", p, fam, got, p, want.Cost)
			}
			costs[p.String()+"/"+fam] = got
		}
	}
	if costs["BSR/lmg-all"] == costs["BSR/dp"] {
		t.Errorf("BSR: -algo lmg-all and -algo dp both print %+v; -algo is not read", costs["BSR/dp"])
	}
	if costs["MMR/mp"] == costs["MMR/dp"] {
		t.Errorf("MMR: -algo mp and -algo dp both print %+v; -algo is not read", costs["MMR/dp"])
	}
}

// TestUnknownFamilyNamesTheOffer checks a family that does not solve the
// problem is an error listing the ones that do: mp for BSR, and ilp,
// which no regime has.
func TestUnknownFamilyNamesTheOffer(t *testing.T) {
	path, _, constraint := fixture(t)
	for _, tc := range []struct {
		problem     core.Problem
		algo, offer string
	}{
		{core.ProblemBSR, "bogus", "dp, lmg-all"},
		{core.ProblemBSR, "mp", "dp, lmg-all"},
		{core.ProblemMSR, "ilp", "lmg, lmg-all, dp"},
	} {
		_, err := dsvsolve("-in", path, "-problem", tc.problem.String(), "-constraint", fmt.Sprint(constraint[tc.problem]), "-algo", tc.algo)
		if err == nil || !strings.Contains(err.Error(), tc.offer) {
			t.Errorf("-problem %s -algo %s: err = %v, want one naming %s", tc.problem, tc.algo, err, tc.offer)
		}
	}
}

// TestInfeasibleIsOneMessage checks every member reports a constraint
// nothing meets as core.ErrInfeasible: a budget below any version for
// MSR / MMR, a negative bound for BSR / BMR.
func TestInfeasibleIsOneMessage(t *testing.T) {
	path, _, _ := fixture(t)
	for _, p := range regimes {
		c := "-1"
		if p == core.ProblemMSR || p == core.ProblemMMR {
			c = "10"
		}
		for _, fam := range families(p) {
			_, err := dsvsolve("-in", path, "-problem", p.String(), "-constraint", c, "-algo", fam)
			if err == nil || err.Error() != core.ErrInfeasible.Error() {
				t.Errorf("%s -constraint %s -algo %s: err = %v, want %q", p, c, fam, err, core.ErrInfeasible)
			}
		}
	}
}

// TestJSONAndPortfolioOutputs checks -json is a versioning.PlanSummary
// and -portfolio reports exactly the registry's members for the problem.
func TestJSONAndPortfolioOutputs(t *testing.T) {
	path, g, constraint := fixture(t)
	c := constraint[core.ProblemMSR]
	out, err := dsvsolve("-in", path, "-problem", "MSR", "-constraint", fmt.Sprint(c), "-json")
	if err != nil {
		t.Fatal(err)
	}
	var sum versioning.PlanSummary
	dec := json.NewDecoder(strings.NewReader(out))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&sum); err != nil {
		t.Fatalf("-json: %v in:\n%s", err, out)
	}
	want, err := versioning.SolveMSR(g, c, versioning.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Problem != "MSR" || sum.Constraint != c || sum.Versions != g.N() || !sum.Feasible ||
		sum.Storage != want.Cost.Storage || sum.SumRetrieval != want.Cost.SumRetrieval {
		t.Errorf("-json summary %+v, want the plan of cost %+v", sum, want.Cost)
	}

	for _, p := range regimes {
		out, err := dsvsolve("-in", path, "-problem", p.String(), "-constraint", fmt.Sprint(constraint[p]), "-portfolio")
		if err != nil {
			t.Fatalf("%s -portfolio: %v", p, err)
		}
		var got, names []string
		table, _, _ := strings.Cut(out, "\nwinner:")
		for _, line := range strings.Split(table, "\n")[1:] {
			got = append(got, strings.Fields(line)[0])
		}
		for _, s := range portfolio.DefaultRegistry(p) {
			names = append(names, s.Name)
		}
		if strings.Join(got, " ") != strings.Join(names, " ") {
			t.Errorf("%s -portfolio lists %v, the registry holds %v", p, got, names)
		}
	}
}
