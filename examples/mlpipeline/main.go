// mlpipeline models the deep-learning scenario from the paper's
// introduction: a training corpus is repeatedly filtered, augmented and
// re-labeled, producing hundreds of dataset versions that are far too
// large to all keep materialized. The example traces the whole
// storage/retrieval trade-off with one DP-MSR run, then picks plans for
// three storage budgets and reports what each saves versus storing every
// version.
package main

import (
	"fmt"
	"log"

	"repro/internal/repogen"
	"repro/versioning"
)

func main() {
	// 180 dataset versions, ~2 GB each, with deltas around 3% of a
	// version (filter/augment steps touch a fraction of the records).
	g := repogen.Generate(repogen.Spec{
		Name:         "training-corpus",
		Commits:      180,
		ExtraBiEdges: 30,
		AvgNodeCost:  2_000_000_000,
		AvgDeltaCost: 60_000_000,
		BranchProb:   0.3, // experiments fork aggressively
		Seed:         2024,
	})
	everything := g.TotalNodeStorage()
	fmt.Printf("%d dataset versions; materializing all of them costs %.1f TB.\n",
		g.N(), tb(everything))

	pts, err := versioning.MSRFrontier(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nStorage/retrieval frontier (%d Pareto points from one DP-MSR run):\n", len(pts))
	step := len(pts)/8 + 1
	for i := 0; i < len(pts); i += step {
		p := pts[i]
		fmt.Printf("  store %7.3f TB  →  total retrieval work %8.3f TB (%.1f%% of full storage)\n",
			tb(p.Storage), tb(p.Objective), 100*float64(p.Storage)/float64(everything))
	}

	fmt.Println("\nPicking plans for three budgets:")
	for _, frac := range []int64{5, 15, 40} {
		budget := everything * frac / 100
		sol, err := versioning.SolveMSR(g, budget, versioning.Options{Algorithm: versioning.AlgDPTree})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %2d%% budget: materialize %3d/%d versions, storage %7.3f TB, avg retrieval %7.1f MB/version\n",
			frac, len(sol.Plan.MaterializedNodes()), g.N(), tb(sol.Cost.Storage),
			float64(sol.Cost.SumRetrieval)/float64(g.N())/1e6)
	}
}

func tb(c versioning.Cost) float64 { return float64(c) / 1e12 }
