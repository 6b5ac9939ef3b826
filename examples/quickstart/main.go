// Quickstart: build the paper's Figure 1 version graph by hand, inspect
// the trivial plans (materialize everything vs. minimum storage), and
// solve MinSum Retrieval under a storage budget with two algorithms.
package main

import (
	"fmt"
	"log"

	"repro/versioning"
)

func main() {
	// Figure 1 of the paper: five dataset versions; ⟨a, b⟩ annotations
	// are (storage cost, retrieval cost).
	g := versioning.NewGraph("figure1")
	v1 := g.AddNode(10000)
	v2 := g.AddNode(10100)
	v3 := g.AddNode(9700)
	v4 := g.AddNode(9800)
	v5 := g.AddNode(10120)
	g.AddEdge(v1, v2, 200, 200)
	g.AddEdge(v1, v3, 1000, 3000)
	g.AddEdge(v2, v4, 50, 400)
	g.AddEdge(v2, v5, 800, 2500)
	g.AddEdge(v3, v5, 200, 550)

	all := g.TotalNodeStorage()
	fmt.Printf("Materializing all versions costs %d and retrieves everything instantly.\n", all)

	mst, err := versioning.MinStoragePlan(g)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Minimum storage plan: storage=%d, total retrieval=%d (Figure 1(iii)).\n",
		mst.Cost.Storage, mst.Cost.SumRetrieval)

	// Give the optimizer 75%% more storage than the minimum and ask for
	// the best total retrieval.
	budget := mst.Cost.Storage * 7 / 4
	fmt.Printf("\nMinSum Retrieval under storage budget %d:\n", budget)
	for _, a := range []struct {
		name string
		algo versioning.Algorithm
	}{
		{"LMG-All (Section 6.1)", versioning.AlgLMGAll},
		{"DP-MSR (Section 6.2)", versioning.AlgDPTree},
	} {
		sol, err := versioning.SolveMSR(g, budget, versioning.Options{Algorithm: a.algo})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s storage=%6d  ΣR=%6d  maxR=%6d  materialized=%v\n",
			a.name, sol.Cost.Storage, sol.Cost.SumRetrieval, sol.Cost.MaxRetrieval,
			sol.Plan.MaterializedNodes())
	}
}
