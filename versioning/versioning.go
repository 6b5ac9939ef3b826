// Package versioning is the public API of the dataset-versioning library:
// a Go implementation of "To Store or Not to Store: a graph theoretical
// approach for Dataset Versioning" (Guo, Li, Sukprasert, Khuller,
// Deshpande, Mukherjee — IPPS 2024, arXiv:2402.11741).
//
// The model: versions of a dataset form a directed graph whose edges are
// deltas; every version either gets materialized (stored in full) or is
// reconstructed by applying stored deltas from a materialized version.
// The library optimizes the storage/retrieval trade-off in the four
// NP-hard regimes of the paper:
//
//   - MSR — minimize total retrieval cost under a storage budget,
//   - MMR — minimize maximum retrieval cost under a storage budget,
//   - BSR — minimize storage under a total-retrieval budget,
//   - BMR — minimize storage under a maximum-retrieval budget,
//
// using the paper's algorithms: the LMG baseline, the LMG-All greedy, the
// DP-MSR and DP-BMR tree dynamic programs applied through spanning-tree
// extraction, the MP baseline, and binary-search reductions between the
// bounded and min variants (Lemma 7).
//
// Quick start:
//
//	g := versioning.NewGraph("mydata")
//	v0 := g.AddNode(1000)              // materialization cost
//	v1 := g.AddNode(1100)
//	g.AddBiEdge(v0, v1, 50, 50)        // delta storage and retrieval cost
//	sol, err := versioning.SolveMSR(g, 1200, versioning.Options{})
//	// sol.Plan says which versions to materialize and which deltas to keep.
//
// The SolveXXX functions run one algorithm serially. The Engine runs the
// whole portfolio: it races every applicable solver concurrently with
// per-solver timeouts and returns the best feasible solution plus a
// per-solver report (see NewEngine). Both read one solver table, internal/portfolio's registry.
//
// The Repository executes plans instead of just computing them: a
// content-addressed storage runtime that commits real version contents
// (deltas weighed by Myers edit scripts), periodically re-plans through
// the Engine, migrates its stored objects to each winning plan, and
// reconstructs any version on Checkout — with LRU caching, singleflight
// deduplication and batch support. It runs on pluggable object backends
// (sharded memory by default, durable disk via Open + DataDir, which
// adds a write-ahead commit journal replayed on restart) and splits its
// locking so checkouts and stats never wait on re-plans (see
// NewRepository and Open, and cmd/dsvd for the HTTP serving daemon).
//
// Version content is a []string of lines, and two conventions make real
// repository histories first-class. CommitMerge records a version with
// several parents — the first parent carries the stored forward delta,
// every further parent contributes an unstored candidate edge pair
// weighted by a real Myers diff, journaled alongside the node so a
// later re-plan may store any of them. And a version whose lines form a
// manifest (EncodeManifest / ParseManifest: a magic first line, then
// path-sorted per-file sections) represents a whole file tree in one
// version; FilterManifest narrows such a checkout to one file or
// directory subtree. internal/gitimport builds both from a real git
// history, and cmd/dsvimport ships them end to end.
package versioning

import (
	"context"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/dptree"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/portfolio"
	"repro/internal/repogen"
)

// Re-exported model types. A Graph is a version graph; a Plan is a
// storage plan (materialized versions + stored deltas); PlanCost
// summarizes a plan's storage, total retrieval and maximum retrieval.
type (
	Graph    = graph.Graph
	Cost     = graph.Cost
	NodeID   = graph.NodeID
	EdgeID   = graph.EdgeID
	Plan     = plan.Plan
	PlanCost = plan.Cost
	Repo     = repogen.Repo
)

// Solution is a solver outcome: the plan and its evaluated cost.
type Solution = core.Solution

// ErrInfeasible reports that no plan satisfies the requested constraint.
var ErrInfeasible = core.ErrInfeasible

// NewGraph returns an empty named version graph.
func NewGraph(name string) *Graph { return graph.New(name) }

// ReadGraph parses the JSON graph format (see Graph.Write).
func ReadGraph(r io.Reader) (*Graph, error) { return graph.Read(r) }

// Evaluate computes the cost summary of a plan.
func Evaluate(g *Graph, p *Plan) PlanCost { return plan.Evaluate(g, p) }

// Algorithm selects a solver family from the portfolio registry.
type Algorithm int

// Available algorithms. Auto follows the paper's Section 7.4
// recommendation: LMG-All for MSR on general graphs, the tree DPs for
// BMR/MMR/BSR.
const (
	Auto Algorithm = iota
	AlgLMG
	AlgLMGAll
	AlgDPTree
	AlgMP
)

// family is the name the registry knows the algorithm by.
func (a Algorithm) family() string {
	names := [...]string{"auto", "lmg", "lmg-all", "dp", "mp"}
	if a < 0 || int(a) >= len(names) {
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
	return names[a]
}

// Options selects the solver. DP-MSR runs at dptree.DefaultMSROptions,
// as it does in the race.
type Options struct {
	Algorithm Algorithm
}

// solve runs the registry member opt.Algorithm names for problem p; an
// algorithm that does not solve p is an error.
func solve(g *Graph, p Problem, constraint Cost, opt Options) (Solution, error) {
	m, err := portfolio.Member(p, opt.Algorithm.family())
	if err != nil {
		return Solution{}, err
	}
	return m.Solve(context.Background(), g, constraint)
}

// MinStoragePlan solves Problem 1 (Table 1): the cheapest plan keeping
// every version retrievable.
func MinStoragePlan(g *Graph) (Solution, error) { return core.MST(context.Background(), g) }

// ShortestPathPlan solves Problem 2: materialize root and store the
// shortest-retrieval-path tree from it.
func ShortestPathPlan(g *Graph, root NodeID) (Solution, error) { return core.SPT(g, root) }

// SolveMSR minimizes total retrieval cost subject to storage ≤ s.
func SolveMSR(g *Graph, s Cost, opt Options) (Solution, error) {
	return solve(g, ProblemMSR, s, opt)
}

// SolveBMR minimizes storage subject to max retrieval ≤ r.
func SolveBMR(g *Graph, r Cost, opt Options) (Solution, error) {
	return solve(g, ProblemBMR, r, opt)
}

// SolveMMR minimizes the maximum retrieval cost subject to storage ≤ s,
// via the Lemma 7 binary search over the BMR solver opt names.
func SolveMMR(g *Graph, s Cost, opt Options) (Solution, error) {
	return solve(g, ProblemMMR, s, opt)
}

// SolveBSR minimizes storage subject to total retrieval ≤ r, via the
// Lemma 7 binary search over the MSR solver opt names (Auto: DP-MSR).
// The search is a heuristic: capped DP-MSR is not monotone in its budget
// (a larger budget can return a higher ΣR), so the bisection may stop
// above the least storage that meets r. ROADMAP.md, item 4.
func SolveBSR(g *Graph, r Cost, opt Options) (Solution, error) {
	return solve(g, ProblemBSR, r, opt)
}

// FrontierPoint is one (storage, total retrieval) trade-off sample.
type FrontierPoint = plan.FrontierPoint

// MSRFrontier traces the whole storage/retrieval trade-off curve in a
// single DP-MSR run (Section 7.2: "the DP algorithm returns a whole
// spectrum of solutions at once"), at dptree.DefaultMSROptions.
func MSRFrontier(g *Graph) ([]FrontierPoint, error) {
	dp, err := dptree.MSRFrontierOnGraph(context.Background(), g, dptree.DefaultMSROptions())
	if err != nil {
		return nil, err
	}
	return dp.Frontier().Points, nil
}

// Dataset generates one of the paper's Table 4 datasets by name
// (datasharing, styleguide, 996.ICU, LeetCodeAnimation, freeCodeCamp).
func Dataset(name string) (*Graph, error) { return repogen.Dataset(name) }

// GenerateRepo builds a content-backed synthetic repository whose deltas
// are weighted by real line diffs; Repo.Checkout reconstructs any version
// under a plan.
func GenerateRepo(name string, commits int, seed int64) *Repo {
	return repogen.GenerateRepo(name, commits, seed)
}
