// Benchmarks regenerating every table and figure of the paper's
// evaluation (Section 7), plus micro-benchmarks and the Section 6.2
// ablations. Run with:
//
//	go test -bench=. -benchmem
//
// Figure-level benchmarks execute the same sweeps as cmd/dsvbench at a
// reduced scale: the datasets are repogen's synthetic stand-ins for the
// paper's GitHub repositories, and every dataset but datasharing keeps
// its cost model but 5 % of its Table 4 commits (at least 24) and extra
// deltas; the reported metric is the wall time to regenerate the whole
// panel set.
package repro_test

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/dptree"
	"repro/internal/experiments"
	"repro/internal/gitpack"
	"repro/internal/graph"
	"repro/internal/graphalg"
	"repro/internal/lmg"
	"repro/internal/mp"
	"repro/internal/plan"
	"repro/internal/portfolio"
	"repro/internal/repogen"
	"repro/internal/store"
	"repro/internal/treewidth"
	"repro/internal/wire"
	"repro/serve"
	"repro/versioning"
)

func benchConfig() experiments.Config {
	return experiments.Config{Scale: 0.05, SweepPoints: 5, Epsilon: 0.1, MaxStates: 128}
}

// BenchmarkTable4_Datasets regenerates the Table 4 dataset overview.
func BenchmarkTable4_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		stats := experiments.Table4(benchConfig())
		if len(stats) != 8 {
			b.Fatal("wrong dataset count")
		}
	}
}

// BenchmarkFigure10_MSRNatural regenerates Figure 10 (LMG vs LMG-All vs
// DP-MSR on natural graphs).
func BenchmarkFigure10_MSRNatural(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Figure10(benchConfig())) == 0 {
			b.Fatal("no panels")
		}
	}
}

// BenchmarkFigure11_MSRCompressed regenerates Figure 11 (MSR on
// randomly-compressed graphs).
func BenchmarkFigure11_MSRCompressed(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Figure11(benchConfig())) == 0 {
			b.Fatal("no panels")
		}
	}
}

// BenchmarkFigure12_MSRER regenerates Figure 12 (MSR on compressed
// Erdős–Rényi graphs).
func BenchmarkFigure12_MSRER(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Figure12(benchConfig())) == 0 {
			b.Fatal("no panels")
		}
	}
}

// BenchmarkFigure13_BMRNatural regenerates Figure 13 (MP vs DP-BMR).
func BenchmarkFigure13_BMRNatural(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Figure13(benchConfig())) == 0 {
			b.Fatal("no panels")
		}
	}
}

// BenchmarkTheorem1_LMGAdversarial regenerates the Theorem 1 table.
func BenchmarkTheorem1_LMGAdversarial(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := experiments.Theorem1([]graph.Cost{10, 30, 100})
		for _, r := range rows {
			if r.LMGOverOPT != r.Ratio {
				b.Fatal("theorem 1 violated")
			}
		}
	}
}

// BenchmarkTreewidth_Datasets regenerates the footnote-7 treewidth
// measurements.
func BenchmarkTreewidth_Datasets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if len(experiments.Treewidths(benchConfig())) == 0 {
			b.Fatal("no rows")
		}
	}
}

// --- micro-benchmarks over the styleguide-scale dataset ---

func styleguideScaled() *graph.Graph {
	return repogen.Generate(repogen.Spec{
		Name: "styleguide-250", Commits: 250, ExtraBiEdges: 66,
		AvgNodeCost: 1_400_000, AvgDeltaCost: 8659, BranchProb: 0.2, Seed: 1002,
	})
}

// BenchmarkEdmonds measures the minimum-arborescence substrate every
// heuristic initializes from, on the extended graph with storage weights:
// styleguide's profile at 250 commits, and a fork-heavy history of 2,000
// versions (forkGraph), whose contraction nests a cycle per level.
func BenchmarkEdmonds(b *testing.B) {
	for _, c := range []struct {
		name string
		g    func() *graph.Graph
	}{
		{"graph=styleguide", styleguideScaled},
		{"graph=fork/versions=2000", func() *graph.Graph { return forkGraph(2000) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			x := graph.Extend(c.g())
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, err := graphalg.MinArborescence(x.Graph, x.Aux, graphalg.StorageWeight); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// forkGraph is the version graph a repository builds from the fork-heavy
// history of the given size (replanPassCase.history with fork set): each
// version costs its byte size stored whole, and each commit adds the
// Myers deltas to and from its parent.
func forkGraph(versions int) *graph.Graph {
	parents, contents := replanPassCase{versions: versions, lines: 200, edits: 10, fork: true}.history()
	g := graph.New("fork")
	for v, lines := range contents {
		g.AddNode(diff.ByteSize(lines))
		if p := parents[v]; p != versioning.NoParent {
			fwd, rev := diff.Compute(contents[p], lines).StorageCost(), diff.Compute(lines, contents[p]).StorageCost()
			g.AddEdge(p, graph.NodeID(v), fwd, fwd)
			g.AddEdge(graph.NodeID(v), p, rev, rev)
		}
	}
	return g
}

// BenchmarkLMG measures Algorithm 1 on the five Table 4 profiles at
// 1.5× the min-storage arborescence, freeCodeCamp's 31,270 versions
// included.
func BenchmarkLMG(b *testing.B) { benchGreedy(b, lmg.LMG) }

// BenchmarkLMGAll measures Algorithm 7 as BenchmarkLMG measures
// Algorithm 1. At freeCodeCamp's budget it is the run dsvd's 5 s
// deadline has to fit.
func BenchmarkLMGAll(b *testing.B) { benchGreedy(b, lmg.LMGAll) }

func benchGreedy(b *testing.B, solve func(context.Context, *graph.Graph, graph.Cost) (core.Solution, error)) {
	for _, name := range []string{"datasharing", "styleguide", "LeetCodeAnimation", "996.ICU", "freeCodeCamp"} {
		b.Run(name, func(b *testing.B) {
			g, err := repogen.Dataset(name)
			if err != nil {
				b.Fatal(err)
			}
			mst, err := core.MST(context.Background(), g)
			if err != nil {
				b.Fatal(err)
			}
			s := mst.Cost.Storage * 3 / 2
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := solve(context.Background(), g, s); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMP measures the BMR baseline.
func BenchmarkMP(b *testing.B) {
	g := styleguideScaled()
	r := g.MaxEdgeRetrieval() * 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mp.Solve(g, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPBMR measures the exact tree DP (Algorithm 2) end to end on
// the scaled styleguide graph at three times its largest delta retrieval:
// spanning-tree extraction, the DP over each version's retrieval ball and
// the reconstruction.
func BenchmarkDPBMR(b *testing.B) {
	g := styleguideScaled()
	r := g.MaxEdgeRetrieval() * 3
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dptree.BMROnGraph(context.Background(), g, r); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Section 6.2 ablations for DP-MSR ---

func benchDPMSR(b *testing.B, opt dptree.MSROptions) {
	g := styleguideScaled()
	opt.PruneStorage = -1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp, err := dptree.MSRFrontierOnGraph(context.Background(), g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dp.Best(g.TotalNodeStorage()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPMSR_LinearTicks is the paper's FPTAS discretization.
func BenchmarkDPMSR_LinearTicks(b *testing.B) {
	benchDPMSR(b, dptree.MSROptions{Epsilon: 0.1, MaxStates: 128})
}

// BenchmarkDPMSR_GeometricTicks is speedup 2 of Section 6.2.
func BenchmarkDPMSR_GeometricTicks(b *testing.B) {
	benchDPMSR(b, dptree.MSROptions{Epsilon: 0.1, Geometric: true, MaxStates: 128})
}

// BenchmarkDPMSR_WithStoragePruning is speedup 3 of Section 6.2 (prune
// at twice the minimum storage, the paper's uncompressed-graph setting).
func BenchmarkDPMSR_WithStoragePruning(b *testing.B) {
	g := styleguideScaled()
	mst, err := core.MST(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	minStorage := mst.Cost.Storage
	opt := dptree.MSROptions{Epsilon: 0.1, Geometric: true, MaxStates: 128, PruneStorage: 2 * minStorage}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dp, err := dptree.MSRFrontierOnGraph(context.Background(), g, opt)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := dp.Best(2 * minStorage); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDPMSR_Replan is what one MSR re-plan of dsvd waits for: a
// DP-MSR solve with the daemon's tuning, budget and prune bound at twice
// the minimum storage, on a content-backed history.
func BenchmarkDPMSR_Replan(b *testing.B) {
	for _, versions := range []int{256, 800} {
		b.Run(fmt.Sprintf("versions=%d", versions), func(b *testing.B) {
			g := repogen.GenerateRepo("replan", versions, 21).Graph
			mst, err := core.MST(context.Background(), g)
			if err != nil {
				b.Fatal(err)
			}
			minStorage := mst.Cost.Storage
			opt := dptree.DefaultMSROptions()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := dptree.MSROnGraph(context.Background(), g, 2*minStorage, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- portfolio-engine benchmarks ---

// BenchmarkPortfolio_MSRRace measures one full MSR race (LMG-All and
// DP-MSR concurrently).
func BenchmarkPortfolio_MSRRace(b *testing.B) {
	g := styleguideScaled()
	s := g.TotalNodeStorage() / 4
	e := portfolio.New(portfolio.Options{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(ctx, g, core.ProblemMSR, s); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPortfolio_BMRRace measures one full BMR race (MP, DP-BMR).
func BenchmarkPortfolio_BMRRace(b *testing.B) {
	g := styleguideScaled()
	r := g.MaxEdgeRetrieval() * 3
	e := portfolio.New(portfolio.Options{})
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Solve(ctx, g, core.ProblemBMR, r); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMyersDiff is the delta substrate's micro-baseline: Compute and
// Apply over a lines × edits grid, from the 30-line documents of the
// synthetic workloads to a history-read-sized manifest. Each edit
// replaces one line, so the edit distance is twice the edit count.
func BenchmarkMyersDiff(b *testing.B) {
	for _, cell := range []struct{ lines, edits int }{{30, 3}, {200, 10}, {1000, 50}, {4000, 200}} {
		rng := rand.New(rand.NewSource(5))
		a := make([]string, cell.lines)
		for i := range a {
			a[i] = fmt.Sprintf("dir%02d/file%05d %016x", i%37, i, rng.Uint64())
		}
		c := append([]string(nil), a...)
		for _, i := range rng.Perm(len(c))[:cell.edits] {
			c[i] = fmt.Sprintf("changed %d", i)
		}
		bytes := int64(diff.ByteSize(a) + diff.ByteSize(c))
		name := fmt.Sprintf("lines=%d/edits=%d", cell.lines, cell.edits)
		b.Run("compute/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				if d := diff.Compute(a, c); len(d.Cmds) == 0 {
					b.Fatal("empty script")
				}
			}
		})
		d := diff.Compute(a, c)
		b.Run("apply/"+name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(bytes)
			for i := 0; i < b.N; i++ {
				if _, err := d.Apply(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkManifestDiff is GET /diff's micro-baseline: the tree diff
// versioning.DiffManifest (tree/) against diff.Compute (compute/) over
// history-read-shaped manifests, 96 files of 30–50 lines of 48 bytes
// with 20–60 lines replaced, inserted or deleted in at most three files
// per step, 1, 4 and 8 steps apart. Every line is its own string, as the
// store hands them out, so an unchanged line costs a full compare. Run
// it at -cpu 1.
func BenchmarkManifestDiff(b *testing.B) {
	rng := rand.New(rand.NewSource(29))
	line := func() string { return fmt.Sprintf("%016x %016x %014x", rng.Uint64(), rng.Uint64(), rng.Uint64()>>8) }
	files := make([]versioning.ManifestEntry, 96)
	for i := range files {
		lines := make([]string, 30+rng.Intn(21))
		for k := range lines {
			lines[k] = line()
		}
		files[i] = versioning.ManifestEntry{Path: fmt.Sprintf("d%02d/f%03d.txt", i/8, i), Lines: lines}
	}
	distinct := func(lines []string) []string {
		out := make([]string, len(lines))
		for i, l := range lines {
			out[i] = strings.Clone(l)
		}
		return out
	}
	base := distinct(versioning.EncodeManifest(files))
	for step := 1; step <= 8; step++ {
		touched := [3]int{rng.Intn(len(files)), rng.Intn(len(files)), rng.Intn(len(files))}
		for e, n := 0, 20+rng.Intn(41); e < n; e++ {
			f := &files[touched[rng.Intn(len(touched))]]
			at := rng.Intn(len(f.Lines))
			switch p := rng.Float64(); {
			case p < 0.6:
				f.Lines[at] = line()
			case p < 0.85 || len(f.Lines) < 2:
				f.Lines = slices.Insert(f.Lines, at, line())
			default:
				f.Lines = slices.Delete(f.Lines, at, at+1)
			}
		}
		if step != 1 && step != 4 && step != 8 {
			continue
		}
		next := distinct(versioning.EncodeManifest(files))
		for _, k := range []struct {
			name string
			diff func(a, b []string) diff.Delta
		}{{"tree", versioning.DiffManifest}, {"compute", diff.Compute}} {
			b.Run(fmt.Sprintf("%s/steps=%d", k.name, step), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if d := k.diff(base, next); len(d.Cmds) < 2 {
						b.Fatal("no edit in the script")
					}
				}
			})
		}
	}
}

// BenchmarkTreeDecomposition measures the min-degree heuristic on the
// styleguide-scale graph.
func BenchmarkTreeDecomposition(b *testing.B) {
	g := styleguideScaled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := treewidth.Decompose(g, treewidth.MinDegree)
		if d.Width() < 1 {
			b.Fatal("degenerate width")
		}
	}
}

// BenchmarkGitPackWindow measures the git pack-objects window baseline
// (Section 1.2.3) on the styleguide-scale graph.
func BenchmarkGitPackWindow(b *testing.B) {
	g := styleguideScaled()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := gitpack.Solve(g, gitpack.Options{Window: 10}); !res.Cost.Feasible {
			b.Fatal("infeasible")
		}
	}
}

// benchRepository ingests a 160-commit content-backed history into a
// plan-executing Repository (MSR regime, re-plan every 40 commits).
func benchRepository(b *testing.B, cacheEntries int) (*versioning.Repository, *repogen.Repo) {
	return benchRepositoryOpt(b, versioning.RepositoryOptions{CacheEntries: cacheEntries, ReplanEvery: 40})
}

// benchCheckoutRepository is benchRepository's history with no re-plan
// cadence and one awaited Replan after the last commit: the same graph,
// so the same installed plan, and no background pass left running on a
// checkout benchmark's timer.
func benchCheckoutRepository(b *testing.B, opt versioning.RepositoryOptions) (*versioning.Repository, *repogen.Repo) {
	b.Helper()
	opt.ReplanEvery = -1
	repo, src := benchRepositoryOpt(b, opt)
	if err := repo.Replan(context.Background()); err != nil {
		b.Fatal(err)
	}
	return repo, src
}

func benchRepositoryOpt(b *testing.B, opt versioning.RepositoryOptions) (*versioning.Repository, *repogen.Repo) {
	b.Helper()
	src := repogen.GenerateRepo("bench-repo", 160, 7)
	opt.Problem = versioning.ProblemMSR
	repo, err := versioning.Open("bench-repo", opt)
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for v := 0; v < src.Graph.N(); v++ {
		if _, err := repo.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			b.Fatal(err)
		}
	}
	return repo, src
}

// BenchmarkRepositoryIngest measures Commit throughput end to end. The
// repogen case includes the Myers diffs and the periodic re-plan/
// migration cycles behind a 64-entry cache. The cold cases are the
// repository benchmark's replan-scale shape with every cache off and no
// re-plan, so each commit reads its parent through whatever the
// incremental layout holds: applies/commit is the delta applies those
// reads cost, storage/min-storage what the layout stores against the
// minimum-storage plan of the same graph.
func BenchmarkRepositoryIngest(b *testing.B) {
	b.Run("repogen", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			benchRepository(b, 64)
		}
	})
	for _, n := range []int{200, 800} {
		b.Run(fmt.Sprintf("cold/versions=%d", n), func(b *testing.B) {
			parents, contents := benchSmallHistory(n)
			ctx := context.Background()
			var applies int64
			var storage, minStorage versioning.Cost
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				repo := versioning.NewRepository("ingest-cold", versioning.RepositoryOptions{
					Problem:            versioning.ProblemMST,
					ReplanEvery:        -1,
					CacheEntries:       -1,
					MaintenanceWorkers: -1,
				})
				for v, lines := range contents {
					if _, err := repo.Commit(ctx, parents[v], lines); err != nil {
						b.Fatal(err)
					}
				}
				b.StopTimer()
				st := repo.Stats()
				applies += st.DeltaApplies
				storage = st.Storage
				if err := repo.Replan(ctx); err != nil {
					b.Fatal(err)
				}
				minStorage = repo.Stats().Storage
				repo.Close()
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/commit")
			b.ReportMetric(float64(applies)/float64(b.N*n), "applies/commit")
			b.ReportMetric(float64(storage)/float64(minStorage), "storage/min-storage")
		})
	}
}

// benchSmallHistory is n versions shaped like the repository benchmark's
// replan-scale corpus: 30 lines of 48 bytes, one to three lines
// rewritten per commit, and one commit in five forking off one of the 32
// versions before its predecessor.
func benchSmallHistory(n int) ([]versioning.NodeID, [][]string) {
	rng := rand.New(rand.NewSource(21))
	parents := []versioning.NodeID{versioning.NoParent}
	contents := [][]string{benchManifest(30)}
	for v := 1; v < n; v++ {
		p := v - 1
		if rng.Intn(5) == 0 {
			p -= rng.Intn(min(v, 32))
		}
		parents = append(parents, versioning.NodeID(p))
		contents = append(contents, benchEdit(rng, contents[p], v, 1+rng.Intn(3)))
	}
	return parents, contents
}

// BenchmarkRepositoryCheckout_Path measures cold checkouts: every call
// walks the plan's retrieval path and applies the stored edit scripts
// (the LRU is disabled).
func BenchmarkRepositoryCheckout_Path(b *testing.B) {
	repo, src := benchCheckoutRepository(b, versioning.RepositoryOptions{CacheEntries: -1})
	ctx := context.Background()
	n := src.Graph.N()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Checkout(ctx, versioning.NodeID(i%n)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRepositoryCheckout_Manifest is history-read's store layer:
// uncached checkouts of 64 manifests of 4,000 lines on the disk backend
// under one MSR plan, so each call fetches a materialized ancestor's
// chunks and applies the path's deltas. applies/op is the delta applies
// per checkout, which B/op and allocs/op are read against.
func BenchmarkRepositoryCheckout_Manifest(b *testing.B) {
	const versions = 64
	repo, err := versioning.Open("checkout-manifest", versioning.RepositoryOptions{
		DataDir:      b.TempDir(),
		Problem:      versioning.ProblemMSR,
		ReplanEvery:  -1,
		CacheEntries: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(17))
	contents := [][]string{benchManifest(4000)}
	if _, err := repo.Commit(ctx, versioning.NoParent, contents[0]); err != nil {
		b.Fatal(err)
	}
	for len(contents) < versions {
		contents = benchCommitEdit(b, repo, rng, contents, 40)
	}
	if err := repo.Replan(ctx); err != nil {
		b.Fatal(err)
	}
	before := repo.Stats().DeltaApplies
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := i % versions
		lines, err := repo.Checkout(ctx, versioning.NodeID(v))
		if err != nil || len(lines) != len(contents[v]) {
			b.Fatal(len(lines), err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(repo.Stats().DeltaApplies-before)/float64(b.N), "applies/op")
}

// BenchmarkRepositoryCheckout_CacheHit measures the LRU hit path.
func BenchmarkRepositoryCheckout_CacheHit(b *testing.B) {
	repo, src := benchCheckoutRepository(b, versioning.RepositoryOptions{CacheEntries: 256})
	ctx := context.Background()
	hot := versioning.NodeID(src.Graph.N() - 1)
	if _, err := repo.Checkout(ctx, hot); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := repo.Checkout(ctx, hot); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeCheckout_RespCacheHit is hot-read's serve layer: a
// GET /checkout/{id} of a 256-version repository that the
// encoded-response cache answers, through the real handler into a
// recorder.
func BenchmarkServeCheckout_RespCacheHit(b *testing.B) {
	src := repogen.GenerateRepo("bench-serve", 256, 7)
	repo := versioning.NewRepository("bench-serve", versioning.RepositoryOptions{ReplanEvery: -1})
	ctx := context.Background()
	for v := 0; v < src.Graph.N(); v++ {
		if _, err := repo.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
			b.Fatal(err)
		}
	}
	srv := serve.New(repo, serve.Options{})
	req := httptest.NewRequest(http.MethodGet, fmt.Sprintf("/checkout/%d", src.Graph.N()-1), nil)
	get := func() {
		w := httptest.NewRecorder()
		srv.ServeHTTP(w, req)
		if w.Code != http.StatusOK {
			b.Fatalf("GET %s: HTTP %d", req.URL, w.Code)
		}
	}
	get() // fill the response cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		get()
	}
}

// benchCheckoutParallel is the serving-daemon contention profile:
// b.RunParallel goroutines checking out random versions with Stats polls
// riding along. A small LRU keeps most checkouts on the reconstruction
// path, so the numbers expose lock contention, not cache hits.
func benchCheckoutParallel(b *testing.B, opt versioning.RepositoryOptions) {
	opt.CacheEntries = 16
	repo, src := benchCheckoutRepository(b, opt)
	ctx := context.Background()
	n := src.Graph.N()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(99))
		for pb.Next() {
			v := versioning.NodeID(rng.Intn(n))
			if _, err := repo.Checkout(ctx, v); err != nil {
				b.Fatal(err)
			}
			_ = repo.Stats()
		}
	})
}

// BenchmarkRepositoryCheckoutParallel runs on the default sharded
// in-memory backend with the lock-split read path.
func BenchmarkRepositoryCheckoutParallel(b *testing.B) {
	benchCheckoutParallel(b, versioning.RepositoryOptions{})
}

// BenchmarkRepositoryCheckoutParallel_SingleMutex is the contention
// baseline: the same traffic on a one-shard, single-mutex backend.
func BenchmarkRepositoryCheckoutParallel_SingleMutex(b *testing.B) {
	benchCheckoutParallel(b, versioning.RepositoryOptions{Backend: store.NewMemBackend()})
}

// BenchmarkRepositoryCheckoutParallel_Disk runs the same traffic on the
// durable disk backend (lazy reads + commit journal).
func BenchmarkRepositoryCheckoutParallel_Disk(b *testing.B) {
	benchCheckoutParallel(b, versioning.RepositoryOptions{DataDir: b.TempDir()})
}

// slowBackend models a high-latency store (networked disk, S3): every
// object read costs latency but no CPU, so even a single-core host
// overlaps concurrent reads — unless a lock is held across the I/O.
type slowBackend struct {
	store.Backend
	latency time.Duration
}

func (s slowBackend) Get(k store.Key) ([]byte, error) {
	time.Sleep(s.latency)
	return s.Backend.Get(k)
}

// BenchmarkStoreCheckoutDuringMigration_SlowBackend measures checkout
// latency on a 500µs-per-read backend while plan migrations run
// continuously. When reconstruction holds the store lock across backend
// reads, every migration's metadata swap must drain multi-read walks and
// queues later checkouts behind itself (writer-preferring RWMutex); with
// the snapshot-then-fetch checkout path no lock spans I/O, so migrations
// swap in microseconds and checkouts never stall behind them.
func BenchmarkStoreCheckoutDuringMigration_SlowBackend(b *testing.B) {
	g := graph.New("slow")
	var contents [][]string
	lines := []string{"base"}
	contents = append(contents, lines)
	g.AddNode(diff.ByteSize(lines))
	const versions = 24
	for i := 1; i < versions; i++ {
		next := append(append([]string(nil), contents[i-1]...), "l")
		contents = append(contents, next)
		fwd := diff.Compute(contents[i-1], next)
		rev := diff.Compute(next, contents[i-1])
		g.AddNode(diff.ByteSize(next))
		g.AddEdge(graph.NodeID(i-1), graph.NodeID(i), fwd.StorageCost(), fwd.StorageCost())
		g.AddEdge(graph.NodeID(i), graph.NodeID(i-1), rev.StorageCost(), rev.StorageCost())
	}
	content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }
	mst, err := core.MST(context.Background(), g)
	if err != nil {
		b.Fatal(err)
	}
	s := store.New(store.Options{
		Backend:      slowBackend{Backend: store.NewMemBackend(), latency: 500 * time.Microsecond},
		CacheEntries: -1, // force every checkout onto the reconstruction path
	})
	if err := s.Install(g, mst.Plan, content); err != nil {
		b.Fatal(err)
	}
	plans := []*plan.Plan{plan.MaterializeAll(g), mst.Plan}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Install(g, plans[i%2], content); err != nil {
				b.Error(err)
				return
			}
			time.Sleep(10 * time.Millisecond) // a realistic re-plan cadence
		}
	}()
	var mu sync.Mutex
	var maxNs int64
	ctx := context.Background()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(11))
		var localMax int64
		for pb.Next() {
			v := graph.NodeID(rng.Intn(versions))
			t0 := time.Now()
			if _, err := s.Checkout(ctx, v); err != nil {
				b.Fatal(err)
			}
			if d := time.Since(t0).Nanoseconds(); d > localMax {
				localMax = d
			}
		}
		mu.Lock()
		if localMax > maxNs {
			maxNs = localMax
		}
		mu.Unlock()
	})
	b.StopTimer()
	b.ReportMetric(float64(maxNs), "max-ns")
	close(stop)
	wg.Wait()
}

// BenchmarkRepositoryStatsDuringReplan measures read-path latency while
// re-plans and store migrations run continuously in the background — the
// case the lock-split Repository exists for. Under the old single mutex
// every Stats/Summary call blocked for a whole solver race plus
// migration; with commitMu/stateMu split they answer from the
// incrementally maintained state in nanoseconds.
func BenchmarkRepositoryStatsDuringReplan(b *testing.B) {
	repo, _ := benchRepository(b, 64)
	ctx := context.Background()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := repo.Replan(ctx); err != nil {
				b.Error(err)
				return
			}
		}
	}()
	// The mean hides the blocking: report the worst single poll too.
	var maxNs int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		_ = repo.Stats()
		_ = repo.Summary()
		if d := time.Since(t0).Nanoseconds(); d > maxNs {
			maxNs = d
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(maxNs), "max-ns")
	close(stop)
	wg.Wait()
}

// BenchmarkRepositoryCheckoutBatch measures reconstructing the whole
// history through the bounded worker pool, cold cache each iteration.
func BenchmarkRepositoryCheckoutBatch(b *testing.B) {
	repo, src := benchCheckoutRepository(b, versioning.RepositoryOptions{CacheEntries: -1})
	ctx := context.Background()
	ids := make([]versioning.NodeID, src.Graph.N())
	for i := range ids {
		ids[i] = versioning.NodeID(i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, res := range repo.CheckoutBatch(ctx, ids) {
			if res.Err != nil {
				b.Fatalf("batch item %d: %v", j, res.Err)
			}
		}
	}
}

// benchManifest is n 48-byte lines, the repository benchmark's shape.
func benchManifest(n int) []string {
	rng := rand.New(rand.NewSource(9))
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("dir%03d/sub%02d/file%06d.dat %016x", i%211, i%13, i, rng.Uint64())
	}
	return lines
}

// wireBenchMessages are the bodies that carry line arrays — a checkout
// response, a commit request, and a diff response inserting the lines
// twenty at a time between keeps and deletes — with a fresh decoding
// target for each.
func wireBenchMessages(lines []string) []struct {
	name   string
	msg    any
	target func() any
} {
	n := len(lines)
	parent := graph.NodeID(n)
	script := wire.DiffResult{A: 1, B: 2, AddedLines: n}
	for at := 0; at < n; at += 20 {
		ins := lines[at:min(at+20, n)]
		script.Ops = append(script.Ops, wire.DiffOp{Op: "keep", N: 17}, wire.DiffOp{Op: "delete", N: 3}, wire.DiffOp{Op: "insert", Lines: ins})
	}
	return []struct {
		name   string
		msg    any
		target func() any
	}{
		{"checkout", wire.Checkout{ID: 7, Lines: lines}, func() any { return new(wire.Checkout) }},
		{"commit", wire.CommitRequest{Parent: &parent, Lines: lines}, func() any { return new(wire.CommitRequest) }},
		{"diff", script, func() any { return new(wire.DiffResult) }},
	}
}

// wireBenchShapes are benchManifest(n) as three kinds of body: clean
// lines, which Encode copies whole and Decode keeps as substrings; under
// escaped/ one line in sixteen holding a quote, a tab, an ampersand or an
// é, which both walk byte by byte; and under manifest/ a NUL-led header
// before every 40 lines, a versioning manifest's shape, which goes over
// the wire with a \u0000 escape.
func wireBenchShapes(n int) []struct {
	name  string
	lines []string
} {
	clean := benchManifest(n)
	escaped := slices.Clone(clean)
	for i := 0; i < n; i += 16 {
		escaped[i] = clean[i][:i%40] + []string{`"`, "\t", "&", "é"}[i/16%4] + clean[i][i%40:]
	}
	manifest := slices.Clone(clean)
	for i := 0; i < n; i += 41 {
		manifest[i] = fmt.Sprintf("\x00dsv:f:40:dir%03d/part%06d.bin", i%211, i)
	}
	return []struct {
		name  string
		lines []string
	}{{"clean", clean}, {"escaped", escaped}, {"manifest", manifest}}
}

// BenchmarkWireDecode measures decoding wireBenchMessages of each
// wireBenchShapes shape with internal/wire.Decode and, under
// encodingjson/, with the decoder both ends of the wire used before it.
func BenchmarkWireDecode(b *testing.B) {
	decoders := []struct {
		name   string
		decode func(string, any) error
	}{
		{"wire", wire.Decode},
		{"encodingjson", func(body string, v any) error { return json.NewDecoder(strings.NewReader(body)).Decode(v) }},
	}
	for _, n := range []int{30, 200, 4000} {
		for _, lines := range wireBenchShapes(n) {
			for _, m := range wireBenchMessages(lines.lines) {
				marshalled, err := json.Marshal(m.msg)
				if err != nil {
					b.Fatal(err)
				}
				body := string(marshalled)
				for _, dec := range decoders {
					b.Run(fmt.Sprintf("%s/%s/%s/lines=%d", dec.name, m.name, lines.name, n), func(b *testing.B) {
						b.ReportAllocs()
						b.SetBytes(int64(len(body)))
						for i := 0; i < b.N; i++ {
							if err := dec.decode(body, m.target()); err != nil {
								b.Fatal(err)
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkWireEncode is BenchmarkWireDecode's twin: the same bodies
// through internal/wire.Encode and, under encodingjson/, through
// json.Marshal, which both ends of the wire used before it.
func BenchmarkWireEncode(b *testing.B) {
	encoders := []struct {
		name   string
		encode func(any) ([]byte, error)
	}{
		{"wire", wire.Encode},
		{"encodingjson", json.Marshal},
	}
	for _, n := range []int{30, 200, 4000} {
		for _, lines := range wireBenchShapes(n) {
			for _, m := range wireBenchMessages(lines.lines) {
				want, err := json.Marshal(m.msg)
				if err != nil {
					b.Fatal(err)
				}
				for _, enc := range encoders {
					b.Run(fmt.Sprintf("%s/%s/%s/lines=%d", enc.name, m.name, lines.name, n), func(b *testing.B) {
						b.ReportAllocs()
						b.SetBytes(int64(len(want)))
						for i := 0; i < b.N; i++ {
							if body, err := enc.encode(m.msg); err != nil || len(body) != len(want) {
								b.Fatal(len(body), err)
							}
						}
					})
				}
			}
		}
	}
}

// BenchmarkStoreDecodeLines measures the store's object codec on the
// read side: a 32-line chunk, the expected size of the objects a chunked
// manifest is read through, and a 4,000-line whole blob.
func BenchmarkStoreDecodeLines(b *testing.B) {
	for _, n := range []int{32, 4000} {
		payload := store.EncodeBlob(benchManifest(n))
		b.Run(fmt.Sprintf("lines=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(payload)))
			for i := 0; i < b.N; i++ {
				if lines, err := store.DecodeBlob(payload); err != nil || len(lines) != n {
					b.Fatal(len(lines), err)
				}
			}
		})
	}
}

// benchEdit returns prev with edits of its lines rewritten by version.
// Edits cluster in three 40-line windows, as a commit that touches three
// files of a manifest does.
func benchEdit(rng *rand.Rand, prev []string, version, edits int) []string {
	next := append([]string(nil), prev...)
	at := [3]int{rng.Intn(len(next)), rng.Intn(len(next)), rng.Intn(len(next))}
	for i := 0; i < edits; i++ {
		next[(at[rng.Intn(3)]+rng.Intn(40))%len(next)] = fmt.Sprintf("edited/by/version%06d.dat %016x", version, rng.Uint64())
	}
	return next
}

// benchNextVersion returns the next version of contents and its parent:
// edits lines rewritten from the last version, or in one commit in five
// from one of the 32 before it.
func benchNextVersion(rng *rand.Rand, contents [][]string, edits int) (int, []string) {
	n := len(contents)
	p := n - 1
	if rng.Intn(5) == 0 {
		p -= rng.Intn(min(n, 32))
	}
	return p, benchEdit(rng, contents[p], n, edits)
}

// benchCommitEdit commits the next version of contents to repo
// (benchNextVersion) and returns contents with it appended.
func benchCommitEdit(b *testing.B, repo *versioning.Repository, rng *rand.Rand, contents [][]string, edits int) [][]string {
	b.Helper()
	p, next := benchNextVersion(rng, contents, edits)
	if _, err := repo.Commit(context.Background(), versioning.NodeID(p), next); err != nil {
		b.Fatal(err)
	}
	return append(contents, next)
}

// replanPassCase is a repository BenchmarkReplanPass re-plans: versions
// commits of a lines-line manifest, edits lines each, behind a cache of
// cacheEntries versions (-1: none). A fork history is shaped like the
// busiest tenant of the repository benchmark's fleet-write: a chain of
// forkChain versions, then children of its last seven, the later ones
// likelier, each rewriting 1 to edits lines.
type replanPassCase struct {
	name                   string
	versions, lines, edits int
	cacheEntries           int
	fork                   bool
}

const forkChain = 8

var replanPassCases = []replanPassCase{
	{"versions=64/lines=4000", 64, 4000, 40, 16, false},
	{"versions=800/lines=30", 800, 30, 2, -1, false},
	{"versions=600/lines=200/fork", 600, 200, 10, 16, true},
}

// history returns the case's commits, each version's parent and
// contents (the root's parent is versioning.NoParent).
func (c replanPassCase) history() ([]versioning.NodeID, [][]string) {
	rng := rand.New(rand.NewSource(17))
	parents := []versioning.NodeID{versioning.NoParent}
	contents := [][]string{benchManifest(c.lines)}
	fork := rand.NewZipf(rng, 1.2, 1, forkChain-2)
	for len(contents) < c.versions {
		var p int
		var next []string
		switch {
		case !c.fork:
			p, next = benchNextVersion(rng, contents, c.edits)
		case len(contents) < forkChain:
			p = len(contents) - 1
			next = benchEdit(rng, contents[p], len(contents), 1+rng.Intn(c.edits))
		default:
			p = forkChain - 1 - int(fork.Uint64())
			next = benchEdit(rng, contents[p], len(contents), 1+rng.Intn(c.edits))
		}
		parents, contents = append(parents, versioning.NodeID(p)), append(contents, next)
	}
	return parents, contents
}

// prepare opens a disk-backed repository in dir and brings it to where
// the timed pass starts: every commit of the history but the last two, a
// Replan, then the last two. It returns the repository and its stats
// before the pass.
func (c replanPassCase) prepare(tb testing.TB, dir string, parents []versioning.NodeID, contents [][]string) (*versioning.Repository, versioning.RepositoryStats) {
	tb.Helper()
	repo, err := versioning.Open("replan-pass", versioning.RepositoryOptions{
		DataDir:      dir,
		Problem:      versioning.ProblemMSR,
		ReplanEvery:  -1,
		CacheEntries: c.cacheEntries,
		CacheBytes:   4 << 20,
	})
	if err != nil {
		tb.Fatal(err)
	}
	ctx := context.Background()
	commit := func(v int) {
		if _, err := repo.Commit(ctx, parents[v], contents[v]); err != nil {
			tb.Fatal(err)
		}
	}
	for v := 0; v < len(contents)-2; v++ {
		commit(v)
	}
	if err := repo.Replan(ctx); err != nil {
		tb.Fatal(err)
	}
	commit(len(contents) - 2)
	commit(len(contents) - 1)
	return repo, repo.Stats()
}

// replanPassCounts is what one pass did: the versions it checked out and
// the objects its migration reports having written.
func replanPassCounts(before, after versioning.RepositoryStats) (contents, objects int64) {
	return after.Checkouts - before.Checkouts, after.MigrationObjects - before.MigrationObjects
}

// BenchmarkReplanPass measures one maintenance pass on a disk-backed
// repository whose serving plan already covers everything but the last
// two commits, the repository benchmark's plan phase: 64 manifests of
// about 4,000 lines behind a cache a third their size (history-read),
// 800 documents of 30 lines with no cache (replan-scale, which is in
// memory there) and 600 documents of 200 lines forked from a few versions
// (fleet-write's busiest tenant, whose minimum arborescences contract a
// cycle per level). Each iteration times Replan (solver race, preload,
// migration) on the same repository: off the clock it builds a fresh one
// from the same commits (replanPassCase.prepare), so the graph's size
// and the layout the pass starts from do not depend on b.N, and closes
// and deletes it after. contents/pass is how many versions the pass checked out and
// objects/pass how many objects its migration reports having written;
// TestReplanPassRepeats checks they are the same at every b.N.
func BenchmarkReplanPass(b *testing.B) {
	for _, c := range replanPassCases {
		b.Run(c.name, func(b *testing.B) {
			parents, contents := c.history()
			ctx, tmp := context.Background(), b.TempDir()
			var passContents, passObjects int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := filepath.Join(tmp, fmt.Sprint(i))
				repo, before := c.prepare(b, dir, parents, contents)
				b.StartTimer()
				if err := repo.Replan(ctx); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				n, o := replanPassCounts(before, repo.Stats())
				passContents, passObjects = passContents+n, passObjects+o
				if err := repo.Close(); err != nil {
					b.Fatal(err)
				}
				if err := os.RemoveAll(dir); err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
			}
			b.StopTimer()
			b.ReportMetric(float64(passContents)/float64(b.N), "contents/pass")
			b.ReportMetric(float64(passObjects)/float64(b.N), "objects/pass")
		})
	}
}

// TestReplanPassRepeats checks that BenchmarkReplanPass times the same
// pass at every b.N: contents/pass and objects/pass come out equal at
// -benchtime 1x and 5x, here as one pass against the mean of five.
func TestReplanPassRepeats(t *testing.T) {
	for _, c := range replanPassCases {
		parents, contents := c.history()
		pass := func() (int64, int64) {
			repo, before := c.prepare(t, t.TempDir(), parents, contents)
			defer repo.Close()
			if err := repo.Replan(context.Background()); err != nil {
				t.Fatal(err)
			}
			return replanPassCounts(before, repo.Stats())
		}
		one, oneObjects := pass()
		var five, fiveObjects int64
		for i := 0; i < 5; i++ {
			n, o := pass()
			five, fiveObjects = five+n, fiveObjects+o
		}
		if 5*one != five || 5*oneObjects != fiveObjects {
			t.Errorf("%s: contents/pass %d at 1x, %.1f at 5x; objects/pass %d at 1x, %.1f at 5x",
				c.name, one, float64(five)/5, oneObjects, float64(fiveObjects)/5)
		}
		t.Logf("%s: contents/pass %d, objects/pass %d", c.name, one, oneObjects)
	}
}

// BenchmarkInstallPublish measures what a migration pays to make its new
// objects durable on a disk-backed store. Each iteration installs a plan
// that adds 25 new objects of about 3 KB (a fleet-write pass of the
// repository benchmark) or 181 (history-read's first migration) and
// drops as many. files/op is how many files the Install created.
func BenchmarkInstallPublish(b *testing.B) {
	for _, n := range []int{25, 181} {
		b.Run(fmt.Sprintf("objects=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			backend, err := store.OpenDiskBackend(dir)
			if err != nil {
				b.Fatal(err)
			}
			s := store.New(store.Options{Backend: backend, CacheEntries: -1})
			defer s.Close()
			// A star: version 0 and n versions that share no line with it,
			// so a version's delta from 0 is as large as its blob. One plan
			// stores every version in full, the other the n deltas; going
			// from either to the other adds n objects.
			rng := rand.New(rand.NewSource(23))
			g := graph.New("publish")
			contents := make([][]string, n+1)
			for v := range contents {
				contents[v] = make([]string, 60)
				for i := range contents[v] {
					contents[v][i] = fmt.Sprintf("version%04d/line%02d %032x", v, i, rng.Uint64())
				}
				size := diff.ByteSize(contents[v])
				g.AddNode(size)
				if v > 0 {
					g.AddEdge(0, graph.NodeID(v), size, size)
				}
			}
			content := func(v graph.NodeID) ([]string, error) { return contents[v], nil }
			blobs, deltas := plan.MaterializeAll(g), plan.New(g)
			deltas.Materialized[0] = true
			for e := range deltas.Stored {
				deltas.Stored[e] = true
			}
			if err := s.Install(g, blobs, content); err != nil {
				b.Fatal(err)
			}
			files, created := dataDirFiles(b, dir), 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p := deltas
				if i%2 == 1 {
					p = blobs
				}
				if err := s.Install(g, p, content); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				now := dataDirFiles(b, dir)
				for f := range now {
					if !files[f] {
						created++
					}
				}
				files = now
				b.StartTimer()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/op")
			b.ReportMetric(float64(created)/float64(b.N), "files/op")
		})
	}
}

// dataDirFiles lists the regular files under dir by path relative to it.
func dataDirFiles(b *testing.B, dir string) map[string]bool {
	files := make(map[string]bool)
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			rel, _ := filepath.Rel(dir, path)
			files[rel] = true
		}
		return err
	})
	if err != nil {
		b.Fatal(err)
	}
	return files
}

// BenchmarkCommitDurable measures what an acknowledged commit costs a
// disk repository: child commits that rewrite 40 lines of a 200-line
// document (a 2 KB delta), with the journal fsynced before every
// acknowledgment (dsvd -fsync) and without, by 1, 4 and 16 committers
// that each grow their own chain on one repository. Each commit writes
// its journal record under the commit lock; with fsync, commits waiting
// together share one fsync. batches/op is the journal's durability
// points per commit (wal_batches: fsyncs with fsync, record writes
// without it), files/op the files the data directory gained per commit,
// and fsyncs/op what making them and the journal durable takes: one per
// journal fsync, two per pack (file and directory), one per loose
// object file.
func BenchmarkCommitDurable(b *testing.B) {
	for _, syncWrites := range []bool{true, false} {
		for _, committers := range []int{1, 4, 16} {
			b.Run(fmt.Sprintf("fsync=%t/committers=%d", syncWrites, committers), func(b *testing.B) {
				benchCommitDurable(b, syncWrites, committers)
			})
		}
	}
}

func benchCommitDurable(b *testing.B, syncWrites bool, committers int) {
	dir := b.TempDir()
	repo, err := versioning.Open("commit-durable", versioning.RepositoryOptions{
		DataDir:     dir,
		SyncWrites:  syncWrites,
		ReplanEvery: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer repo.Close()
	ctx := context.Background()
	roots := make([]versioning.NodeID, committers)
	chains := make([][][]string, committers)
	for c := range chains {
		rng := rand.New(rand.NewSource(29 + int64(c)))
		doc := benchManifest(200)
		doc[0] = fmt.Sprintf("committer %d", c)
		if roots[c], err = repo.Commit(ctx, versioning.NoParent, doc); err != nil {
			b.Fatal(err)
		}
		chains[c] = make([][]string, b.N/committers)
		if c < b.N%committers {
			chains[c] = append(chains[c], nil)
		}
		for i := range chains[c] {
			doc = benchEdit(rng, doc, i+1, 40)
			chains[c][i] = doc
		}
	}
	files, batches := dataDirFiles(b, dir), repo.Stats().WALBatches
	errs := make(chan error, committers)
	var wg sync.WaitGroup
	b.ResetTimer()
	for c, chain := range chains {
		wg.Add(1)
		go func(parent versioning.NodeID, chain [][]string) {
			defer wg.Done()
			for _, lines := range chain {
				var err error
				if parent, err = repo.Commit(ctx, parent, lines); err != nil {
					errs <- err
					return
				}
			}
		}(roots[c], chain)
	}
	wg.Wait()
	b.StopTimer()
	close(errs)
	for err := range errs {
		b.Fatal(err)
	}
	points := repo.Stats().WALBatches - batches
	created, fsyncs := 0, int64(0)
	if syncWrites {
		fsyncs = points
	}
	for f := range dataDirFiles(b, dir) {
		if files[f] {
			continue
		}
		created++
		switch filepath.Dir(f) {
		case "packs":
			fsyncs += 2
		case "objects":
			fsyncs++
		}
	}
	b.ReportMetric(float64(points)/float64(b.N), "batches/op")
	b.ReportMetric(float64(created)/float64(b.N), "files/op")
	b.ReportMetric(float64(fsyncs)/float64(b.N), "fsyncs/op")
}

// BenchmarkOpenAfterKill measures versioning.Open on the data directory
// of a killed daemon, a tenant's reopen at its worst: 64 versions of a
// 200-line document, re-planned once, abandoned without Close. The
// migration's GC took the chain deltas the plan does not store, so the
// replay has them to put again before it sweeps what the plan added.
func BenchmarkOpenAfterKill(b *testing.B) {
	opt := versioning.RepositoryOptions{
		Problem:     versioning.ProblemMSR,
		SyncWrites:  true,
		ReplanEvery: -1,
	}
	ctx := context.Background()
	killedDir := b.TempDir()
	opt.DataDir = killedDir
	killed, err := versioning.Open("open-after-kill", opt)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	contents := [][]string{benchManifest(200)}
	if _, err := killed.Commit(ctx, versioning.NoParent, contents[0]); err != nil {
		b.Fatal(err)
	}
	for v := 1; v < 64; v++ {
		// One commit in five branches off an older version, which is what
		// gives the plan other edges to store than the chain's.
		p := v - 1
		if rng.Intn(5) == 0 {
			p -= rng.Intn(min(v, 32))
		}
		contents = append(contents, benchEdit(rng, contents[p], v, 40))
		if _, err := killed.Commit(ctx, versioning.NodeID(p), contents[v]); err != nil {
			b.Fatal(err)
		}
	}
	if err := killed.Replan(ctx); err != nil {
		b.Fatal(err)
	}
	if st := killed.Stats(); st.StoredDeltas == 63 {
		b.Fatal("the plan stores the whole chain: the reopen has nothing to put again")
	}
	// Every iteration opens its own copy of the directory as the kill left
	// it; only then may the abandoned repository be closed.
	left := dataDirFiles(b, killedDir)
	copyTo := func(dir string) {
		for f := range left {
			data, err := os.ReadFile(filepath.Join(killedDir, f))
			if err == nil {
				err = os.MkdirAll(filepath.Join(dir, filepath.Dir(f)), 0o755)
			}
			if err == nil {
				err = os.WriteFile(filepath.Join(dir, f), data, 0o644)
			}
			if err != nil {
				b.Fatal(err)
			}
		}
	}
	dirs := make([]string, b.N)
	for i := range dirs {
		dirs[i] = b.TempDir()
		copyTo(dirs[i])
	}
	killed.Close()
	b.ResetTimer()
	for _, dir := range dirs {
		opt.DataDir = dir
		repo, err := versioning.Open("open-after-kill", opt)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if repo.Versions() != 64 {
			b.Fatalf("reopened %d versions", repo.Versions())
		}
		repo.Close()
		b.StartTimer()
	}
}
