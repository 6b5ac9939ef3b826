// Command dsvload is the workload generator for dsvd: it drives a live
// daemon through the typed client (repro/client) with configurable
// operation mixes, version-popularity distributions, and open- or
// closed-loop arrivals, then writes a machine-readable JSON report
// (latency percentiles, throughput, error counts) for BENCH_load.json
// and the CI load-smoke job.
//
// A typical run against a local daemon:
//
//	dsvd -addr :8080 &
//	dsvload -addr http://localhost:8080 -mix checkout,mixed,commit \
//	        -dist zipf -duration 10s -concurrency 16 -preload 64 \
//	        -out BENCH_load.json
//
// Against a multi-tenant daemon (dsvd -multi), -tenants N spreads the
// same mixes across N tenant namespaces (t000, t001, ...), each op
// first picking a tenant under -tenant-dist (zipf skews load onto a hot
// head of tenants — the pattern that exercises the manager's LRU and
// reopen path; uniform touches every tenant evenly, the worst case for
// a bounded -max-open):
//
//	dsvd -addr :8080 -multi -tenants-dir ./tenants -max-open 16 &
//	dsvload -addr http://localhost:8080 -tenants 100 -tenant-dist zipf \
//	        -mix mixed -duration 10s -preload 100
//
// Mixes:
//
//	checkout  100% checkouts over the committed versions
//	commit    100% commits (each a child of a random existing version)
//	mixed     90% checkout / 10% commit (tunable via -commit-ratio)
//	diff      100% GET /diff/{a}/{b} over random version pairs (one end
//	          popularity-picked, so zipf keeps a hot diff head)
//
// -import-dir DIR preloads each target with a real git repository's
// history instead of (before topping up with) the synthetic preload:
// commits become manifest-encoded versions with true parent edges,
// merges included, via the same importer as cmd/dsvimport.
//
// -dist zipf skews checkout popularity toward recent versions (rank 0 =
// newest) with exponent -zipf-s, the adversarial pattern that makes
// caches, singleflight, and client-side coalescing earn their keep;
// uniform spreads load evenly. -rate R switches from closed-loop
// (workers issue the next request when the previous returns) to
// open-loop (arrivals at R/s regardless of completions, the pattern
// that exposes queueing collapse); arrivals that find all workers busy
// and the backlog full are dropped and reported, so a drowning server
// shows up as drops + shed 429s, not a stalled generator.
//
// -trace-sample F sends an X-DSV-Trace header on that fraction of
// requests; after each mix the generator reads the traces back from
// the daemon's flight recorder (GET /tracez) and folds the span
// durations into a per-phase latency breakdown (trace_phases in the
// report) — the server-side view of where each op's time went
// (wal.fsync vs store.read vs admission), attributed per mix.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/internal/gitimport"
	"repro/internal/metrics"
	"repro/versioning"
)

type config struct {
	addr        string
	mixes       []string
	dist        string
	zipfS       float64
	duration    time.Duration
	concurrency int
	rate        float64
	commitRatio float64
	preload     int
	seed        int64
	timeout     time.Duration
	coalesce    time.Duration
	out         string
	failOnErr   bool
	tenants     int
	tenantDist  string
	traceSample float64
	etag        bool
	importDir   string
	importMax   int
}

// validate rejects configurations that would silently measure
// something other than what the report claims.
func (cfg config) validate() error {
	switch cfg.dist {
	case "uniform":
	case "zipf":
		if cfg.zipfS <= 1 {
			return fmt.Errorf("-zipf-s must be > 1 (got %g); rand.Zipf is undefined at s <= 1", cfg.zipfS)
		}
	default:
		return fmt.Errorf("unknown -dist %q (want zipf|uniform)", cfg.dist)
	}
	if cfg.concurrency <= 0 {
		return fmt.Errorf("-concurrency must be positive")
	}
	// The pacer is one goroutine on a time.Ticker; beyond ~100k/s it
	// would drop ticks and silently under-deliver while the report still
	// claims the configured rate, so refuse instead of misreporting.
	if cfg.rate < 0 || cfg.rate > 100_000 {
		return fmt.Errorf("-rate must be in [0, 100000] arrivals/s (got %g)", cfg.rate)
	}
	if cfg.tenants < 0 {
		return fmt.Errorf("-tenants must be >= 0 (got %d)", cfg.tenants)
	}
	switch cfg.tenantDist {
	case "uniform":
	case "", "zipf": // empty = the zipf default
		if cfg.tenants > 0 && cfg.zipfS <= 1 {
			return fmt.Errorf("-zipf-s must be > 1 for -tenant-dist zipf (got %g)", cfg.zipfS)
		}
	default:
		return fmt.Errorf("unknown -tenant-dist %q (want zipf|uniform)", cfg.tenantDist)
	}
	return nil
}

func main() {
	var cfg config
	var mixList string
	flag.StringVar(&cfg.addr, "addr", "http://localhost:8080", "dsvd base URL")
	flag.StringVar(&mixList, "mix", "checkout,mixed,commit", "comma-separated workload mixes: checkout|commit|mixed")
	flag.StringVar(&cfg.dist, "dist", "zipf", "version popularity: zipf|uniform")
	flag.Float64Var(&cfg.zipfS, "zipf-s", 1.2, "zipf exponent (>1; larger = more skew)")
	flag.DurationVar(&cfg.duration, "duration", 10*time.Second, "run length per mix")
	flag.IntVar(&cfg.concurrency, "concurrency", 16, "concurrent workers")
	flag.Float64Var(&cfg.rate, "rate", 0, "open-loop arrivals per second (0 = closed loop)")
	flag.Float64Var(&cfg.commitRatio, "commit-ratio", 0.1, "commit fraction of the mixed workload")
	flag.IntVar(&cfg.preload, "preload", 64, "ensure at least this many committed versions before loading (spread across tenants with -tenants)")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload RNG seed")
	flag.DurationVar(&cfg.timeout, "timeout", 5*time.Second, "per-request client timeout")
	flag.DurationVar(&cfg.coalesce, "coalesce", -1, "client batch-coalescing window; negative (default) disables it so latencies measure the server, not the client's batching delay")
	flag.StringVar(&cfg.out, "out", "BENCH_load.json", "report path (- for stdout only)")
	flag.BoolVar(&cfg.failOnErr, "fail-on-error", false, "exit nonzero if any operation errored")
	flag.IntVar(&cfg.tenants, "tenants", 0, "spread load across N tenants of a dsvd -multi daemon (0 = single-repo mode)")
	flag.StringVar(&cfg.tenantDist, "tenant-dist", "zipf", "tenant popularity with -tenants: zipf|uniform")
	flag.Float64Var(&cfg.traceSample, "trace-sample", 0, "fraction of requests traced end-to-end; the report gains a per-phase server-side latency breakdown")
	flag.BoolVar(&cfg.etag, "etag", false, "enable the client-side ETag validator cache: repeat checkouts revalidate with If-None-Match and come back as bodyless 304s")
	flag.StringVar(&cfg.importDir, "import-dir", "", "preload each target with this git repository's real history (manifest versions, merge edges included) before any synthetic preload")
	flag.IntVar(&cfg.importMax, "import-max", 0, "cap -import-dir at the oldest N commits (0 = the whole history)")
	flag.Parse()
	for _, m := range strings.Split(mixList, ",") {
		cfg.mixes = append(cfg.mixes, strings.TrimSpace(m))
	}
	rep, err := runLoad(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsvload: %v\n", err)
		os.Exit(1)
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "dsvload: encoding report: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	os.Stdout.Write(buf)
	if cfg.out != "" && cfg.out != "-" {
		if err := os.WriteFile(cfg.out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "dsvload: writing %s: %v\n", cfg.out, err)
			os.Exit(1)
		}
	}
	if cfg.failOnErr {
		var errs int64
		for _, m := range rep.Mixes {
			errs += m.Errors
		}
		if errs > 0 {
			fmt.Fprintf(os.Stderr, "dsvload: %d operations errored\n", errs)
			os.Exit(2)
		}
	}
}

// target is one namespace under load: its client view and the live
// count of committed versions (the checkout id space).
type target struct {
	api      *client.Client
	versions atomic.Int64
}

// tenantName formats the i-th synthetic tenant namespace.
func tenantName(i int) string { return fmt.Sprintf("t%03d", i) }

// runLoad preloads the target(s) and runs every configured mix in turn.
func runLoad(cfg config) (Report, error) {
	if cfg.tenantDist == "" {
		cfg.tenantDist = "zipf"
	}
	if err := cfg.validate(); err != nil {
		return Report{}, err
	}
	var tc *traceCollector
	copt := client.Options{
		RequestTimeout: cfg.timeout,
		CoalesceWindow: cfg.coalesce,
	}
	if cfg.traceSample > 0 {
		tc = newTraceCollector()
		copt.TraceSample = cfg.traceSample
		copt.OnTrace = tc.note
	}
	if cfg.etag {
		copt.ValidatorCacheBytes = 64 << 20
	}
	// The client outlives every mix; the hook routes each response's
	// wire size to whichever mix is currently running (nil between
	// mixes, so preload traffic is not counted).
	var active atomic.Pointer[loadState]
	copt.OnResponse = func(path string, n int64) {
		st := active.Load()
		if st == nil {
			return
		}
		if strings.Contains(path, "/checkout") {
			st.checkoutBytes.ObserveValue(n)
		} else if strings.Contains(path, "/commit") {
			st.commitBytes.ObserveValue(n)
		} else if strings.Contains(path, "/diff/") {
			st.diffBytes.ObserveValue(n)
		}
	}
	c := client.New(cfg.addr, copt)
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Healthz(ctx); err != nil {
		return Report{}, fmt.Errorf("probing %s: %w", cfg.addr, err)
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	var hist *gitimport.History
	if cfg.importDir != "" {
		h, err := gitimport.Load(ctx, cfg.importDir, gitimport.Options{MaxCommits: cfg.importMax})
		hist = h
		if err != nil {
			return Report{}, fmt.Errorf("loading -import-dir: %w", err)
		}
		fmt.Fprintf(os.Stderr, "dsvload: imported history %s: %d commits (%d merges)\n",
			cfg.importDir, len(hist.Commits), hist.Merges())
	}
	targets, err := buildTargets(ctx, c, cfg, rng, hist)
	if err != nil {
		return Report{}, err
	}
	// Preload commits may have been sampled too; discard them so the
	// first mix's phase breakdown covers only its own operations.
	if tc != nil {
		tc.take()
	}
	rep := Report{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		Addr:        cfg.addr,
		Seed:        cfg.seed,
		Dist:        cfg.dist,
		Concurrency: cfg.concurrency,
		Tenants:     cfg.tenants,
	}
	if cfg.tenants > 0 {
		rep.TenantDist = cfg.tenantDist
	}
	if cfg.coalesce >= 0 {
		rep.CoalesceWindowMS = float64(cfg.coalesce) / float64(time.Millisecond)
		rep.Coalescing = true
	}
	rep.TraceSample = cfg.traceSample
	rep.ETagCache = cfg.etag
	if hist != nil {
		rep.ImportDir = cfg.importDir
		rep.ImportedCommits = len(hist.Commits)
		rep.ImportedMerges = hist.Merges()
	}
	for i, mix := range cfg.mixes {
		mr, err := runMix(c, tc, &active, targets, cfg, mix, cfg.seed+int64(i)*7919)
		if err != nil {
			return rep, fmt.Errorf("mix %q: %w", mix, err)
		}
		rep.Mixes = append(rep.Mixes, mr)
	}
	return rep, nil
}

// buildTargets resolves the namespaces under load — the root view, or
// one view per tenant — and preloads each to its share of -preload
// committed versions (every tenant gets at least one version, so
// checkouts always have something to hit).
func buildTargets(ctx context.Context, c *client.Client, cfg config, rng *rand.Rand, hist *gitimport.History) ([]*target, error) {
	names, share := []string{""}, cfg.preload
	if cfg.tenants > 0 {
		names = make([]string, cfg.tenants)
		for i := range names {
			names[i] = tenantName(i)
		}
		share = max(cfg.preload/cfg.tenants, 1)
	}
	targets := make([]*target, len(names))
	for i, name := range names {
		t := &target{api: c.Tenant(name)}
		st, err := t.api.Stats(ctx)
		if err != nil {
			return nil, fmt.Errorf("probing repository %q: %w", name, err)
		}
		versions, err := importTarget(ctx, t, hist, st.Versions)
		if err != nil {
			return nil, err
		}
		if err := preloadTarget(ctx, t, versions, share, rng); err != nil {
			return nil, err
		}
		targets[i] = t
	}
	return targets, nil
}

// importTarget replays an imported git history (if any) into an empty
// target, preserving parent edges and merge topology, and returns the
// target's resulting version count. A target that already holds
// versions is left alone — re-running dsvload against a warm daemon
// must not duplicate the whole history.
func importTarget(ctx context.Context, t *target, hist *gitimport.History, have int) (int, error) {
	if hist == nil || have > 0 {
		return have, nil
	}
	_, err := hist.Replay(ctx, func(ctx context.Context, parents []versioning.NodeID, lines []string) (versioning.NodeID, error) {
		var cr client.CommitResult
		var err error
		switch len(parents) {
		case 0:
			cr, err = t.api.Commit(ctx, versioning.NoParent, lines)
		case 1:
			cr, err = t.api.Commit(ctx, parents[0], lines)
		default:
			cr, err = t.api.CommitMerge(ctx, parents, lines)
		}
		if err != nil {
			return 0, err
		}
		have = cr.Versions
		return cr.ID, nil
	})
	if err != nil {
		return have, fmt.Errorf("importing history into %q: %w", t.api.Name(), err)
	}
	return have, nil
}

// preloadTarget commits until t holds at least want versions.
func preloadTarget(ctx context.Context, t *target, have, want int, rng *rand.Rand) error {
	for have < want {
		parent := versioning.NodeID(have - 1)
		if have == 0 {
			parent = versioning.NoParent
		}
		cr, err := t.api.Commit(ctx, parent, synthLines(rng, have))
		if err != nil {
			return fmt.Errorf("preloading %s version %d: %w", t.api.Name(), have, err)
		}
		have = cr.Versions
	}
	t.versions.Store(int64(have))
	return nil
}

// mixRatio maps a mix name to its commit fraction ("diff" is all reads
// and carries ratio 0; runMix switches its read op to /diff).
func mixRatio(cfg config, mix string) (float64, error) {
	switch mix {
	case "checkout", "diff":
		return 0, nil
	case "commit":
		return 1, nil
	case "mixed":
		return cfg.commitRatio, nil
	default:
		return 0, fmt.Errorf("unknown mix (want checkout|commit|mixed|diff)")
	}
}

// loadState is the per-mix shared state the workers drive.
type loadState struct {
	targets       []*target
	diffMode      bool // read ops are GET /diff/{a}/{b} instead of checkouts
	checkoutHG    metrics.Histogram
	commitHG      metrics.Histogram
	diffHG        metrics.Histogram
	checkoutBytes metrics.Histogram // response wire sizes via OnResponse
	commitBytes   metrics.Histogram
	diffBytes     metrics.Histogram
	checkouts     atomic.Int64
	commits       atomic.Int64
	diffs         atomic.Int64
	errors        atomic.Int64
	throttled     atomic.Int64 // 429 shed responses (reported separately)
	dropped       atomic.Int64 // open-loop arrivals with no capacity left
}

// runMix drives one workload mix for cfg.duration and summarizes it.
func runMix(c *client.Client, tc *traceCollector, active *atomic.Pointer[loadState], targets []*target, cfg config, mix string, seed int64) (MixReport, error) {
	ratio, err := mixRatio(cfg, mix)
	if err != nil {
		return MixReport{}, err
	}
	ctx := context.Background()
	for _, t := range targets {
		if t.versions.Load() == 0 {
			return MixReport{}, fmt.Errorf("target %q has no versions (use -preload)", t.api.Name())
		}
	}
	st := &loadState{targets: targets, diffMode: mix == "diff"}
	active.Store(st)
	defer active.Store(nil)
	reval0 := c.Revalidated()

	start := time.Now()
	deadline := start.Add(cfg.duration)
	var wg sync.WaitGroup
	var arrivals chan struct{}
	if cfg.rate > 0 {
		// Open loop: a pacer emits arrivals at the configured rate; the
		// bounded backlog decouples it from worker completions.
		arrivals = make(chan struct{}, 4*cfg.concurrency)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(arrivals)
			tick := time.NewTicker(time.Duration(float64(time.Second) / cfg.rate))
			defer tick.Stop()
			for now := range tick.C {
				if now.After(deadline) {
					return
				}
				select {
				case arrivals <- struct{}{}:
				default:
					st.dropped.Add(1)
				}
			}
		}()
	}
	for w := 0; w < cfg.concurrency; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(w)))
			picks := make([]*picker, len(targets))
			for i, t := range targets {
				picks[i] = newPicker(cfg, rng, int(t.versions.Load()))
			}
			tpick := newTenantPicker(cfg, rng, len(targets))
			for {
				if arrivals != nil {
					if _, ok := <-arrivals; !ok {
						return
					}
				} else if !time.Now().Before(deadline) {
					return
				}
				ti := tpick.idx()
				st.step(ctx, rng, targets[ti], picks[ti], ratio, w)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	mr := MixReport{
		Mix:             mix,
		Dist:            cfg.dist,
		CommitRatio:     ratio,
		OpenLoopRPS:     cfg.rate,
		DurationSeconds: elapsed.Seconds(),
		Checkouts:       st.checkouts.Load(),
		Commits:         st.commits.Load(),
		Diffs:           st.diffs.Load(),
		Errors:          st.errors.Load(),
		Throttled:       st.throttled.Load(),
		Dropped:         st.dropped.Load(),
		PerOp:           map[string]OpReport{},
	}
	mr.Ops = mr.Checkouts + mr.Commits + mr.Diffs
	mr.Revalidated = c.Revalidated() - reval0
	if elapsed > 0 {
		mr.ThroughputOpsPerSec = float64(mr.Ops) / elapsed.Seconds()
	}
	var merged metrics.Histogram
	if mr.Checkouts > 0 {
		mr.PerOp["checkout"] = OpReport{
			Ops:          mr.Checkouts,
			Latency:      st.checkoutHG.Summary(),
			ResponseSize: sizeSummary(&st.checkoutBytes),
		}
	}
	if mr.Commits > 0 {
		mr.PerOp["commit"] = OpReport{
			Ops:          mr.Commits,
			Latency:      st.commitHG.Summary(),
			ResponseSize: sizeSummary(&st.commitBytes),
		}
	}
	if mr.Diffs > 0 {
		mr.PerOp["diff"] = OpReport{
			Ops:          mr.Diffs,
			Latency:      st.diffHG.Summary(),
			ResponseSize: sizeSummary(&st.diffBytes),
		}
	}
	merged.Merge(&st.checkoutHG)
	merged.Merge(&st.commitHG)
	merged.Merge(&st.diffHG)
	mr.Latency = merged.Summary()
	var mergedBytes metrics.Histogram
	mergedBytes.Merge(&st.checkoutBytes)
	mergedBytes.Merge(&st.commitBytes)
	mergedBytes.Merge(&st.diffBytes)
	if sz := sizeSummary(&mergedBytes); sz != nil {
		mr.ResponseSize = sz
		mr.ResponseBytes = sz.TotalBytes
		if elapsed > 0 {
			mr.ThroughputBytesPerSec = float64(sz.TotalBytes) / elapsed.Seconds()
		}
	}
	if tc != nil {
		attachTracePhases(ctx, c, tc, &mr)
	}
	attachPlanz(ctx, targets[0], &mr)
	return mr, nil
}

// attachPlanz snapshots the daemon's plan observatory when a mix ends,
// via GET /planz on the first target — under -tenants that is the
// zipf-hot head tenant, the namespace whose maintenance the mix most
// exercised. Errors leave the field absent (older daemons have no
// /planz endpoint).
func attachPlanz(ctx context.Context, t *target, mr *MixReport) {
	pz, err := t.api.Planz(ctx, 5)
	if err != nil {
		return
	}
	pt := &PlanTrajectory{Passes: pz.HistoryTotal}
	for _, rec := range pz.History {
		if rec.Failed {
			pt.FailedInWindow++
		}
	}
	// The most recent completed pass carries the race detail worth
	// keeping in the report.
	for i := len(pz.History) - 1; i >= 0; i-- {
		rec := pz.History[i]
		if rec.Failed {
			continue
		}
		pt.Winner = rec.Winner
		pt.Trigger = rec.Trigger
		pt.CacheHit = rec.CacheHit
		pt.SolveUS = rec.SolveUS
		pt.MigrationObjects = rec.MigrationObjects
		pt.MigrationBytes = rec.MigrationBytes
		for _, rep := range rec.Reports {
			pt.Solvers = append(pt.Solvers, rep.Solver)
		}
		break
	}
	for _, h := range pz.Heat {
		pt.Heat = append(pt.Heat, HeatEntry{Version: int32(h.Version), Score: h.Score, Reads: h.Reads})
	}
	mr.Plan = pt
}

// step executes one operation against t and records its latency.
func (st *loadState) step(ctx context.Context, rng *rand.Rand, t *target, pick *picker, ratio float64, w int) {
	if rng.Float64() < ratio {
		parent := versioning.NodeID(pick.id(t.versions.Load()))
		t0 := time.Now()
		cr, err := t.api.Commit(ctx, parent, synthLines(rng, int(st.commits.Load())*1000+w))
		st.commitHG.Observe(time.Since(t0))
		st.commits.Add(1)
		if err != nil {
			st.recordErr(err)
			return
		}
		t.versions.Store(int64(cr.Versions))
		return
	}
	if st.diffMode {
		// One endpoint is popularity-picked (a hot head under zipf keeps
		// the diff response cache honest), the other uniform over the
		// whole id space.
		a := versioning.NodeID(pick.id(t.versions.Load()))
		b := versioning.NodeID(rng.Int63n(t.versions.Load()))
		t0 := time.Now()
		_, err := t.api.Diff(ctx, a, b)
		st.diffHG.Observe(time.Since(t0))
		st.diffs.Add(1)
		if err != nil {
			st.recordErr(err)
		}
		return
	}
	id := versioning.NodeID(pick.id(t.versions.Load()))
	t0 := time.Now()
	_, err := t.api.Checkout(ctx, id)
	st.checkoutHG.Observe(time.Since(t0))
	st.checkouts.Add(1)
	if err != nil {
		st.recordErr(err)
	}
}

// sizeSummary renders h as a report field, nil when nothing was
// observed (e.g. an older server or a hook that never fired) so empty
// distributions stay out of the JSON.
func sizeSummary(h *metrics.Histogram) *metrics.SizeSummary {
	if h.Count() == 0 {
		return nil
	}
	s := h.Snapshot().SizeSummary()
	return &s
}

func (st *loadState) recordErr(err error) {
	var apiErr *client.APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusTooManyRequests {
		st.throttled.Add(1)
		return
	}
	st.errors.Add(1)
}

// picker draws version ids under the configured popularity model.
type picker struct {
	zipf *rand.Zipf
	rng  *rand.Rand
	base int // version count when the zipf ranking was frozen
}

func newPicker(cfg config, rng *rand.Rand, versions int) *picker {
	p := &picker{rng: rng, base: versions}
	if cfg.dist == "zipf" && versions > 1 {
		// Rank 0 = newest version at mix start; the skew models a hot
		// head of recent versions, the worst case for naive caching.
		p.zipf = rand.NewZipf(rng, cfg.zipfS, 1, uint64(versions-1))
	}
	return p
}

// id draws one version id < versions (the live count, so uniform runs
// cover versions committed mid-mix).
func (p *picker) id(versions int64) int64 {
	if versions <= 0 {
		return 0
	}
	if p.zipf != nil {
		rank := int64(p.zipf.Uint64())
		id := int64(p.base) - 1 - rank
		if id < 0 {
			id = 0
		}
		return id
	}
	return p.rng.Int63n(versions)
}

// tenantPicker draws tenant indices under -tenant-dist. Zipf rank 0 =
// tenant 0, modelling a hot head of busy tenants over a long tail that
// mostly sits evicted.
type tenantPicker struct {
	zipf *rand.Zipf
	rng  *rand.Rand
	n    int
}

func newTenantPicker(cfg config, rng *rand.Rand, n int) *tenantPicker {
	tp := &tenantPicker{rng: rng, n: n}
	if cfg.tenantDist == "zipf" && n > 1 {
		tp.zipf = rand.NewZipf(rng, cfg.zipfS, 1, uint64(n-1))
	}
	return tp
}

func (tp *tenantPicker) idx() int {
	if tp.n <= 1 {
		return 0
	}
	if tp.zipf != nil {
		return int(tp.zipf.Uint64())
	}
	return tp.rng.Intn(tp.n)
}

// synthLines generates a deterministic ~20-line version body; n salts
// the content so successive commits produce real (non-empty) diffs.
func synthLines(rng *rand.Rand, n int) []string {
	lines := make([]string, 18+rng.Intn(6))
	for i := range lines {
		lines[i] = fmt.Sprintf("line %02d of synthetic version %d token %x", i, n, rng.Int63())
	}
	return lines
}
