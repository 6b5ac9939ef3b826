package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/diff"
	"repro/internal/store"
	"repro/serve"
	"repro/tenant"
	"repro/versioning"
)

// perLayer lists every per-layer metric with its unit, in the order of
// README.md's table. runTraced reports each of them on every workload;
// a layer the workload does not reach reports 0.
var perLayer = []struct{ name, unit string }{
	{"trace.untraced_ops_per_s", "1/s"}, {"trace.traced_ops_per_s", "1/s"}, {"trace.overhead_share", "ratio"},
	{"trace.checkout_p50_ms", "ms"}, {"trace.unattributed_ms_p50", "ms"}, {"trace.spans", "count"},

	{"client.self_ms_p50", "ms"}, {"client.wire_ms_p50", "ms"}, {"client.body_mb_per_s", "MB/s"}, {"client.retries", "count"},
	{"client.checkout_p95_ms", "ms"}, {"client.commit_p95_ms", "ms"}, {"client.diff_p95_ms", "ms"},
	{"client.checkout_p99_ms", "ms"}, {"client.commit_p99_ms", "ms"}, {"client.diff_p99_ms", "ms"},

	{"serve.checkout_handler_ms_p50", "ms"}, {"serve.commit_handler_ms_p50", "ms"}, {"serve.diff_handler_ms_p50", "ms"},
	{"serve.self_ms_p50", "ms"}, {"serve.respcache_hit_ratio", "ratio"}, {"serve.respcache_rejected", "count"},
	{"serve.coalesced", "count"}, {"serve.admission_queued", "count"}, {"serve.admission_rejected", "count"},

	{"tenant.acquire_ms_p50", "ms"}, {"tenant.acquire_ms_p95", "ms"}, {"tenant.opens", "count"},
	{"tenant.reopens", "count"}, {"tenant.evictions", "count"},

	{"versioning.commit_ms_p50", "ms"}, {"versioning.checkout_ms_p50", "ms"}, {"versioning.replan_ms_p50", "ms"},
	{"versioning.open_ms", "ms"}, {"versioning.wal_batches", "count"}, {"versioning.wal_batched_commits", "count"},
	{"versioning.wal_bytes_per_commit", "bytes"}, {"versioning.replans", "count"}, {"versioning.replan_failures", "count"},
	{"versioning.migration_ms_total", "ms"}, {"versioning.migration_bytes", "bytes"},

	{"store.checkout_ms_p50", "ms"}, {"store.cache_hit_ratio", "ratio"}, {"store.delta_applies_per_checkout", "count"},
	{"store.backend_gets_per_checkout", "count"}, {"store.backend_get_ms_p50", "ms"},
	{"store.backend_put_bytes_per_user_byte", "ratio"}, {"store.pack_reads", "count"}, {"store.loose_reads", "count"},
	{"store.compactions", "count"}, {"store.plan_retries", "count"}, {"store.stored_bytes", "bytes"}, {"store.objects", "count"},

	{"diff.compute_ms_p50", "ms"}, {"diff.apply_ms_p50", "ms"}, {"diff.edit_lines_per_pair", "count"},

	{"portfolio.msr_race_ms", "ms"}, {"portfolio.mmr_race_ms", "ms"}, {"portfolio.bsr_race_ms", "ms"}, {"portfolio.bmr_race_ms", "ms"},
	{"portfolio.lmg_ms", "ms"}, {"portfolio.lmg_all_ms", "ms"}, {"portfolio.dp_msr_ms", "ms"},
	{"portfolio.mp_ms", "ms"}, {"portfolio.dp_bmr_ms", "ms"}, {"portfolio.dp_bmr_par_ms", "ms"},
	{"portfolio.lmg_objective_over_winner", "ratio"}, {"portfolio.cache_hits", "count"}, {"portfolio.timeouts", "count"},
}

// layers accumulates the per-layer numbers of one traced run.
type layers map[string]float64

func msOf(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeMS runs f and returns how long it took, in ms.
func timeMS(f func() error) (float64, error) {
	t0 := time.Now()
	err := f()
	return msOf(time.Since(t0)), err
}

// runTraced assembles the stack in-process behind the span wrappers and
// produces the per-layer metrics. The recorder is on in every other
// second of the window; the throughput of those seconds against the
// rest is the tracing overhead. The layers no
// wrapper can reach (versioning, tenant, store, diff, portfolio) are
// then timed by calling them directly with the same seeded inputs.
func runTraced(ctx context.Context, cfg config) (result, error) {
	res := result{Metrics: map[string]metric{}}
	s := cfg.spec
	w := generate(s, cfg.seed, cfg.clients)
	runDir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(runDir)
	dataDir := filepath.Join(runDir, "data")
	if err := os.Mkdir(dataDir, 0o755); err != nil {
		return res, err
	}

	rec := newRecorder()
	var live *inproc
	st, err := inprocLauncher(s, rec, func(p *inproc) { live = p })(dataDir)
	if err != nil {
		return res, err
	}
	stopped := false
	defer func() {
		if !stopped {
			_ = st.stop() // the run already failed; its error is the one reported
		}
	}()
	d := newDriver(w, st.url(), rec)
	defer d.close()
	// The per-layer numbers are as measured: the units are done and dropped.
	yard := cpuYardstick()
	if _, err := d.setUp(ctx, yard, cfg.logf); err != nil {
		return res, err
	}
	if _, err := d.planPhase(ctx, yard); err != nil {
		return res, err
	}

	L := layers{}
	// Re-plans are timed here, on the graph the plan phase left, which is
	// the one replan_s of the untraced run is measured on; after the
	// window the graph is as much larger as the window was fast.
	if err := directReplans(ctx, L, w, live); err != nil {
		return res, err
	}
	// One window, the recorder on in every other second: traced and
	// untraced seconds then share whatever drift the run has, and the
	// difference of their throughput medians is the tracing overhead.
	before := live.srv.StatszSnapshot()
	toggled := make(chan struct{})
	go func() {
		defer close(toggled)
		tick := time.NewTicker(time.Second)
		defer tick.Stop()
		for i := 1; i < int(cfg.window/time.Second); i++ {
			<-tick.C
			rec.on.Store(i%2 == 1)
		}
	}()
	win := d.run(ctx, yard, cfg.window, nil)
	<-toggled
	rec.on.Store(false)
	after := live.srv.StatszSnapshot()
	spans := rec.snapshot()
	var plain, traced []float64
	for i, n := range win.perSecond {
		if i%2 == 1 {
			traced = append(traced, n)
		} else {
			plain = append(plain, n)
		}
	}

	L["trace.untraced_ops_per_s"] = median(plain)
	L["trace.traced_ops_per_s"] = median(traced)
	if median(plain) > 0 {
		L["trace.overhead_share"] = 1 - median(traced)/median(plain)
	}
	L["trace.spans"] = float64(len(spans))
	L["client.body_mb_per_s"] = float64(win.bytes) / 1e6 / win.elapsed.Seconds()
	for _, kind := range []opKind{opCheckout, opCommit, opDiff} {
		lat := sortedCopy(win.lat[kind])
		L["client."+kindNames[kind]+"_p95_ms"] = percentile(lat, 0.95)
		L["client."+kindNames[kind]+"_p99_ms"] = percentile(lat, 0.99)
	}
	spanLayers(L, spans)
	serveCounters(L, before, after)
	repoCounters(L, s, live, dataDir)

	res.Attempted, res.Failed = win.attempted, win.failed
	if win.firstErr != "" {
		cfg.logf("FAILED op: %s", win.firstErr)
	}

	if err := directRepo(ctx, L, w, live); err != nil {
		return res, err
	}
	stopped = true
	if err := st.stop(); err != nil {
		return res, fmt.Errorf("closing the in-process stack: %w", err)
	}
	if s.durable {
		if err := directOpen(L, s, dataDir); err != nil {
			return res, err
		}
	}
	if err := directStore(ctx, L, w, filepath.Join(runDir, "nocache")); err != nil {
		return res, err
	}
	directDiff(L, w)
	timeouts, err := directPortfolio(ctx, L, w)
	if err != nil {
		return res, err
	}
	L["portfolio.timeouts"] += float64(timeouts)

	// The handler is the innermost layer a wrapper reaches, so serve's own
	// share of the median checkout is its handler time minus the
	// repository call timed directly. Where that call is the slower of the
	// two (it ran after the window, on other cache contents) the split
	// fails, and the excess is what the layers leave unattributed.
	handlerMS := L["trace.handler_ms_p50"]
	delete(L, "trace.handler_ms_p50")
	L["serve.self_ms_p50"] = max(0, handlerMS-L["versioning.checkout_ms_p50"])
	L["trace.unattributed_ms_p50"] = math.Abs(L["trace.checkout_p50_ms"] -
		(L["client.self_ms_p50"] + L["client.wire_ms_p50"] + L["serve.self_ms_p50"] + L["versioning.checkout_ms_p50"]))

	out := filepath.Join(cfg.outDir, "trace-"+s.name+".json")
	if err := rec.writeFile(out); err != nil {
		return res, fmt.Errorf("writing spans: %w", err)
	}
	cfg.logf("%d spans written to %s; tracing overhead %.1f%% of untraced ops/s", len(spans), out, 100*L["trace.overhead_share"])

	var g guards
	if L["client.retries"] > 0 {
		g.fail("client retried %v requests", L["client.retries"])
	}
	if L["serve.admission_rejected"] > 0 {
		g.fail("admission control rejected %v requests", L["serve.admission_rejected"])
	}
	if L["portfolio.timeouts"] > 0 {
		g.fail("%v solvers hit their deadline", L["portfolio.timeouts"])
	}
	if L["versioning.replan_failures"] > 0 {
		g.fail("%v re-plans failed", L["versioning.replan_failures"])
	}
	for _, f := range g.failures {
		cfg.logf("GUARD: %s", f)
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metric{L[m.name], m.unit}
	}
	res.Correct = res.Failed == 0 && len(g.failures) == 0
	return res, nil
}

func medianMS(ns []int64) float64 {
	v := make([]float64, len(ns))
	for i, n := range ns {
		v[i] = float64(n) / 1e6
	}
	return median(v)
}

// spanLayers turns the spans of the traced window into the client and
// serve numbers. The layer p50s describe the median full checkout, the
// one op every workload sends in bulk: they are the mean self times of
// the checkouts whose total lies between the 40th and 60th percentile,
// so they add up to that checkout's total. (Medians taken layer by
// layer do not: on fleet-write, where a checkout either finds its
// tenant open or reopens it, they missed the total by a quarter.)
func spanLayers(L layers, spans []span) {
	kindOf := make(map[uint64]opKind) // op id -> kind, from the client span's name
	total := make(map[uint64]int64)
	for _, s := range spans {
		if s.layer() == layerClient {
			kindOf[s.Op] = opKind(slices.Index(kindNames[:], strings.TrimPrefix(s.Name, layerClient+".")))
			total[s.Op] = s.End - s.Start
		}
	}
	handler := make(map[opKind][]int64)
	trips := make(map[uint64]int)
	var backendGet []int64
	for _, s := range spans {
		switch s.layer() {
		case layerWire:
			trips[s.Op]++
		case layerHandler:
			if k, ok := kindOf[s.Op]; ok {
				handler[k] = append(handler[k], s.End-s.Start)
			}
		case layerBackend:
			if s.Name == layerBackend+".get" {
				backendGet = append(backendGet, s.End-s.Start)
			}
		}
	}
	for _, n := range trips {
		L["client.retries"] += float64(n - 1)
	}
	L["serve.checkout_handler_ms_p50"] = medianMS(handler[opCheckout])
	L["serve.commit_handler_ms_p50"] = medianMS(handler[opCommit])
	L["serve.diff_handler_ms_p50"] = medianMS(handler[opDiff])
	L["store.backend_get_ms_p50"] = medianMS(backendGet)

	perOp := opLayers(spans)
	var checkouts []uint64
	for op, k := range kindOf {
		if k == opCheckout {
			checkouts = append(checkouts, op)
		}
	}
	sort.Slice(checkouts, func(i, j int) bool { return total[checkouts[i]] < total[checkouts[j]] })
	band := checkouts[len(checkouts)*2/5 : len(checkouts)*3/5]
	if len(band) == 0 {
		band = checkouts
	}
	for _, op := range band {
		n := float64(len(band)) * 1e6
		L["trace.checkout_p50_ms"] += float64(total[op]) / n
		L["client.self_ms_p50"] += float64(perOp[op][layerClient]) / n
		L["client.wire_ms_p50"] += float64(perOp[op][layerWire]) / n
		L["trace.handler_ms_p50"] += float64(perOp[op][layerHandler]+perOp[op][layerBackend]) / n
	}
}

func serveCounters(L layers, before, after serve.Statsz) {
	if before.RespCache != nil && after.RespCache != nil {
		hits := after.RespCache.Hits - before.RespCache.Hits
		misses := after.RespCache.Misses - before.RespCache.Misses
		L["serve.respcache_hit_ratio"] = ratio(hits, hits+misses)
		L["serve.respcache_rejected"] = float64(after.RespCache.Rejected - before.RespCache.Rejected)
	}
	L["serve.coalesced"] = float64(after.Endpoints["checkout"].Coalesced - before.Endpoints["checkout"].Coalesced)
	L["serve.admission_queued"] = float64(after.Admission.Queued - before.Admission.Queued)
	L["serve.admission_rejected"] = float64(after.Admission.Rejected - before.Admission.Rejected)
}

// repoCounters reads the counters the repositories keep themselves, as
// they stand at the end of the window: lifetime totals of the one
// repository, or sums over the tenants open at that moment (an evicted
// tenant's counters left with it).
func repoCounters(L layers, s spec, live *inproc, dataDir string) {
	var all []versioning.RepositoryStats
	versions := 0
	if live.mgr != nil {
		for _, st := range live.mgr.OpenStats() {
			all = append(all, st)
		}
		for _, info := range live.mgr.Infos() {
			versions += info.Versions
		}
		fleet := live.mgr.Fleet(1)
		L["tenant.opens"] = float64(fleet.Opens)
		L["tenant.reopens"] = float64(fleet.Reopens)
		L["tenant.evictions"] = float64(fleet.Evictions)
	} else {
		all = append(all, live.repo.Stats())
		versions = all[0].Versions
		hist, _ := live.repo.PlanHistory()
		for _, rec := range hist {
			if rec.CacheHit {
				L["portfolio.cache_hits"]++
			}
			for _, rep := range rec.Reports {
				if strings.Contains(rep.Err, "deadline") {
					L["portfolio.timeouts"]++
				}
			}
		}
	}
	var hits, checkouts int64
	for _, st := range all {
		hits += st.CacheHits
		checkouts += st.Checkouts
		L["versioning.wal_batches"] += float64(st.WALBatches)
		L["versioning.wal_batched_commits"] += float64(st.WALBatchedCommits)
		L["versioning.replans"] += float64(st.Replans)
		L["versioning.replan_failures"] += float64(st.ReplanFailures)
		L["versioning.migration_ms_total"] += float64(st.MigrationMicros) / 1e3
		L["versioning.migration_bytes"] += float64(st.MigrationBytes)
		L["store.pack_reads"] += float64(st.PackReads)
		L["store.loose_reads"] += float64(st.LooseReads)
		L["store.compactions"] += float64(st.Compactions)
		L["store.plan_retries"] += float64(st.PlanRetries)
		L["store.stored_bytes"] += float64(st.StoredBytes)
		L["store.objects"] += float64(st.Objects)
	}
	L["store.cache_hit_ratio"] = ratio(hits, checkouts)
	if s.durable && versions > 0 {
		journals, _ := filepath.Glob(filepath.Join(dataDir, "journal.wal"))
		more, _ := filepath.Glob(filepath.Join(dataDir, "*", "journal.wal"))
		var size int64
		for _, j := range append(journals, more...) {
			if fi, err := os.Stat(j); err == nil {
				size += fi.Size()
			}
		}
		L["versioning.wal_bytes_per_commit"] = float64(size) / float64(versions)
	}
}

// Sample sizes of the direct passes: enough for a median, small enough
// that the traced run stays about as long as an untraced one.
const (
	directCheckouts   = 400
	directCommits     = 100
	directReplanCount = 3
	directPairs       = 200
)

// directRepo times Repository.Checkout, Commit and Replan, and
// Manager.Acquire in multi mode, on the repositories the window just
// used, with the window's own ops.
func directRepo(ctx context.Context, L layers, w *workload, live *inproc) error {
	var acquireMS, checkoutMS, commitMS []float64
	acquire := func(t int) (*versioning.Repository, func(), error) {
		repo, release, ms, err := live.acquire(ctx, t)
		if live.mgr != nil {
			acquireMS = append(acquireMS, ms)
		}
		return repo, release, err
	}
	for i := range w.clients[0] {
		o := &w.clients[0][i]
		var call func(*versioning.Repository) error
		var into *[]float64
		switch {
		case o.kind == opCheckout && len(checkoutMS) < directCheckouts:
			into, call = &checkoutMS, func(r *versioning.Repository) error { _, err := r.Checkout(ctx, o.a); return err }
		case o.kind == opCommit && len(commitMS) < directCommits:
			into, call = &commitMS, func(r *versioning.Repository) error { _, err := r.Commit(ctx, o.a, o.lines); return err }
		default:
			continue
		}
		repo, release, err := acquire(o.tenant)
		if err != nil {
			return err
		}
		ms, err := timeMS(func() error { return call(repo) })
		release()
		if err != nil {
			return fmt.Errorf("direct %s: %w", kindNames[o.kind], err)
		}
		*into = append(*into, ms)
	}
	L["versioning.checkout_ms_p50"] = median(checkoutMS)
	L["versioning.commit_ms_p50"] = median(commitMS)
	L["tenant.acquire_ms_p50"] = median(acquireMS)
	L["tenant.acquire_ms_p95"] = percentile(sortedCopy(acquireMS), 0.95)
	return nil
}

// acquire returns tenant t's repository (the one repository in single
// mode) and, in multi mode, how long Manager.Acquire took.
func (p *inproc) acquire(ctx context.Context, t int) (repo *versioning.Repository, release func(), ms float64, err error) {
	if p.mgr == nil {
		return p.repo, func() {}, 0, nil
	}
	var h *tenant.Handle
	ms, err = timeMS(func() (err error) {
		h, err = p.mgr.Acquire(ctx, tenantName(t))
		return err
	})
	if err != nil {
		return nil, nil, 0, err
	}
	return h.Repo(), h.Release, ms, nil
}

// directReplans times Repository.Replan on repository 0.
func directReplans(ctx context.Context, L layers, w *workload, live *inproc) error {
	repo, release, _, err := live.acquire(ctx, 0)
	if err != nil {
		return err
	}
	defer release()
	var replanMS []float64
	for i := 0; i < directReplanCount; i++ {
		// A new version first, or the engine answers from its cache.
		if _, err := repo.Commit(ctx, 0, w.rounds[0][i%len(w.rounds[0])].lines); err != nil {
			return err
		}
		ms, err := timeMS(func() error { return repo.Replan(ctx) })
		if err != nil {
			return fmt.Errorf("direct re-plan: %w", err)
		}
		replanMS = append(replanMS, ms)
	}
	L["versioning.replan_ms_p50"] = median(replanMS)
	return nil
}

// directOpen times versioning.Open on what the stack left on disk: the
// journal replay and orphan sweep a restart pays (tenant t00's in multi
// mode).
func directOpen(L layers, s spec, dataDir string) error {
	ropt := s.repoOptions()
	ropt.DataDir = dataDir
	if s.tenants > 0 {
		ropt.DataDir = filepath.Join(dataDir, tenantName(0))
	}
	var repo *versioning.Repository
	ms, err := timeMS(func() (err error) {
		repo, err = versioning.Open("dsvd", ropt)
		return err
	})
	if err != nil {
		return fmt.Errorf("reopening %s: %w", ropt.DataDir, err)
	}
	L["versioning.open_ms"] = ms
	return repo.Close()
}

// directStore loads repository 0's corpus into a fresh repository whose
// content cache is off, on a counting backend, and checks the window's
// versions out of it: every checkout walks its whole retrieval path, so
// the delta applies per checkout are the installed plan's realized
// depth, the paper's R(v) counted in deltas.
func directStore(ctx context.Context, L layers, w *workload, dir string) error {
	s := w.spec
	ropt := s.repoOptions()
	ropt.CacheEntries = -1
	ropt.MaintenanceWorkers = -1 // re-plan inside Commit: the layout is then the seed's alone
	rec := newRecorder()
	rec.on.Store(true)
	var inner store.Backend = store.NewShardedMemBackend(0)
	if s.durable {
		if err := os.Mkdir(dir, 0o755); err != nil {
			return err
		}
		disk, err := store.OpenDiskBackend(dir)
		if err != nil {
			return err
		}
		inner, ropt.DataDir = disk, dir
	}
	backend := &tracedBackend{Backend: inner, rec: rec}
	ropt.Backend = backend
	repo, err := versioning.Open("nocache", ropt)
	if err != nil {
		return err
	}
	defer repo.Close()
	c := w.repos[0]
	var userBytes int64
	for v, lines := range c.contents {
		if len(c.parents[v]) == 0 {
			_, err = repo.Commit(ctx, versioning.NoParent, lines)
		} else {
			_, err = repo.CommitMerge(ctx, c.parents[v], lines)
		}
		if err != nil {
			return fmt.Errorf("loading the cache-less repository: %w", err)
		}
		userBytes += int64(diff.ByteSize(lines))
	}
	if s.replanEvery < 0 {
		if err := repo.Replan(ctx); err != nil {
			return err
		}
	}
	L["store.backend_put_bytes_per_user_byte"] = float64(backend.putBytes.Load()) / float64(userBytes)

	gets0, applies0 := backend.gets.Load(), repo.Stats().DeltaApplies
	var ms []float64
	for i := range w.clients[0] {
		o := &w.clients[0][i]
		if o.kind != opCheckout || o.tenant != 0 {
			continue
		}
		m, err := timeMS(func() error { _, err := repo.Checkout(ctx, o.a); return err })
		if err != nil {
			return err
		}
		if ms = append(ms, m); len(ms) == directCheckouts {
			break
		}
	}
	n := float64(len(ms))
	L["store.checkout_ms_p50"] = median(ms)
	L["store.delta_applies_per_checkout"] = float64(repo.Stats().DeltaApplies-applies0) / n
	L["store.backend_gets_per_checkout"] = float64(backend.gets.Load()-gets0) / n
	if L["store.backend_get_ms_p50"] == 0 {
		// Multi mode: the manager opens each tenant's backend itself, so the
		// window recorded no backend spans; these are this pass's.
		var gets []int64
		for _, sp := range rec.snapshot() {
			if sp.Name == layerBackend+".get" {
				gets = append(gets, sp.End-sp.Start)
			}
		}
		L["store.backend_get_ms_p50"] = medianMS(gets)
	}
	return nil
}

// directDiff times the Myers diff and its application on the window's
// diff pairs (client 0's).
func directDiff(L layers, w *workload) {
	var computeMS, applyMS []float64
	edits := 0
	for i := range w.clients[0] {
		o := &w.clients[0][i]
		if o.kind != opDiff {
			continue
		}
		a, b := w.repos[o.tenant].contents[o.a], w.repos[o.tenant].contents[o.b]
		var d diff.Delta
		ms, _ := timeMS(func() error { d = diff.Compute(a, b); return nil })
		computeMS = append(computeMS, ms)
		ms, _ = timeMS(func() error { _, err := d.Apply(a); return err })
		applyMS = append(applyMS, ms)
		for _, c := range d.Cmds {
			switch c.Op {
			case diff.OpDelete:
				edits += c.N
			case diff.OpInsert:
				edits += len(c.Lines)
			}
		}
		if len(computeMS) == directPairs {
			break
		}
	}
	L["diff.compute_ms_p50"] = median(computeMS)
	L["diff.apply_ms_p50"] = median(applyMS)
	L["diff.edit_lines_per_pair"] = float64(edits) / float64(max(1, len(computeMS)))
}

// corpusGraph rebuilds the version graph a repository holds after
// committing c: node costs are content sizes, and every parent link is
// an edge pair weighed by the Myers deltas both ways, as Commit and
// CommitMerge weigh them.
func corpusGraph(c *repoCorpus) *versioning.Graph {
	g := versioning.NewGraph("bench")
	for v, lines := range c.contents {
		g.AddNode(diff.ByteSize(lines))
		for _, p := range c.parents[v] {
			fwd := diff.Compute(c.contents[p], lines).StorageCost()
			rev := diff.Compute(lines, c.contents[p]).StorageCost()
			g.AddEdge(p, nodeID(v), fwd, fwd)
			g.AddEdge(nodeID(v), p, rev, rev)
		}
	}
	return g
}

// lemma7Versions caps the graph the MMR and BSR races see. Both reduce
// to their bounded twin by Lemma 7's binary search, which runs the
// inner solver some thirty times; on replan-scale's full graph that
// passes the 5 s solver deadline.
const lemma7Versions = 200

// directPortfolio races all four regimes on repository 0's graph (MMR
// and BSR on its first lemma7Versions versions), each under the bound
// the repository would derive for it, and reports the race and
// per-solver times. It returns how many solvers timed out.
func directPortfolio(ctx context.Context, L layers, w *workload) (timeouts int, err error) {
	c := w.repos[0]
	full := corpusGraph(c)
	head := full
	if n := lemma7Versions; len(c.contents) > n {
		head = corpusGraph(&repoCorpus{parents: c.parents[:n], contents: c.contents[:n]})
	}
	eng := versioning.NewEngine(versioning.EngineOptions{SolverTimeout: solverTimeout, DisableILP: true, CacheSize: -1})
	solverKeys := map[string]string{
		"LMG": "portfolio.lmg_ms", "LMG-All": "portfolio.lmg_all_ms", "DP-MSR": "portfolio.dp_msr_ms",
		"MP": "portfolio.mp_ms", "DP-BMR": "portfolio.dp_bmr_ms", "DP-BMR-par": "portfolio.dp_bmr_par_ms",
	}
	for _, race := range []struct {
		key     string
		problem versioning.Problem
		g       *versioning.Graph
	}{
		{"portfolio.msr_race_ms", versioning.ProblemMSR, full},
		{"portfolio.mmr_race_ms", versioning.ProblemMMR, head},
		{"portfolio.bsr_race_ms", versioning.ProblemBSR, head},
		{"portfolio.bmr_race_ms", versioning.ProblemBMR, full},
	} {
		// The bound Repository.constraintFor derives when -constraint is 0.
		mst, err := versioning.MinStoragePlan(race.g)
		if err != nil {
			return timeouts, err
		}
		constraint := versioning.Cost(2 * float64(mst.Cost.Storage))
		switch race.problem {
		case versioning.ProblemBSR:
			constraint = mst.Cost.SumRetrieval
		case versioning.ProblemBMR:
			constraint = mst.Cost.MaxRetrieval
		}
		var res versioning.PortfolioResult
		ms, err := timeMS(func() (err error) {
			res, err = eng.Solve(ctx, race.g, race.problem, constraint)
			return err
		})
		if err != nil {
			return timeouts, fmt.Errorf("%s race: %w", race.problem, err)
		}
		L[race.key] = ms
		for _, rep := range res.Reports {
			if errors.Is(rep.Err, context.DeadlineExceeded) {
				timeouts++
			}
			if key, ok := solverKeys[rep.Solver]; ok {
				L[key] = msOf(rep.Duration)
			}
			if race.problem == versioning.ProblemMSR && rep.Solver == "LMG" && rep.Err == nil && res.Solution.Cost.SumRetrieval > 0 {
				L["portfolio.lmg_objective_over_winner"] = float64(rep.Cost.SumRetrieval) / float64(res.Solution.Cost.SumRetrieval)
			}
		}
	}
	return timeouts, nil
}
