package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"syscall"
	"time"

	"repro/serve"
	"repro/versioning"
)

// config is one invocation of the benchmark.
type config struct {
	spec    spec
	seed    int64
	window  time.Duration
	clients int
	workdir string // scratch root inside the checkout; a run directory is made and removed under it
	outDir  string // where the traced run writes its spans
	minTail int    // samples a reported percentile needs beyond it
	logf    func(format string, args ...any)
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line the benchmark prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// numTrials is how many fresh daemons a run measures; see measure.
const numTrials = 3

// trial is what one daemon instance yielded. The slowdowns are the
// machine's in each phase, from the reference units done during it (see
// reference.go).
type trial struct {
	setupS, setupSlow float64
	plan              planResult
	planSlow          float64
	win               windowResult
	winSlow           float64
	rssMB             float64
}

// endToEnd lists the end-to-end metrics with their units; BENCHMARK.json
// adds the direction and the bound of each.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"}, {"ops_per_s", "1/s"},
	{"checkout_p50_ms", "ms"}, {"commit_p50_ms", "ms"}, {"diff_p50_ms", "ms"},
	{"replan_s", "s"}, {"plan_sum_retrieval", "count"}, {"storage_ratio", "ratio"}, {"peak_rss_mb", "MB"},
}

// runUntraced measures the end-to-end metrics against a dsvd process
// built at dsvd.
func runUntraced(ctx context.Context, cfg config, dsvd string) (result, error) {
	// On one CPU a collection in this process takes a quarter of it for
	// as long as it runs, from the daemon and from the reference units
	// alike: a 0.10 ms unit read 0.15 ms for stretches of a few ms. The
	// generator therefore collects only between phases (measure calls
	// runtime.GC there), unless its heap passes the limit, which a
	// window's worth of decoded responses stays well below.
	debug.SetGCPercent(-1)
	debug.SetMemoryLimit(2 << 30)
	return measure(ctx, cfg, func(runDir string) launcher {
		return processLauncher(cfg.spec, dsvd, filepath.Join(runDir, "dsvd.log"))
	})
}

// measure runs set-up, plan phase, window and read-back against the
// stacks launchIn's launcher makes, and reports the end-to-end metrics.
func measure(ctx context.Context, cfg config, launchIn func(runDir string) launcher) (result, error) {
	res := result{Metrics: map[string]metric{}}
	s := cfg.spec
	w := generate(s, cfg.seed, cfg.clients)
	runDir, err := os.MkdirTemp(cfg.workdir, "run-")
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(runDir)
	launch := launchIn(runDir)
	// Each phase is read against the unit that resembles what it waits
	// for: the CPU unit, unless the phase mostly waits for the disk, as
	// every phase does against a daemon that fsyncs its journal (a re-plan
	// of a few small versions is a few dozen fsynced objects and little
	// else). history-read's re-plans also rewrite their objects, 250 of
	// them, but spend nine tenths of their time on the CPU, diffing and
	// patching 190 KB manifests.
	cpu := cpuYardstick()
	setupYard, planYard, windowYard := cpu, cpu, cpu
	var disk *yardstick
	if s.durable {
		if disk, err = diskYardstick(filepath.Join(runDir, "reference")); err != nil {
			return res, err
		}
		defer disk.close()
		if s.fsync {
			setupYard, planYard, windowYard = disk, disk, disk
		}
	}
	cfg.logf("workload %s seed %d: %d clients, closed loop, window %s, data on %s (%s), flush policy: fsync=%v",
		s.name, cfg.seed, cfg.clients, cfg.window, runDir, fsType(runDir), s.fsync)

	// A run is numTrials independent trials, each on a fresh daemon:
	// set-up, plan phase, its share of the window, read-back. Every
	// metric is the median of the trials. The host's spells of slowness
	// last seconds to minutes; the reference units (reference.go) take
	// out what they can measure, and the median over trials spread over
	// half a minute takes out a spell that hits one or two of them.
	var (
		st     stack
		d      *driver
		g      guards
		trials []trial
	)
	teardown := func() {
		if st != nil {
			d.close()
			_ = st.stop() // SIGKILL of our own child; nothing to report
			st = nil
		}
	}
	defer teardown()
	for i := 0; i < numTrials; i++ {
		teardown()
		dataDir := filepath.Join(runDir, fmt.Sprintf("data%d", i))
		if err := os.Mkdir(dataDir, 0o755); err != nil {
			return res, err
		}
		var tr trial
		runtime.GC()
		t0 := time.Now()
		if st, err = launch(dataDir); err != nil {
			return res, err
		}
		d = newDriver(w, st.url(), nil)
		setupRef, err := d.setUp(ctx, setupYard, cfg.logf)
		if err != nil {
			return res, fmt.Errorf("set-up %d: %w", i, err)
		}
		tr.setupS, tr.setupSlow = time.Since(t0).Seconds(), setupYard.slowdown(setupRef)
		// Set-up leaves dirty pages behind, and so does the plan phase; flush
		// them before the plan phase and again before the window, or the
		// kernel's writeback lands in what is timed next.
		syscall.Sync()
		runtime.GC()
		t1 := time.Now()
		if tr.plan, err = d.planPhase(ctx, planYard); err != nil {
			return res, err
		}
		tr.planSlow = planYard.slowdown(tr.plan.refMS)
		planTook := time.Since(t1)
		syscall.Sync()
		runtime.GC()
		before, err := d.cl.Statsz(ctx)
		if err != nil {
			return res, fmt.Errorf("reading /statsz: %w", err)
		}
		tr.win = d.run(ctx, windowYard, cfg.window/numTrials, nil)
		tr.winSlow = windowYard.slowdown(tr.win.refMS)
		after, err := d.cl.Statsz(ctx)
		if err != nil {
			return res, fmt.Errorf("reading /statsz: %w", err)
		}
		g.checkStatsz(s, before, after)
		if s.tenants == 0 {
			pz, err := d.repos[0].Planz(ctx, 0)
			if err != nil {
				return res, fmt.Errorf("reading /planz: %w", err)
			}
			g.checkPlanz(pz)
		}
		if tr.rssMB, err = st.peakRSSMB(); err != nil {
			return res, err
		}

		// The last trial's daemon is killed -9 and restarted on its
		// directory before its acknowledged commits are read back, so they
		// come from what the journal holds. This is process-crash
		// durability only: the operating system's cache survives the kill,
		// so an unsynced journal passes too. The other trials, and the
		// in-memory workloads, are read back from the live daemon.
		if s.durable && i == numTrials-1 {
			acks := d.acks
			teardown()
			if st, err = launch(dataDir); err != nil {
				return res, fmt.Errorf("restart after kill: %w", err)
			}
			d = newDriver(w, st.url(), nil)
			d.acks = acks
		}
		t2 := time.Now()
		backAttempted, backFailed, backErr := d.readBack(ctx)
		res.Attempted += tr.win.attempted + backAttempted
		res.Failed += tr.win.failed + backFailed
		for _, e := range []string{tr.win.firstErr, backErr} {
			if e != "" {
				cfg.logf("FAILED op: %s", e)
			}
		}
		cfg.logf("trial %d, as measured: set-up %.3f s at %.3fx nominal; plan phase %s at %.3fx; %d ops in %s at %.3fx nominal (%d reference units), per second %.0f; %d commits read back in %s",
			i, tr.setupS, tr.setupSlow, planTook.Round(time.Millisecond), tr.planSlow,
			tr.win.attempted, tr.win.elapsed.Round(time.Millisecond), tr.winSlow, len(tr.win.refMS), tr.win.perSecond, backAttempted, time.Since(t2).Round(time.Millisecond))
		cfg.logf("trial %d re-plans, as measured, ms@slowdown: %s", i, tr.plan.replans)
		trials = append(trials, tr)
		os.RemoveAll(dataDir)
	}

	if disk != nil && disk.err != nil {
		return res, fmt.Errorf("reference unit: %w", disk.err)
	}

	over := func(f func(trial) float64) float64 {
		v := make([]float64, len(trials))
		for i, tr := range trials {
			v[i] = f(tr)
		}
		return median(v)
	}
	last := trials[len(trials)-1].plan
	for _, tr := range trials {
		if tr.plan.sumRetrieval != last.sumRetrieval || tr.plan.storedBytes != last.storedBytes {
			g.fail("the plan's cost differs between trials of one seed: sum retrieval %d vs %d, stored bytes %d vs %d",
				tr.plan.sumRetrieval, last.sumRetrieval, tr.plan.storedBytes, last.storedBytes)
			break
		}
	}
	values := map[string]float64{
		"setup_s":            over(func(t trial) float64 { return t.setupS / t.setupSlow }),
		"ops_per_s":          over(func(t trial) float64 { return t.win.opsPerSecond() * t.winSlow }),
		"replan_s":           replanAtReference(trials),
		"plan_sum_retrieval": float64(last.sumRetrieval),
		"storage_ratio":      float64(last.storedBytes) / float64(last.fullStorage),
		"peak_rss_mb":        over(func(t trial) float64 { return t.rssMB }),
	}
	// Path-scoped checkouts count in ops_per_s only: their bodies are a
	// twelfth of a full checkout's, and one percentile over both would
	// describe neither. The tails are printed, not reported: see README.md.
	for _, kind := range []opKind{opCheckout, opCommit, opDiff} {
		name := kindNames[kind]
		values[name+"_p50_ms"] = over(func(t trial) float64 { return median(t.win.lat[kind]) / t.winSlow })
		for i, tr := range trials {
			lat := sortedCopy(tr.win.lat[kind])
			cfg.logf("trial %d %s, as measured: %d samples, p50 %.3f ms, p95 %.3f ms, p99 %.3f ms, max %.3f ms",
				i, name, len(lat), percentile(lat, 0.50), percentile(lat, 0.95), percentile(lat, 0.99), percentile(lat, 1))
			if tail := len(lat) / 2; tail < cfg.minTail {
				g.fail("trial %d: %s p50 has %d samples beyond it, needs %d", i, name, tail, cfg.minTail)
			}
		}
	}
	for _, m := range endToEnd {
		res.Metrics[m.name] = metric{values[m.name], m.unit}
	}

	for _, f := range g.failures {
		cfg.logf("GUARD: %s", f)
	}
	res.Correct = res.Failed == 0 && len(g.failures) == 0
	return res, nil
}

// guards collects the reasons a run measured the wrong thing. Any of
// them fails the run: a number taken while requests were shed, a cache
// answered (or did not answer) against the workload's intent, or a
// solver timed out, is not the number its name promises.
type guards struct{ failures []string }

func (g *guards) fail(format string, args ...any) {
	g.failures = append(g.failures, fmt.Sprintf(format, args...))
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// checkStatsz reads /statsz as it stood before and after the window:
// nothing may have been shed or failed since the daemon started, and
// the cache hit ratios, over the window alone, must be what the
// workload is there for.
func (g *guards) checkStatsz(s spec, before, z serve.Statsz) {
	if z.Admission.Rejected > 0 {
		g.fail("admission control rejected %d requests", z.Admission.Rejected)
	}
	for name, ep := range z.Endpoints {
		if ep.Rejected > 0 || ep.Errors > 0 {
			g.fail("endpoint %s: %d rejected, %d errors", name, ep.Rejected, ep.Errors)
		}
	}
	respHit := 0.0
	if z.RespCache != nil && before.RespCache != nil {
		hits, misses := z.RespCache.Hits-before.RespCache.Hits, z.RespCache.Misses-before.RespCache.Misses
		respHit = ratio(hits, hits+misses)
	}
	if s.minRespHit > 0 && respHit < s.minRespHit {
		g.fail("response-cache hit ratio %.3f below %.2f: reads are reaching the store", respHit, s.minRespHit)
	}
	if s.maxRespHit > 0 && respHit > s.maxRespHit {
		g.fail("response-cache hit ratio %.3f above %.2f: the corpus fits the cache", respHit, s.maxRespHit)
	}
	repos := z.Tenants
	if s.tenants == 0 {
		repos = map[string]versioning.RepositoryStats{"": z.Repo}
	}
	for name, r := range repos {
		if r.ReplanFailures > 0 || r.ReplanError != "" {
			g.fail("repository %q: %d re-plan failures (%s)", name, r.ReplanFailures, r.ReplanError)
		}
		was := before.Repo // zero in multi mode, where no workload bounds this ratio
		if hit := ratio(r.CacheHits-was.CacheHits, r.Checkouts-was.Checkouts); s.maxStoreHit > 0 && hit > s.maxStoreHit {
			g.fail("store cache hit ratio %.3f above %.2f: the corpus fits the cache", hit, s.maxStoreHit)
		}
	}
	if s.wantEvictions && (z.Fleet == nil || z.Fleet.Evictions == 0) {
		g.fail("no tenant was evicted: -max-open is not below the working set")
	}
}

func (g *guards) checkPlanz(pz serve.Planz) {
	for _, rec := range pz.History {
		if rec.Failed {
			g.fail("re-plan %d failed: %s", rec.Seq, rec.Err)
		}
		for _, rep := range rec.Reports {
			if strings.Contains(rep.Err, "deadline") {
				g.fail("re-plan %d: solver %s hit its deadline", rec.Seq, rep.Solver)
			}
		}
	}
}
