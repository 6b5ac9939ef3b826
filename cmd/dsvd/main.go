// Command dsvd is the dataset-versioning serving daemon: one Repository
// — or a whole multi-tenant fleet of them — behind HTTP (the handler
// stack lives in package serve). Clients commit versions and check them
// out; the daemon keeps every storage layout optimal by re-solving the
// configured regime through the portfolio engine every -replan-every
// commits and migrating its content-addressed store to the winning plan.
//
// Quick start (single repository):
//
//	dsvd -addr :8080 -problem MSR -replan-every 8 &
//	curl -s localhost:8080/commit -d '{"parent":-1,"lines":["v0 line"]}'
//	curl -s localhost:8080/commit -d '{"parent":0,"lines":["v0 line","v1 line"]}'
//	curl -s localhost:8080/checkout/1
//	curl -s localhost:8080/plan
//	curl -s localhost:8080/statsz
//
// Multi-tenant fleet (-multi): the same route table is registered under
// /t/{tenant}/..., tenants open lazily on first touch with their own
// data dir under -tenants-dir, an LRU (-max-open) bounds open
// repositories (evicted tenants flush cleanly and reopen transparently
// on the next request), per-tenant quotas (-quota-max-objects,
// -quota-max-bytes, -quota-commit-rate, -quota-commit-burst) shed
// over-limit commits with 429 + Retry-After, and GET /fleetz reports
// open/eviction counts plus per-tenant top-k usage:
//
//	dsvd -addr :8080 -multi -tenants-dir ./tenants -max-open 64 &
//	curl -s localhost:8080/t/alice/commit -d '{"parent":-1,"lines":["hi"]}'
//	curl -s localhost:8080/t/alice/checkout/0
//	curl -s localhost:8080/fleetz
//
// Storage is pluggable: by default versions live in a sharded
// in-memory backend; with -data-dir (or -multi -tenants-dir) the
// daemon runs on durable disk backends plus write-ahead commit
// journals, and a restart replays the journals so the full committed
// history survives a kill. A commit's one durable write is its journal
// record: the backend keeps the delta in memory and packs it with others
// later. Concurrent commits share journal writes: one leader writes —
// and with -fsync, fsyncs — the whole batch while later commits gather
// for the next, and each is acknowledged only after its batch is
// durable. Plan
// maintenance (the -replan-every re-solve and store migration) runs in a
// background worker so it never sits on the commit path. SIGINT and
// SIGTERM trigger a graceful shutdown: in-flight requests drain, then
// every open repository's journal and backend are flushed, all within
// the -drain deadline.
//
// Serving is hardened for real traffic: admission control runs
// 4×GOMAXPROCS requests at once, queues twice that for at most 100ms
// each, and sheds the rest with 429 + Retry-After: 1; concurrent
// checkouts of the same version share one reconstruction, deduplicated
// once, in each repository's store (/statsz reports the followers as
// endpoints.checkout.coalesced); per-endpoint latency/throughput
// counters are served at /statsz.
//
// Observability: -trace-sample samples that fraction of requests into
// end-to-end traces (clients can force one with an X-DSV-Trace
// header regardless of the rate); the flight recorder keeps the last
// 512 traces plus per-endpoint tail outliers at GET /tracez, and SIGQUIT
// dumps the same snapshot to the log, with the plan observatory's vital
// signs (one line per repository, or per open tenant under -multi, in
// name order). The observatory runs at a fixed size: GET /planz keeps
// the last 64 plan passes. GET /metricsz serves the /statsz snapshot
// in Prometheus text format, -slow-log logs requests over a threshold
// with their trace IDs, and -debug-addr serves net/http/pprof on a
// separate listener.
// -version prints the embedded build identity and exits.
//
// -demo N preloads a synthetic history of N commits (seed 42) so
// /checkout and /plan have something to serve immediately (single-repo
// mode only).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/serve"
	"repro/tenant"
	"repro/versioning"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:]); err != nil {
		fmt.Fprintf(os.Stderr, "dsvd: %v\n", err)
		os.Exit(1)
	}
}

// demoSeed seeds the synthetic history -demo preloads.
const demoSeed = 42

// run serves until ctx is cancelled, then drains and flushes storage.
func run(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dsvd", flag.ExitOnError)
	var (
		addr        = fs.String("addr", ":8080", "listen address")
		problemStr  = fs.String("problem", "MSR", "re-planning regime: MSR|MMR|BSR|BMR (or MST|SPT baselines)")
		constraint  = fs.Int64("constraint", 0, "regime bound; 0 derives one from the minimum-storage plan")
		autoFactor  = fs.Float64("auto-factor", 2, "slack multiplier for automatic storage budgets")
		replanEvery = fs.Int("replan-every", 8, "re-plan and migrate every k commits (negative: only via POST /replan)")
		cache       = fs.Int("cache", 256, "checkout LRU entries (negative disables)")
		cacheBytes  = fs.Int64("cache-bytes", 0, "checkout LRU byte budget (0 = 64 MiB; -cache -1 disables)")
		respCache   = fs.Int64("resp-cache", 0, "encoded checkout-response cache byte budget (0 = 64 MiB, negative disables)")
		dataDir     = fs.String("data-dir", "", "durable storage root (objects + commit journal); empty serves from memory")
		fsync       = fs.Bool("fsync", false, "fsync the commit journal on every commit (with -data-dir)")
		timeout     = fs.Duration("timeout", 5*time.Second, "per-solver deadline inside re-planning races (0 = 5s, negative = none)")
		drain       = fs.Duration("drain", 10*time.Second, "graceful-shutdown deadline for in-flight requests and storage flush")
		demo        = fs.Int("demo", 0, "preload a synthetic history of N commits, seed 42 (single-repo mode)")

		version     = fs.Bool("version", false, "print the embedded build identity and exit")
		traceSample = fs.Float64("trace-sample", 0, "fraction of requests traced end-to-end (0 traces only client-forced requests; see /tracez)")
		slowLog     = fs.Duration("slow-log", 0, "log requests slower than this with their trace IDs (0 disables)")
		debugAddr   = fs.String("debug-addr", "", "separate listen address for net/http/pprof (empty disables)")

		multi      = fs.Bool("multi", false, "serve a multi-tenant fleet under /t/{tenant}/...")
		tenantsDir = fs.String("tenants-dir", "", "durable root for per-tenant data dirs (with -multi; empty serves tenants from memory)")
		maxOpen    = fs.Int("max-open", tenant.DefaultMaxOpen, "max concurrently open tenant repositories (LRU-evicted beyond; negative disables eviction)")
		quotaObj   = fs.Int("quota-max-objects", 0, "per-tenant cap on content-addressed objects (0 = unlimited)")
		quotaBytes = fs.Int64("quota-max-bytes", 0, "per-tenant cap on logical bytes (0 = unlimited)")
		quotaRate  = fs.Float64("quota-commit-rate", 0, "per-tenant commit token-bucket refill rate per second (0 = unlimited)")
		quotaBurst = fs.Int("quota-commit-burst", 0, "per-tenant commit token-bucket capacity (0 = max(1, rate rounded down))")
	)
	_ = fs.Parse(args) // ExitOnError: a bad flag exits 2 and -h exits 0, as flag.Parse did
	if *version {
		fmt.Println(buildinfo.Get().String())
		return nil
	}
	// A negative budget is no budget at all, not the default: refuse it
	// rather than serve 64 MiB the operator did not ask for.
	if *cacheBytes < 0 {
		return errors.New("-cache-bytes must not be negative; disable the checkout cache with -cache -1")
	}
	problem, err := core.ParseProblem(*problemStr)
	if err != nil {
		return err
	}
	// The tracer is constructed even at sample rate 0 so a client can
	// always force a trace with an X-DSV-Trace header and read it back
	// from /tracez.
	tracer := trace.New(trace.Options{Sample: *traceSample})
	ropt := versioning.RepositoryOptions{
		Problem:       problem,
		Constraint:    *constraint,
		AutoFactor:    *autoFactor,
		ReplanEvery:   *replanEvery,
		CacheEntries:  *cache,
		CacheBytes:    *cacheBytes,
		SyncWrites:    *fsync,
		EngineOptions: versioning.EngineOptions{SolverTimeout: *timeout},
	}

	var handler *serve.Server
	var mgr *tenant.Manager
	var repo *versioning.Repository
	sopt := serve.Options{
		Tracer:         tracer,
		SlowRequest:    *slowLog,
		RespCacheBytes: *respCache,
	}
	if *multi {
		// Refuse single-repo flags that would otherwise be dropped
		// silently: an operator pointing a fleet at -data-dir would get
		// in-memory tenants and lose everything on restart.
		if *dataDir != "" {
			return errors.New("-data-dir is single-repo only; use -tenants-dir with -multi")
		}
		if *demo > 0 {
			return errors.New("-demo is single-repo only")
		}
		mgr = tenant.NewManager(tenant.Options{
			RootDir: *tenantsDir,
			MaxOpen: *maxOpen,
			Repo:    ropt,
			Tracer:  tracer,
			Quota: tenant.Quota{
				MaxObjects:      *quotaObj,
				MaxLogicalBytes: *quotaBytes,
				CommitsPerSec:   *quotaRate,
				CommitBurst:     *quotaBurst,
			},
		})
		handler = serve.NewMulti(mgr, sopt)
		if *tenantsDir != "" {
			log.Printf("dsvd: multi-tenant fleet rooted at %s (max %d open)", *tenantsDir, *maxOpen)
		} else {
			log.Printf("dsvd: multi-tenant fleet in memory, eviction disabled (set -tenants-dir to bound open tenants with -max-open)")
		}
	} else {
		ropt.DataDir = *dataDir
		repo, err = versioning.Open("dsvd", ropt)
		if err != nil {
			return err
		}
		if *dataDir != "" {
			log.Printf("dsvd: durable storage in %s (%d versions recovered)", *dataDir, repo.Versions())
		}
		if *demo > 0 && repo.Versions() == 0 {
			src := versioning.GenerateRepo("dsvd-demo", *demo, demoSeed)
			ctx := context.Background()
			for v := 0; v < src.Graph.N(); v++ {
				if _, err := repo.Commit(ctx, src.Parents[v], src.Contents[v]); err != nil {
					return fmt.Errorf("preloading demo commit %d: %w", v, err)
				}
			}
			log.Printf("dsvd: preloaded %d demo commits (seed %d)", *demo, demoSeed)
		}
		handler = serve.New(repo, sopt)
	}

	// SIGQUIT dumps the flight recorder — the same snapshot /tracez
	// serves — plus the plan observatory's vital signs, without
	// disturbing the process, for the case where the daemon is wedged
	// enough that HTTP is not answering.
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer func() {
		signal.Stop(quitCh)
		close(quitCh) // ends the dump goroutine
	}()
	go func() {
		for range quitCh {
			buf, err := json.Marshal(tracer.Recorder().Snapshot())
			if err != nil {
				log.Printf("dsvd: flight recorder dump failed: %v", err)
				continue
			}
			log.Printf("dsvd: flight recorder dump: %s", buf)
			z := handler.StatszSnapshot()
			repos := z.Tenants
			if mgr == nil {
				repos = map[string]versioning.RepositoryStats{z.Repo.Name: z.Repo}
			}
			for _, name := range metrics.SortedKeys(repos) {
				log.Printf("dsvd: plan observatory [%s]: %s", name, repos[name].PlanContext())
			}
		}
	}()

	if *debugAddr != "" {
		// pprof gets its own listener so profiling traffic never competes
		// with serving traffic for admission slots (and is never exposed
		// on the public address).
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			log.Printf("dsvd: pprof on %s/debug/pprof/", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, dmux); err != nil {
				log.Printf("dsvd: pprof listener: %v", err)
			}
		}()
	}

	srv := &http.Server{Addr: *addr, Handler: handler}
	errCh := make(chan error, 1)
	go func() {
		log.Printf("dsvd: serving %s (constraint %d, re-plan every %d commits) on %s",
			problem, *constraint, *replanEvery, *addr)
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()
	closeStorage := func(deadline context.Context) error {
		if mgr != nil {
			// Close every open tenant repository (journal + backend flush per
			// tenant), bounded by the drain deadline: a hung flush must not
			// wedge shutdown forever, but an abandoned one is reported.
			done := make(chan error, 1)
			go func() { done <- mgr.Close() }()
			select {
			case err := <-done:
				return err
			case <-deadline.Done():
				return fmt.Errorf("tenant close exceeded drain deadline: %w", deadline.Err())
			}
		}
		return repo.Close()
	}
	select {
	case err := <-errCh:
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if cerr := closeStorage(shutdownCtx); cerr != nil {
			log.Printf("dsvd: closing storage: %v", cerr)
		}
		return err
	case <-ctx.Done():
	}
	// Graceful shutdown: stop accepting, drain in-flight requests, then
	// flush every journal and backend so a restart recovers everything.
	// The whole sequence shares one -drain deadline.
	log.Printf("dsvd: shutting down (draining up to %s)", *drain)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		log.Printf("dsvd: drain incomplete: %v", err)
	}
	if err := closeStorage(shutdownCtx); err != nil {
		return fmt.Errorf("flushing storage: %w", err)
	}
	log.Printf("dsvd: storage flushed, bye")
	return nil
}
