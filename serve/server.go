// Package serve is dsvd's HTTP serving layer: it wires one
// versioning.Repository — or a whole tenant.Manager fleet of them — to
// HTTP and hardens the hot path for real traffic. There is one route
// table (routes); New registers it at the root for a fixed repository,
// NewMulti under /t/{tenant} with each request leasing its tenant's
// repository from the manager for the request's duration. The
// repository endpoints:
//
//	POST /commit         {"parent": -1, "lines": [...]} -> wire.CommitResult
//	                     ({"parents": [2, 5], ...} commits a multi-parent merge)
//	GET  /checkout/{id}  -> wire.Checkout
//	GET  /checkout/{id}?path=p  manifest checkout narrowed to one path scope
//	GET  /diff/{a}/{b}   -> wire.DiffResult: the edit script between two versions
//	GET  /log/{id}       -> LogResponse: first-parent ancestry (?limit= bounds the walk)
//	POST /checkout       {"ids": [0, 3, 7]} -> list of wire.Checkout, one per id
//	POST /replan         force a portfolio re-plan now
//	GET  /plan           -> versioning.PlanSummary
//	GET  /planz          -> Planz: plan history and current-plan explanation
//	GET  /stats          -> versioning.RepositoryStats
//	GET  /statsz         -> Statsz: per-endpoint latency/throughput counters
//	GET  /metricsz       -> Prometheus text exposition of every counter/histogram
//	GET  /tracez         -> flight recorder: recent + outlier traces (JSON)
//	GET  /healthz        liveness probe (includes build identity)
//
// NewMulti (see multi.go) adds GET /fleetz.
//
// Hardening beyond the bare handlers:
//
//   - Admission control: at most 4×GOMAXPROCS requests execute at once;
//     a queue of twice that absorbs bursts for at most 100ms each, and
//     overflow is rejected with 429 + Retry-After: 1 instead of letting
//     goroutines and latency pile up unbounded. Probes (/healthz,
//     /statsz, /fleetz) bypass the limiter so operators can observe an
//     overloaded server.
//   - No serving-side checkout state: a stampede on one version is
//     deduplicated once, in the store (store.Checkout runs one
//     reconstruction per version at a time through internal/flight and
//     every concurrent request for it shares the result), so handlers
//     call Repository.Checkout directly and hold nothing per tenant.
//     The store's follower count is what /statsz reports as
//     endpoints.checkout.coalesced.
//   - Encoded-response cache on the immutable GETs (/checkout/{id},
//     path-scoped checkouts, /diff/{a}/{b}): the assembled JSON wire
//     bytes are cached per (kind, tenant, request) under a byte budget
//     (Options.RespCacheBytes), an LRU, so a hot response is served
//     with a single Write — no repository, store, or encoder work. Every cached response carries a strong ETag, the
//     length and CRC-32C of its body, and honors If-None-Match with 304,
//     so a revalidating client pays no body bytes at all. Version
//     content is immutable, so entries never invalidate — only eviction
//     removes them.
//   - Bodies that carry line arrays are encoded by internal/wire, shared
//     with client, in one sized append per body and byte for byte as
//     encoding/json would, which still writes the small ones (errors,
//     stats, plans). Request bodies (commit, batch checkout) are read
//     whole under a 64 MiB cap — 413 beyond it — and decoded by it too:
//     compact JSON makes a commit's lines substrings of one string,
//     anything else goes through encoding/json, so what is accepted and
//     what a 400 says are encoding/json's. The store's content cache
//     keeps all of a commit's lines or none, so nothing pins a body for
//     a few of them.
//   - Per-endpoint metrics: request/error counts and log-linear latency
//     histograms (internal/metrics) surfaced by /statsz and, in
//     Prometheus exposition format, by /metricsz.
//   - Request tracing (Options.Tracer): sampled — or client-forced via
//     the X-DSV-Trace header — requests record a span tree through
//     admission, tenant acquire/open, request decoding, commit
//     journaling, store reads and response encoding into a bounded
//     flight recorder served at /tracez;
//     requests slower than Options.SlowRequest additionally emit a
//     rate-limited log line carrying the trace ID.
//
// The package is importable so cmd/dsvd, the repository benchmark,
// tests and examples can all run the exact production handler stack. Every
// Server owns its own mux, so any number of Servers (e.g. one per
// tenant fleet, or parallel tests) coexist in one process without
// pattern collisions.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/buildinfo"
	"repro/internal/hotcache"
	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/wire"
	"repro/tenant"
	"repro/versioning"
)

// Options tunes the serving hardening. The zero value gives sensible
// production defaults.
type Options struct {
	// QueueWait and RetryAfter have no effect: a queued request waits at
	// most 100ms and a 429 says Retry-After: 1 (see admission.go). They
	// stay because benchmark/stack.go sets them (ROADMAP item 7h).
	QueueWait  time.Duration
	RetryAfter time.Duration
	// Tracer enables request tracing on the rate-limited endpoints (the
	// probes are never traced). nil disables tracing entirely; a tracer
	// with Sample 0 still records requests that arrive with an
	// X-DSV-Trace header, which is how clients force end-to-end traces.
	Tracer *trace.Tracer
	// SlowRequest, when positive, logs requests slower than this
	// threshold (rate-limited to one line per 100ms) with their trace
	// IDs. 0 disables the slow log.
	SlowRequest time.Duration
	// RespCacheBytes bounds the encoded-response cache for GET
	// /checkout/{id}: fully assembled wire bytes keyed by (tenant,
	// version), served with one Write and a strong ETag (0 = 64 MiB,
	// negative disables). See respcache.go.
	RespCacheBytes int64
}

// Server is the HTTP serving layer over one Repository (New) or a
// tenant fleet (NewMulti); it implements http.Handler. Each instance
// owns its mux and all per-endpoint state, so multiple Servers coexist
// freely in one process.
type Server struct {
	mux     *http.ServeMux
	adm     *limiter
	start   time.Time
	maxBody int64 // request body cap: wire.MaxBody, less in tests

	// resp holds encoded responses for the immutable GETs (nil = disabled).
	resp         *hotcache.Cache[respKey, *cachedResp]
	notModified  atomic.Int64 // 304s answered from a client validator
	pathScoped   atomic.Int64 // checkouts narrowed by ?path=
	diffComputed atomic.Int64 // diff responses computed (cache hits excluded)

	tracer         *trace.Tracer
	slowReq        time.Duration
	slowLogLast    atomic.Int64 // unix nanos of the last slow-log line
	slowLogged     atomic.Int64
	slowSuppressed atomic.Int64
	logf           func(format string, args ...any)

	// Exactly one is set: the fixed repository (New) or the fleet
	// (NewMulti). Only the probes and the commit quota gate look.
	repo *versioning.Repository
	mgr  *tenant.Manager

	epMu      sync.Mutex
	endpoints map[string]*endpointMetrics
}

// repoHandler serves one repository endpoint against the repository the
// request resolved to; tenant is its namespace ("" under New).
type repoHandler func(tenant string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request)

// New returns a Server wired to repo with the given hardening options.
func New(repo *versioning.Repository, opt Options) *Server {
	s := newServer(opt)
	s.repo = repo
	s.routes("", func(w http.ResponseWriter, r *http.Request, h repoHandler) {
		h("", repo, w, r)
	})
	return s
}

// routes registers the whole route table: the repository endpoints
// under prefix, each reaching its repository through with, and the
// probes at the root.
func (s *Server) routes(prefix string, with func(http.ResponseWriter, *http.Request, repoHandler)) {
	for _, rt := range []struct {
		name, method, path string
		h                  repoHandler
	}{
		{"commit", "POST", "/commit", s.handleCommit},
		{"checkout", "GET", "/checkout/{id}", s.handleCheckout},
		{"checkout_batch", "POST", "/checkout", s.handleCheckoutBatch},
		{"diff", "GET", "/diff/{a}/{b}", s.handleDiff},
		{"log", "GET", "/log/{id}", s.handleLog},
		{"replan", "POST", "/replan", s.handleReplan},
		{"plan", "GET", "/plan", s.handlePlan},
		{"planz", "GET", "/planz", s.handlePlanz},
		{"stats", "GET", "/stats", s.handleStats},
	} {
		s.handle(rt.name, rt.method+" "+prefix+rt.path, func(w http.ResponseWriter, r *http.Request) {
			with(w, r, rt.h)
		}, true)
	}
	// Probes bypass admission control: an overloaded server must still
	// answer its orchestrator and expose its own counters.
	s.handle("statsz", "GET /statsz", s.handleStatsz, false)
	s.handle("metricsz", "GET /metricsz", s.handleMetricsz, false)
	s.handle("tracez", "GET /tracez", s.handleTracez, false)
	s.handle("healthz", "GET /healthz", s.handleHealthz, false)
}

// newServer builds the mode-independent core.
func newServer(opt Options) *Server {
	slots := 4 * runtime.GOMAXPROCS(0)
	return &Server{
		mux:       http.NewServeMux(),
		adm:       newLimiter(slots, 2*slots, queueWait),
		start:     time.Now(),
		maxBody:   wire.MaxBody,
		resp:      newRespCache(opt.RespCacheBytes),
		tracer:    opt.Tracer,
		slowReq:   opt.SlowRequest,
		logf:      log.Printf,
		endpoints: make(map[string]*endpointMetrics),
	}
}

func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close releases nothing: a Server holds no per-repository state, and
// the repositories belong to the caller (New) or the Manager (NewMulti).
func (s *Server) Close() {}

// handle registers pattern with per-endpoint instrumentation and, when
// limited, admission control.
func (s *Server) handle(name, pattern string, h http.HandlerFunc, limited bool) {
	ep := &endpointMetrics{}
	s.epMu.Lock()
	s.endpoints[name] = ep
	s.epMu.Unlock()
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		var span *trace.Span
		if limited && s.tracer != nil {
			tctx, sp := s.tracer.StartRequest(r.Context(), name, r.Header.Get(trace.HeaderTrace))
			if sp != nil {
				span = sp
				w.Header().Set(trace.HeaderTraceID, sp.TraceID())
				r = r.WithContext(tctx)
			}
		}
		if limited {
			_, asp := trace.StartSpan(r.Context(), "admission")
			ok := s.adm.acquire(r.Context())
			asp.End()
			if !ok {
				ep.requests.Add(1)
				ep.rejected.Add(1)
				w.Header().Set("Retry-After", retryAfterHeader)
				writeJSON(w, http.StatusTooManyRequests,
					errorResponse{Error: "server overloaded, retry later"})
				span.SetAttrInt("status", http.StatusTooManyRequests)
				span.End()
				return
			}
			defer s.adm.release()
		}
		ep.inFlight.Add(1)
		start := time.Now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		// Deferred so a panicking handler (e.g. http.ErrAbortHandler on a
		// mid-write disconnect) cannot leak the in-flight gauge or skip
		// the counters — net/http recovers the panic above us.
		defer func() {
			d := time.Since(start)
			ep.latency.Observe(d)
			ep.inFlight.Add(-1)
			ep.requests.Add(1)
			if sw.status >= 400 {
				ep.errors.Add(1)
			}
			span.SetAttrInt("status", int64(sw.status))
			span.End()
			s.maybeLogSlow(name, sw.status, d, span)
		}()
		h(sw, r)
	})
}

// maybeLogSlow emits one structured log line for a request slower than
// Options.SlowRequest, rate-limited to one line per 100ms so a
// saturated server records evidence instead of amplifying its own
// overload (suppressed lines are counted and reported on the next
// line). When the request was traced the line carries its trace ID,
// linking the log entry to the full span tree on /tracez.
func (s *Server) maybeLogSlow(name string, status int, d time.Duration, span *trace.Span) {
	if s.slowReq <= 0 || d < s.slowReq {
		return
	}
	now := time.Now().UnixNano()
	last := s.slowLogLast.Load()
	if now-last < int64(100*time.Millisecond) || !s.slowLogLast.CompareAndSwap(last, now) {
		s.slowSuppressed.Add(1)
		return
	}
	s.slowLogged.Add(1)
	suppressed := s.slowSuppressed.Swap(0)
	// Plan context ties the stall to the planner's state: a slow burst
	// right after a replan usually means a migration or a deeper delta
	// chain. Multi-tenant servers log the mode instead — the slow
	// request's tenant is on its trace, not known here.
	planCtx := "mode=multi"
	if s.repo != nil {
		planCtx = s.repo.Stats().PlanContext()
	}
	s.logf("serve: slow request endpoint=%s status=%d duration_us=%d threshold=%s trace_id=%q suppressed=%d plan[%s]",
		name, status, d.Microseconds(), s.slowReq, span.TraceID(), suppressed, planCtx)
}

// statusWriter captures the response status for the error counters. It
// passes optional http.ResponseWriter capabilities through to the
// underlying writer: Flush (streaming handlers behind the wrapper must
// still reach the socket), ReadFrom (io.Copy into the response keeps
// net/http's sendfile path), and Unwrap (http.ResponseController
// discovers everything else).
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (w *statusWriter) ReadFrom(src io.Reader) (int64, error) {
	// io.Copy uses the underlying writer's ReadFrom when it has one
	// (net/http's does, enabling sendfile) and degrades to a plain copy
	// when it does not.
	return io.Copy(w.ResponseWriter, src)
}

func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// handleHealthz is the liveness/readiness probe: cheap (one RLock plus
// atomic counters), so orchestrators can poll it even mid-re-plan.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.mgr != nil {
		writeJSON(w, http.StatusOK, map[string]any{
			"status":       "ok",
			"tenants_open": s.mgr.OpenCount(),
			"build":        buildinfo.Get(),
		})
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"versions": s.repo.Versions(),
		"build":    buildinfo.Get(),
	})
}

type errorResponse struct {
	Error string `json:"error"`
}

// decodeBody reads r's whole body, at most s.maxBody bytes of it so
// that a hostile payload cannot exhaust memory, and decodes it into v: a
// commit's lines are substrings of the body as it was read.
// On failure it answers the request — 413 for a body over the cap, 400
// for one that does not decode — and reports false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, what string, v any) bool {
	body, err := wire.ReadBody(http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength)
	if err == nil {
		err = wire.Decode(body, v)
	}
	if err == nil {
		return true
	}
	status := http.StatusBadRequest
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		status = http.StatusRequestEntityTooLarge
	}
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf("bad %s request: %v", what, err)})
	return false
}

func (s *Server) handleCommit(tn string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	var req wire.CommitRequest
	_, dsp := trace.StartSpan(r.Context(), "commit.decode")
	ok := s.decodeBody(w, r, "commit", &req)
	dsp.End()
	if !ok {
		return
	}
	if s.mgr != nil {
		// Per-tenant quota gate: the rate bucket and capacity caps are
		// checked before any diff or store work runs.
		if err := s.mgr.CheckCommit(tn, repo); err != nil {
			var qe *tenant.QuotaError
			if errors.As(err, &qe) {
				w.Header().Set("Retry-After", retryAfterSeconds(qe.RetryAfter))
				writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: qe.Error()})
				return
			}
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
	}
	var id versioning.NodeID
	var err error
	if len(req.Parents) > 0 {
		id, err = repo.CommitMerge(r.Context(), req.Parents, req.Lines)
	} else {
		parent := versioning.NoParent
		if req.Parent != nil {
			parent = *req.Parent
		}
		id, err = repo.Commit(r.Context(), parent, req.Lines)
	}
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, versioning.ErrClosed) {
			status = http.StatusServiceUnavailable
		} else if errors.Is(err, versioning.ErrUnknownParent) {
			status = http.StatusUnprocessableEntity
		}
		writeJSON(w, requestErrStatus(r, err, status), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, wire.CommitResult{ID: id, Versions: repo.Versions()})
}

// retryAfterSeconds renders d as a whole-seconds Retry-After value
// (rounded up, minimum 1).
func retryAfterSeconds(d time.Duration) string {
	secs := int64((d + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

func (s *Server) handleCheckout(tn string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad version id: %v", err)})
		return
	}
	id := versioning.NodeID(id64)
	// ?path= narrows a manifest checkout to one file or directory scope.
	// A scoped response caches under its own key: the filtered body is
	// immutable too, and a hot (version, path) pair skips both the
	// reconstruction and the filter.
	scope := r.URL.Query().Get("path")
	if scope != "" {
		s.pathScoped.Add(1)
	}
	// The key is the parsed id, not the path segment: ParseInt also takes
	// "00", "+0" and "-0", and each spelling would be its own entry.
	s.serveCached(w, r, respKey{kind: respKindCheckout, tenant: tn, a: id64, path: scope}, func() (any, error) {
		lines, err := repo.Checkout(r.Context(), id)
		if err != nil {
			return nil, err
		}
		if scope != "" {
			// The full checkout went through the store's cache and flight,
			// so concurrent scopes of one version share a single
			// reconstruction; only the cheap filter runs per scope.
			_, fsp := trace.StartSpan(r.Context(), "checkout.filter")
			lines = versioning.FilterManifest(lines, scope)
			fsp.End()
		}
		return wire.Checkout{ID: id, Lines: lines}, nil
	})
}

func (s *Server) handleCheckoutBatch(_ string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	var req wire.BatchRequest
	if !s.decodeBody(w, r, "batch", &req) {
		return
	}
	results := repo.CheckoutBatch(r.Context(), req.IDs)
	out := make([]wire.Checkout, len(results))
	for i, res := range results {
		out[i] = wire.Checkout{ID: req.IDs[i], Lines: res.Lines}
		if res.Err != nil {
			out[i].Error = res.Err.Error()
			out[i].Status = readErrStatus(r, res.Err)
		}
	}
	// One body through the encoder the single checkouts use, failed items
	// included, written once under its length.
	body, err := encodeBody(out)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeBody(w, body)
}

// checkoutErrStatus maps a read error to its HTTP status.
func checkoutErrStatus(err error) int {
	if errors.Is(err, versioning.ErrUnknownVersion) {
		return http.StatusNotFound
	}
	return http.StatusInternalServerError
}

// readErrStatus is checkoutErrStatus for a read made under the request's
// own context.
func readErrStatus(r *http.Request, err error) int {
	return requestErrStatus(r, err, checkoutErrStatus(err))
}

// requestErrStatus is status unless err is the request's own context
// ending: the client giving up is a 408, not a server fault.
func requestErrStatus(r *http.Request, err error, status int) int {
	if cerr := r.Context().Err(); cerr != nil && errors.Is(err, cerr) {
		return http.StatusRequestTimeout
	}
	return status
}

func (s *Server) handleReplan(_ string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	if err := repo.Replan(r.Context()); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, versioning.ErrClosed) {
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, requestErrStatus(r, err, status), errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, repo.Summary())
}

func (s *Server) handlePlan(_ string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, repo.Summary())
}

func (s *Server) handleStats(_ string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, repo.Stats())
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// endpointMetrics is one endpoint's traffic counters.
type endpointMetrics struct {
	requests atomic.Int64
	errors   atomic.Int64
	rejected atomic.Int64
	inFlight atomic.Int64
	latency  metrics.Histogram
}
