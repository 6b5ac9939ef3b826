package serve

import (
	"net/http"
	"runtime"
	"time"

	"repro/internal/hotcache"
	"repro/internal/metrics"
	"repro/tenant"
	"repro/versioning"
)

// EndpointStats is one endpoint's /statsz entry: throughput counters
// plus a latency summary from the log-linear histogram.
type EndpointStats struct {
	Requests int64 `json:"requests"`
	// Errors counts handler responses with status >= 400. Admission-shed
	// 429s never reach the handler and are counted in Rejected only, so
	// error rate and shed rate stay separable signals.
	Errors   int64 `json:"errors"`
	Rejected int64 `json:"rejected,omitempty"`
	InFlight int64 `json:"in_flight"`
	// Coalesced counts store checkouts answered by a concurrent
	// identical checkout's reconstruction (checkout endpoint only): the
	// sum of RepositoryStats.Coalesced over Repo or the open Tenants.
	Coalesced int64 `json:"coalesced,omitempty"`
	// PathScoped counts checkout requests narrowed by ?path= (checkout
	// endpoint only).
	PathScoped int64 `json:"path_scoped,omitempty"`
	// Computed counts responses actually computed rather than served
	// from the encoded-response cache (diff endpoint only).
	Computed int64                  `json:"computed,omitempty"`
	Latency  metrics.LatencySummary `json:"latency"`
	// Histogram is the raw snapshot Latency summarizes, for in-process
	// consumers (/metricsz renders it as a Prometheus histogram).
	Histogram metrics.Snapshot `json:"-"`
}

// RespCacheStats is the encoded-response cache's /statsz entry: byte
// footprint, hit/miss traffic and bodies too large for the whole budget.
type RespCacheStats = hotcache.Stats

// Statsz is the /statsz response: the server-side observability surface
// the client and the repository benchmark read. Repo is populated in
// single-repository mode; Fleet and Tenants in multi-tenant mode.
type Statsz struct {
	// UptimeSeconds is time since the serving layer (not the process)
	// started.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Goroutines is the live goroutine count, a cheap saturation signal.
	Goroutines int `json:"goroutines"`
	// GoVersion is the runtime that built the binary (see /healthz for
	// the full build identity).
	GoVersion string `json:"go_version"`
	// Admission is the limiter's state: capacity, queue depth, and
	// accept/queue/reject counters split by rejection reason.
	Admission AdmissionStats `json:"admission"`
	// Endpoints maps endpoint name (commit, checkout, ...) to its
	// traffic counters and latency summary.
	Endpoints map[string]EndpointStats `json:"endpoints"`
	// RespCache is the encoded-response cache's state and traffic
	// (absent when the cache is disabled).
	RespCache *RespCacheStats `json:"resp_cache,omitempty"`
	// NotModified counts every 304 answered off a client If-None-Match
	// validator by a cached GET (/checkout, /diff, /log), whether or not
	// the response cache is on.
	NotModified int64 `json:"not_modified"`
	// Repo is the single repository's full stats — plan costs, journal
	// durability points (wal_batches/wal_max_batch), maintenance
	// counters, store cache traffic — in single-repo mode; zero in multi
	// mode.
	Repo versioning.RepositoryStats `json:"repo"`
	// Fleet is the aggregate multi-tenant view: open/eviction/quota
	// counters plus top-k tenants by size and activity.
	Fleet *tenant.FleetStats `json:"fleet,omitempty"`
	// Tenants maps every currently open tenant to its full
	// RepositoryStats — the same per-repo detail Repo carries in
	// single mode, journal and maintenance counters included.
	// Evicted tenants are absent; their last-known sizes live in Fleet.
	Tenants map[string]versioning.RepositoryStats `json:"tenants,omitempty"`
}

// StatszSnapshot assembles the full serving snapshot (also available to
// in-process users, e.g. tests and examples, without an HTTP round trip).
func (s *Server) StatszSnapshot() Statsz {
	out := Statsz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Goroutines:    runtime.NumGoroutine(),
		GoVersion:     runtime.Version(),
		Admission:     s.adm.stats(),
		Endpoints:     make(map[string]EndpointStats),
		NotModified:   s.notModified.Load(),
	}
	if s.mgr != nil {
		fleet := s.mgr.Fleet(5)
		out.Fleet = &fleet
		out.Tenants = s.mgr.OpenStats()
	} else {
		out.Repo = s.repo.Stats()
	}
	coalesced := out.Repo.Coalesced
	for _, st := range out.Tenants {
		coalesced += st.Coalesced
	}
	if s.resp != nil {
		cs := s.resp.Stats()
		out.RespCache = &cs
	}
	s.epMu.Lock()
	for name, ep := range s.endpoints {
		es := EndpointStats{
			Requests:  ep.requests.Load(),
			Errors:    ep.errors.Load(),
			Rejected:  ep.rejected.Load(),
			InFlight:  ep.inFlight.Load(),
			Histogram: ep.latency.Snapshot(),
		}
		es.Latency = es.Histogram.Summary()
		if name == "checkout" {
			es.Coalesced = coalesced
			es.PathScoped = s.pathScoped.Load()
		}
		if name == "diff" {
			es.Computed = s.diffComputed.Load()
		}
		out.Endpoints[name] = es
	}
	s.epMu.Unlock()
	return out
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.StatszSnapshot())
}
