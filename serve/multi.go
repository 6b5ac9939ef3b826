package serve

import (
	"context"
	"errors"
	"net/http"
	"strconv"

	"repro/internal/trace"
	"repro/tenant"
)

// NewMulti returns a Server over mgr's tenant fleet: the route table of
// New, registered under /t/{tenant} (POST /t/{tenant}/commit, GET
// /t/{tenant}/checkout/{id}, ... — see the package doc for the list),
// plus GET /fleetz for the aggregate fleet stats; /statsz then carries
// the fleet and per-open-tenant stats and /metricsz labels repository
// series by tenant.
//
// The only thing that differs from New is how a request reaches its
// repository: each one leases its tenant's through mgr.Acquire — lazily
// opening it, or transparently reopening it after an eviction — and
// releases the lease when the handler returns, so the LRU can never
// close a repository out from under a live request. The Server keeps no
// per-tenant state, so an eviction needs no callback into it: checkout
// deduplication lives in each repository's store and goes away with the
// repository. Commits pass through the manager's per-tenant quota gate
// and surface violations as 429 + Retry-After.
func NewMulti(mgr *tenant.Manager, opt Options) *Server {
	s := newServer(opt)
	s.mgr = mgr
	s.routes("/t/{tenant}", func(w http.ResponseWriter, r *http.Request, h repoHandler) {
		tn := r.PathValue("tenant")
		actx, asp := trace.StartSpan(r.Context(), "tenant.acquire")
		asp.SetAttr("tenant", tn)
		hdl, err := mgr.Acquire(actx, tn)
		asp.End()
		if err != nil {
			writeJSON(w, acquireErrStatus(err), errorResponse{Error: err.Error()})
			return
		}
		defer hdl.Release()
		h(tn, hdl.Repo(), w, r)
	})
	s.handle("fleetz", "GET /fleetz", s.handleFleetz, false)
	return s
}

// acquireErrStatus maps a manager Acquire failure to HTTP: a bad name
// is the client's fault, a closed manager is a shutdown, a canceled
// context is the caller giving up, and anything else (an open failure)
// is ours.
func acquireErrStatus(err error) int {
	switch {
	case errors.Is(err, tenant.ErrBadName):
		return http.StatusBadRequest
	case errors.Is(err, tenant.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return http.StatusRequestTimeout
	default:
		return http.StatusInternalServerError
	}
}

// handleFleetz serves the aggregate fleet snapshot. topk bounds the
// per-dimension tenant lists (default 5, capped at 100).
func (s *Server) handleFleetz(w http.ResponseWriter, r *http.Request) {
	topK := 5
	if v := r.URL.Query().Get("topk"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			topK = n
			if topK > 100 {
				topK = 100
			}
		}
	}
	writeJSON(w, http.StatusOK, s.mgr.Fleet(topK))
}
