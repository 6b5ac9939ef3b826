package serve

import (
	"fmt"
	"net/http"
	"strconv"

	"repro/versioning"
)

// Planz is GET /planz: the plan observatory snapshot for one
// repository — the retained maintenance-pass records oldest-first and
// the current plan's explanation. History is empty until the first
// maintenance pass runs; HistoryTotal counts every record ever
// appended, so HistoryTotal − len(History) is how many the bounded
// ring evicted.
type Planz struct {
	Tenant       string                     `json:"tenant,omitempty"`
	Current      versioning.PlanExplanation `json:"current"`
	History      []versioning.PlanRecord    `json:"history"`
	HistoryTotal int64                      `json:"history_total"`
}

// handlePlanz renders the plan observatory. Not cached: the history
// and the explanation change with every pass and commit.
func (s *Server) handlePlanz(tn string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	hist, total := repo.PlanHistory()
	if hist == nil {
		hist = []versioning.PlanRecord{}
	}
	writeJSON(w, http.StatusOK, Planz{
		Tenant:       tn,
		Current:      repo.Explain(),
		History:      hist,
		HistoryTotal: total,
	})
}

// LogResponse is GET /log/{id}: the first-parent ancestry walk from one
// version back toward a root.
type LogResponse struct {
	From    versioning.NodeID     `json:"from"`
	Entries []versioning.LogEntry `json:"entries"`
	// Truncated marks a walk cut short by ?limit= before reaching a
	// root.
	Truncated bool `json:"truncated,omitempty"`
}

// handleLog serves a version's ancestry over the stored parent edges.
// Ancestry is immutable once committed (parents are recorded at commit
// and never change), so the encoded response caches under its own kind
// with a strong ETag, exactly like /diff.
func (s *Server) handleLog(tn string, repo *versioning.Repository, w http.ResponseWriter, r *http.Request) {
	id64, err := strconv.ParseInt(r.PathValue("id"), 10, 32)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad version id: %v", err)})
		return
	}
	id := versioning.NodeID(id64)
	limit := 0
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: fmt.Sprintf("bad limit %q", v)})
			return
		}
		limit = n
	}
	s.serveCached(w, r, respKey{kind: respKindLog, tenant: tn, a: id64, b: int64(limit)}, func() (any, error) {
		entries, err := repo.Log(id, limit)
		if err != nil {
			return nil, err
		}
		resp := LogResponse{From: id, Entries: entries}
		if n := len(entries); limit > 0 && n == limit && len(entries[n-1].Parents) > 0 {
			resp.Truncated = true
		}
		return resp, nil
	})
}
