package versioning

// The plan observatory: durable-in-memory telemetry about what the
// planner decided and why. Every maintenance pass (background, inline,
// or manual Replan) appends a PlanRecord to a bounded ring — the
// trigger, the full per-solver race report, the predicted plan cost,
// and what the migration actually moved — and a per-version heat
// tracker (internal/heat) records which versions reads touch, so the
// plan's predictions can be compared against observed traffic. The
// serve package renders both through GET /planz, and a re-plan trigger
// that fires when a pass pays would read the same data programmatically.

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/heat"
)

// SolverRaceReport is one solver's outcome within a maintenance pass's
// portfolio race, in exportable form (see portfolio.Report for the
// in-process original).
type SolverRaceReport struct {
	Solver string `json:"solver"`
	// The cost of the solver's plan; nil when Err is set.
	*PlanCost
	// DurationUS is the solver's wall time within the race, whether it
	// won, lost, errored, or timed out.
	DurationUS int64  `json:"duration_us"`
	Err        string `json:"error,omitempty"`
	// Infeasible marks Err as a constraint infeasibility rather than a
	// solver failure — the solver proved no plan fits the bound.
	Infeasible bool `json:"infeasible,omitempty"`
}

// raceReports converts the engine's in-process race reports to the
// exportable form.
func raceReports(reports []SolverReport) []SolverRaceReport {
	out := make([]SolverRaceReport, 0, len(reports))
	for _, rep := range reports {
		rr := SolverRaceReport{Solver: rep.Solver, DurationUS: rep.Duration.Microseconds()}
		if rep.Err != nil {
			rr.Err = rep.Err.Error()
			rr.Infeasible = errors.Is(rep.Err, ErrInfeasible)
		} else {
			rr.PlanCost = &rep.Cost
		}
		out = append(out, rr)
	}
	return out
}

// PlanRecord is one maintenance pass's outcome: what triggered it, what
// the portfolio race reported, what the installed plan predicts, and
// what the migration moved. Failed passes record the error with the
// race context that produced it.
type PlanRecord struct {
	// Seq numbers records monotonically from 1 across the repository's
	// lifetime (the ring may have evicted earlier records).
	Seq    int64 `json:"seq"`
	UnixMS int64 `json:"unix_ms"`
	// Trigger is why the pass ran: "cadence" (the ReplanEvery commit
	// cadence, background worker), "sync" (the same cadence run inline
	// in Commit under MaintenanceWorkers < 0), or "manual" (Replan /
	// POST /replan).
	Trigger string `json:"trigger"`
	// Versions and Deltas size the graph snapshot the solvers saw.
	Versions   int    `json:"versions"`
	Deltas     int    `json:"deltas"`
	Problem    string `json:"problem"`
	Constraint Cost   `json:"constraint"`

	Winner string `json:"winner,omitempty"`
	// CacheHit is always false: the engine keeps no result cache. It
	// stays because benchmark/traced.go reads it (ROADMAP item 7h).
	CacheHit bool               `json:"cache_hit,omitempty"`
	Reports  []SolverRaceReport `json:"reports,omitempty"`

	// Predicted* is the installed plan's evaluated cost over the full
	// live graph (solved snapshot + grafted tail) — the planner's
	// prediction that /planz lets operators hold against observed heat.
	PredictedStorage      Cost `json:"predicted_storage,omitempty"`
	PredictedSumRetrieval Cost `json:"predicted_sum_retrieval,omitempty"`
	PredictedMaxRetrieval Cost `json:"predicted_max_retrieval,omitempty"`

	// Grafted counts versions committed during the solve and carried
	// into the installed plan with their incremental layout.
	Grafted int `json:"grafted,omitempty"`
	// Migration totals: objects and bytes the store migration added to
	// the backend (what the serving plan already held is taken over and
	// not counted), and the wall time inside Store.Install.
	MigrationObjects int64 `json:"migration_objects,omitempty"`
	MigrationBytes   int64 `json:"migration_bytes,omitempty"`
	MigrationUS      int64 `json:"migration_us,omitempty"`

	// ConstraintUS is the pass's storage constraint (constraintFor): for
	// an automatic one, the min-storage arborescence, which the race's
	// LMG and LMG-All then start from. SolveUS is the solver race,
	// PreloadUS the checkouts of the PreloadVersions contents the
	// migration needed, run between the race and the install step; with
	// MigrationUS they account for TotalUS up to snapshot and
	// publication.
	ConstraintUS    int64 `json:"constraint_us"`
	SolveUS         int64 `json:"solve_us"`
	PreloadUS       int64 `json:"preload_us"`
	PreloadVersions int   `json:"preload_versions"`
	TotalUS         int64 `json:"total_us"`

	Err    string `json:"error,omitempty"`
	Failed bool   `json:"failed,omitempty"`
}

// planHistoryLen is how many PlanRecords a repository's ring keeps.
const planHistoryLen = 64

// planHistory is a bounded ring of PlanRecords.
type planHistory struct {
	mu    sync.Mutex
	buf   []PlanRecord
	next  int   // buf index the next append writes
	n     int   // live records (≤ len(buf))
	total int64 // records ever appended; assigns Seq
}

func newPlanHistory(capacity int) *planHistory {
	return &planHistory{buf: make([]PlanRecord, capacity)}
}

func (h *planHistory) append(rec PlanRecord) {
	h.mu.Lock()
	h.total++
	rec.Seq = h.total
	h.buf[h.next] = rec
	h.next = (h.next + 1) % len(h.buf)
	if h.n < len(h.buf) {
		h.n++
	}
	h.mu.Unlock()
}

// snapshot returns the live records oldest-first plus the lifetime
// total (total − len(records) is how many the ring evicted).
func (h *planHistory) snapshot() ([]PlanRecord, int64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]PlanRecord, 0, h.n)
	start := h.next - h.n
	if start < 0 {
		start += len(h.buf)
	}
	for i := 0; i < h.n; i++ {
		out = append(out, h.buf[(start+i)%len(h.buf)])
	}
	return out, h.total
}

func (h *planHistory) size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

func (h *planHistory) lifetime() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}

// VersionHeat is one version's decayed read heat (see internal/heat).
type VersionHeat = heat.Entry

// PlanHistory returns the retained plan records oldest-first (the
// newest 64 at most), plus the lifetime total of records ever appended.
// Empty until the first maintenance pass.
func (r *Repository) PlanHistory() ([]PlanRecord, int64) {
	return r.history.snapshot()
}

// HeatTopK returns the k hottest versions by decayed read score,
// hottest first. Nil when nothing has been read yet.
func (r *Repository) HeatTopK(k int) []VersionHeat {
	return r.heat.TopK(k)
}

// TouchVersion records one read of version v in the heat tracker
// without reconstructing anything. Serving layers call it when they
// answer a read for v from their own caches (e.g. an encoded-response
// hit) that never reaches Checkout.
func (r *Repository) TouchVersion(v NodeID) {
	r.heat.Bump(v)
}

// PlanExplanation renders the currently installed plan for operators:
// the summary (materialized set, stored deltas, cost), the delta-depth
// distribution of the retrieval forest, and how the plan's storage
// compares to materializing everything.
type PlanExplanation struct {
	Summary PlanSummary `json:"summary"`
	// DepthHistogram counts versions by retrieval depth: index 0 is the
	// materialized versions, index d the versions reconstructed by
	// applying d deltas.
	DepthHistogram []int   `json:"depth_histogram"`
	MaxDepth       int     `json:"max_depth"`
	MeanDepth      float64 `json:"mean_depth"`
	// FullStorage is the materialize-everything baseline;
	// StorageSavingsPct is how far below it the plan's storage sits.
	FullStorage       Cost    `json:"full_storage"`
	StorageSavingsPct float64 `json:"storage_savings_pct"`
}

// Explain returns the current plan's explanation. Like Summary it is
// built from incrementally maintained state plus one pass over the
// store's retrieval forest — no solver work runs.
func (r *Repository) Explain() PlanExplanation {
	ex := PlanExplanation{Summary: r.Summary()}
	r.stateMu.RLock()
	ex.FullStorage = r.g.TotalNodeStorage()
	r.stateMu.RUnlock()
	depths := r.st.RetrievalDepths()
	if len(depths) > 0 {
		maxd := 0
		for _, d := range depths {
			if d > maxd {
				maxd = d
			}
		}
		ex.DepthHistogram = make([]int, maxd+1)
		sum := 0
		for _, d := range depths {
			ex.DepthHistogram[d]++
			sum += d
		}
		ex.MaxDepth = maxd
		ex.MeanDepth = float64(sum) / float64(len(depths))
	}
	if ex.FullStorage > 0 {
		ex.StorageSavingsPct = 100 * (1 - float64(ex.Summary.Storage)/float64(ex.FullStorage))
	}
	return ex
}

// LogEntry is one version in an ancestry walk: the version and its
// recorded parents, primary parent first (merge parents follow in
// commit order).
type LogEntry struct {
	ID      NodeID   `json:"id"`
	Parents []NodeID `json:"parents,omitempty"`
}

// Log walks version v's first-parent ancestry — v, its primary parent,
// that version's primary parent, and so on back to a root — returning
// up to limit entries (limit <= 0 means unbounded). Each entry lists
// every recorded parent, so merge ancestry is visible even though only
// the first parent is followed.
func (r *Repository) Log(v NodeID, limit int) ([]LogEntry, error) {
	r.stateMu.RLock()
	defer r.stateMu.RUnlock()
	if int(v) < 0 || int(v) >= len(r.parents) {
		return nil, fmt.Errorf("versioning: log: %w %d (have %d)", ErrUnknownVersion, v, len(r.parents))
	}
	if limit <= 0 {
		limit = len(r.parents)
	}
	out := make([]LogEntry, 0, 16)
	for cur := v; limit > 0; limit-- {
		ps := r.parents[cur]
		out = append(out, LogEntry{ID: cur, Parents: append([]NodeID(nil), ps...)})
		if len(ps) == 0 {
			break
		}
		cur = ps[0]
	}
	return out, nil
}
