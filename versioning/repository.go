package versioning

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/diff"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/plan"
	"repro/internal/store"
	"repro/internal/trace"
)

// NoParent commits a version with no parent (the first commit, or an
// independent root); such versions are materialized until the next
// re-plan reconsiders them.
const NoParent NodeID = graph.None

// ErrClosed reports a write against a closed repository.
var ErrClosed = errors.New("versioning: repository is closed")

// ErrUnknownVersion reports a read of a version the repository never
// held. It is the store's sentinel, so a checkout error and a log error
// answer to the same errors.Is.
var ErrUnknownVersion = store.ErrUnknownVersion

// ErrUnknownParent reports a commit onto a parent the repository never
// held.
var ErrUnknownParent = errors.New("unknown parent")

// RepositoryOptions configures a Repository.
type RepositoryOptions struct {
	// Problem is the regime re-planning optimizes (default ProblemMSR).
	Problem Problem
	// Constraint is the regime's bound: a storage budget for MSR/MMR, a
	// retrieval bound for BSR/BMR. 0 derives a bound automatically from
	// the minimum-storage plan at each re-plan: storage budgets get
	// AutoFactor × the minimum feasible storage; retrieval bounds get the
	// minimum-storage plan's own retrieval, which is always achievable.
	Constraint Cost
	// AutoFactor is the slack multiplier for automatic storage budgets
	// (default 2).
	AutoFactor float64
	// ReplanEvery re-plans (and migrates the store) every k commits:
	// 0 = 8, negative = only on explicit Replan calls. Between re-plans a
	// new version is appended as one delta from its parent, or stored
	// whole when reading it through the parent would cost more delta
	// bytes than its own size, so no version costs more to read than to
	// store until the next re-plan chooses the layout. The re-plan runs
	// in a background maintenance worker unless MaintenanceWorkers is
	// negative; use Repository.WaitMaintenance to observe its completion.
	ReplanEvery int
	// CacheEntries bounds the LRU cache of reconstructed versions
	// (0 = 256, negative disables).
	CacheEntries int
	// CacheBytes bounds the same cache by byte footprint (0 = 64 MiB).
	// A negative value also means 64 MiB — it does not disable the
	// cache; CacheEntries < 0 does, and dsvd refuses a negative
	// -cache-bytes for that reason.
	CacheBytes int64
	// Backend is the object backend the store runs on. nil picks the
	// default: a sharded in-memory backend (store.DefaultShards shards),
	// or — when Open is given a DataDir — a durable disk backend rooted
	// there.
	Backend store.Backend
	// DataDir makes the repository durable (Open only): objects live in
	// DataDir/packs and every commit is journaled to DataDir/journal.wal
	// before it is acknowledged, so a killed daemon reopens to the exact
	// committed history.
	DataDir string
	// SyncWrites fsyncs the journal on every commit instead of only on
	// Close. Off, a process kill loses nothing (the OS has the bytes); a
	// machine crash may lose the most recent commits.
	SyncWrites bool
	// GroupCommit has no effect: every durable commit is acknowledged
	// only after its journal record is durable, and with SyncWrites
	// concurrent commits share one fsync (see wal); a failed journal
	// write or fsync closes the repository for writes. The field stays
	// because benchmark/stack.go sets it (ROADMAP item 7h).
	GroupCommit bool
	// MaintenanceWorkers sets where plan maintenance (the ReplanEvery
	// re-solve + store migration) runs. 0 or positive: in one background
	// worker — Commit only trips a trigger and returns while the worker
	// solves against a snapshot and installs the winning plan under a
	// short lock. Negative: inline in Commit (the commit that trips
	// ReplanEvery blocks until the re-plan finishes) — deterministic, and
	// the right choice for tests that assert on Replans immediately.
	MaintenanceWorkers int
	// EngineOptions configures the re-planning engine. A SolverTimeout
	// of 0 means 5s here; a negative one means no deadline.
	EngineOptions EngineOptions
}

// Repository is the plan-executing storage runtime: a live datastore in
// the sense of Bhattacherjee et al. [VLDB'15] whose storage layout is
// continuously optimized by the paper's solvers. Commit appends a version
// whose delta costs come from real Myers edit scripts; every ReplanEvery
// commits the portfolio Engine re-solves the configured regime and the
// content-addressed store migrates to the winning plan — materialized
// versions persisted in full, everything else as stored edit scripts.
// Checkout reconstructs any version by walking the plan's retrieval path,
// with LRU caching, singleflight deduplication and batch support.
//
// Locking is split by role. commitMu serializes the writers (Commit's
// critical section, plan installs, Close) among themselves; stateMu is
// an RWMutex protecting the serving metadata, write-locked only for the
// brief publication step of a commit or re-plan — never across diffs,
// solver races, store migrations, or journal I/O. Checkout/
// CheckoutBatch take neither lock (the store synchronizes itself), and
// Stats/Summary/Plan/Versions take only the read lock, so the read path
// proceeds concurrently with even the longest re-plan. Commit computes
// its Myers diffs before taking commitMu and waits for journal
// durability after releasing it, so concurrent commits only serialize
// on the short id-assign/apply/journal-write step; re-plans run in a
// background maintenance worker (see maintenance.go) and only take
// commitMu for the store migration and publication. Returned and
// committed line slices are shared with the cache: callers must not
// modify them.
type Repository struct {
	opt   RepositoryOptions
	st    *store.Store
	start time.Time // creation/open time (Stats reports uptime)

	// solve runs the portfolio race for maintenance passes. It defaults
	// to an Engine's Solve; tests swap it to inject solver failures.
	solve func(ctx context.Context, g *Graph, p Problem, constraint Cost) (PortfolioResult, error)

	// commitMu serializes commits, plan installs, and close. The journal
	// and the store's Add*/Install/Sweep methods are only touched under
	// it.
	commitMu  sync.Mutex
	wal       *wal // nil when the repository is not durable
	closed    bool
	closeOnce sync.Once
	closeErr  error

	// Plan-maintenance machinery (maintenance.go). passMu serializes
	// whole maintenance passes; maintMu guards the trigger/completion
	// bookkeeping. Lock order: passMu > commitMu > stateMu; maintMu
	// nests inside nothing.
	passMu       sync.Mutex
	maintCtx     context.Context
	maintCancel  context.CancelFunc
	maintStop    chan struct{}
	maintTrigger chan struct{} // capacity 1: pending passes coalesce
	maintWG      sync.WaitGroup
	maintMu      sync.Mutex
	maintCond    *sync.Cond
	maintReq     uint64 // maintenance requests issued
	maintDone    uint64 // requests satisfied by a completed pass

	asyncReplans      atomic.Int64 // passes run by the background worker
	replanFailures    atomic.Int64 // failed passes (sync or async)
	lastReplanFailure atomic.Int64 // unix nanos of the last failed pass (0 = never)

	// Plan observatory (observatory.go): the bounded pass-record ring
	// and the race-duration histogram. Both are internally
	// synchronized, so they sit outside the lock order.
	history  *planHistory
	raceHist metrics.Histogram

	// stateMu guards the serving metadata below.
	stateMu  sync.RWMutex
	g        *Graph
	plan     *Plan
	planCost PlanCost
	retr     []Cost // R(v) per version under the current plan
	// installed is the record of the pass that installed plan: Summary
	// and Stats report its Constraint (opt.Constraint before the first
	// pass), Winner and Predicted*.
	installed   PlanRecord
	sinceReplan int
	replanErr   error
	// parents records every version's committed parents (primary
	// first), the ancestry Log serves; solverWins counts installed
	// plans per winning solver, and so all of them (Stats' Replans).
	parents    [][]NodeID
	solverWins map[string]int64
}

// NewRepository returns an empty in-memory repository named name. For a
// durable repository, use Open with RepositoryOptions.DataDir.
func NewRepository(name string, opt RepositoryOptions) *Repository {
	if opt.AutoFactor <= 0 {
		opt.AutoFactor = 2
	}
	if opt.ReplanEvery == 0 {
		opt.ReplanEvery = 8
	}
	eo := opt.EngineOptions
	if eo.SolverTimeout == 0 {
		eo.SolverTimeout = 5 * time.Second
	}
	backend := opt.Backend
	if backend == nil {
		backend = store.NewShardedMemBackend(0)
	}
	r := &Repository{
		opt:        opt,
		start:      time.Now(),
		st:         store.New(store.Options{Backend: backend, CacheEntries: opt.CacheEntries, CacheBytes: opt.CacheBytes}),
		g:          NewGraph(name),
		plan:       plan.New(NewGraph(name)),
		planCost:   PlanCost{Feasible: true},
		installed:  PlanRecord{Constraint: opt.Constraint},
		history:    newPlanHistory(planHistoryLen),
		solverWins: make(map[string]int64),
	}
	r.solve = NewEngine(eo).Solve
	r.startMaintenance()
	return r
}

// Open returns a repository backed by durable storage: objects in
// opt.DataDir/packs (a disk backend, unless opt.Backend overrides it)
// and a write-ahead commit journal in opt.DataDir/journal.wal. An
// existing journal is replayed — every committed version is rebuilt into
// the version graph and the storage chain, torn tails from a crash are
// truncated, and orphaned objects (e.g. from a migration interrupted
// mid-GC) are swept — so a commit → kill → Open round-trip serves the
// exact committed history. The replayed layout is the incremental one a
// commit appends to: every version its parent plus one delta, or stored
// whole where that read would cost more than the version's own bytes, so
// a reopened repository reads no version through more delta bytes than
// it stores. The next re-plan (or Replan call) restores an optimized plan.
//
// With an empty DataDir, Open degenerates to NewRepository: a valid,
// purely in-memory repository.
func Open(name string, opt RepositoryOptions) (*Repository, error) {
	if opt.DataDir == "" {
		return NewRepository(name, opt), nil
	}
	// opened is the backend Open itself created and so must close if it
	// fails; a caller-supplied Backend stays the caller's.
	var opened *store.DiskBackend
	if opt.Backend == nil {
		b, err := store.OpenDiskBackend(opt.DataDir)
		if err != nil {
			return nil, err
		}
		opt.Backend, opened = b, b
	}
	r := NewRepository(name, opt)
	if err := r.replayJournal(); err != nil {
		r.stopMaintenance()
		if opened != nil {
			opened.Close()
		}
		return nil, err
	}
	return r, nil
}

// replayJournal opens DataDir/journal.wal, rebuilds every journaled
// version, sweeps orphaned objects and leaves the journal open for
// commits; on error the journal is closed again.
func (r *Repository) replayJournal() (err error) {
	// A torn tail (openWAL truncates it) is not an error: the damaged
	// record belongs to a commit that was never acknowledged.
	w, recs, _, err := openWAL(filepath.Join(r.opt.DataDir, "journal.wal"), r.opt.SyncWrites)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			w.Close()
		}
	}()
	for _, rec := range recs {
		if int(rec.v) != r.g.N() {
			return fmt.Errorf("versioning: journal replay: record %d out of order (have %d versions)", rec.v, r.g.N())
		}
		if rec.parent == NoParent {
			err = r.applyRoot(rec.v, rec.lines, rec.nodeStorage)
		} else {
			err = r.applyChild(rec.v, rec.parent, rec.delta, nil, rec)
		}
		if err != nil {
			return fmt.Errorf("versioning: journal replay of version %d: %w", rec.v, err)
		}
	}
	if _, err := r.st.SweepOrphans(); err != nil {
		return fmt.Errorf("versioning: sweeping orphaned objects: %w", err)
	}
	r.wal = w
	return nil
}

// Close drains the maintenance worker, flushes the journal and the
// backend, and rejects further writes. Reads keep working (a closed
// repository still serves checkouts). Closing an already-closed or
// purely in-memory repository is a no-op.
func (r *Repository) Close() error {
	r.closeOnce.Do(func() {
		r.commitMu.Lock()
		r.closed = true
		r.commitMu.Unlock()
		// Drain maintenance before touching the journal. commitMu must
		// not be held here — an in-flight pass needs it for its install
		// step (where it will observe closed and abort).
		r.stopMaintenance()
		r.commitMu.Lock()
		defer r.commitMu.Unlock()
		var err error
		if r.wal != nil {
			err = r.wal.Close()
		}
		if cerr := r.st.Close(); err == nil {
			err = cerr
		}
		r.closeErr = err
	})
	return r.closeErr
}

// Versions reports the number of committed versions.
func (r *Repository) Versions() int {
	r.stateMu.RLock()
	defer r.stateMu.RUnlock()
	return r.g.N()
}

// Commit appends a new version with the given full content. parent is the
// version it derives from (NoParent for a root, which is materialized
// until the next re-plan). The delta to and from the parent is computed
// with a real Myers diff and weighs the new graph edges; the version is
// immediately retrievable. Every ReplanEvery commits the repository
// triggers a re-plan and store migration — in a background maintenance
// worker by default (see RepositoryOptions.MaintenanceWorkers) — and a
// re-plan failure is not fatal: the previous plan keeps serving, the
// error is reported by Stats, and the next trigger retries.
//
// The commit pipeline is three phases. Diffing runs before commitMu:
// version contents are immutable and ids only grow, so the parent read
// here is still exact inside the critical section. Under commitMu the
// version id is assigned, the store and serving state updated, and the
// journal record written. Durability (waiting for an fsync that covers
// the record) happens after the lock is released, so concurrent commits
// overlap their diffs and share fsyncs and only serialize on the short
// middle step.
func (r *Repository) Commit(ctx context.Context, parent NodeID, lines []string) (NodeID, error) {
	if parent == NoParent {
		return r.commit(ctx, nil, lines)
	}
	return r.commit(ctx, []NodeID{parent}, lines)
}

// CommitMerge appends a merge version deriving from several parents
// (e.g. a git merge commit during import). parents[0] is the primary
// parent: it carries the journaled forward delta exactly as a plain
// Commit would (and the version is appended through it, or stored
// whole, by the same rule), so durability, replay, and incremental
// cost bookkeeping are unchanged. Every further distinct parent adds a
// candidate edge pair (parent ↔ v) weighed by real Myers diffs but not
// stored — the DAG structure the MSR/BMR/MMR/BSR solvers exploit at
// the next re-plan, when a merge edge may well become the cheaper
// retrieval path and the migration materializes it. An empty parents
// slice commits a root.
func (r *Repository) CommitMerge(ctx context.Context, parents []NodeID, lines []string) (NodeID, error) {
	return r.commit(ctx, parents, lines)
}

// commit is the shared commit pipeline; parents is deduplicated and
// parents[0] (when present) becomes the stored-delta parent.
func (r *Repository) commit(ctx context.Context, parents []NodeID, lines []string) (NodeID, error) {
	rec := walRecord{parent: NoParent, nodeStorage: diff.ByteSize(lines)}
	if len(parents) == 0 {
		rec.lines = lines
	} else {
		uniq := parents[:0:0]
		seen := make(map[NodeID]bool, len(parents))
		for _, p := range parents {
			if int(p) < 0 || int(p) >= r.Versions() {
				return 0, fmt.Errorf("versioning: commit: %w %d (have %d versions)", ErrUnknownParent, p, r.Versions())
			}
			if !seen[p] {
				seen[p] = true
				uniq = append(uniq, p)
			}
		}
		rec.parent = uniq[0]
		dctx, dspan := trace.StartSpan(ctx, "commit.diff")
		for i, p := range uniq {
			parentLines, err := r.st.Checkout(dctx, p)
			if err != nil {
				dspan.End()
				return 0, fmt.Errorf("versioning: reconstructing commit parent %d: %w", p, err)
			}
			fwd := diff.Compute(parentLines, lines)
			rev := diff.Compute(lines, parentLines)
			if i == 0 {
				rec.fwdStorage, rec.fwdRetr = fwd.StorageCost(), fwd.StorageCost()
				rec.revStorage, rec.revRetr = rev.StorageCost(), rev.StorageCost()
				rec.delta = fwd
			} else {
				rec.extra = append(rec.extra, walEdge{
					parent:     p,
					fwdStorage: fwd.StorageCost(), fwdRetr: fwd.StorageCost(),
					revStorage: rev.StorageCost(), revRetr: rev.StorageCost(),
				})
			}
		}
		dspan.End()
	}
	parent := rec.parent

	_, lspan := trace.StartSpan(ctx, "commit.lock")
	r.commitMu.Lock()
	lspan.End()
	if r.closed {
		r.commitMu.Unlock()
		return 0, ErrClosed
	}
	// r.g is stable here: mutations require commitMu, which we hold.
	v := NodeID(r.g.N())
	rec.v = v
	_, asp := trace.StartSpan(ctx, "commit.apply")
	var err error
	if parent == NoParent {
		err = r.applyRoot(v, lines, rec.nodeStorage)
	} else {
		err = r.applyChild(v, parent, rec.delta, lines, rec)
	}
	asp.End()
	if err != nil {
		r.commitMu.Unlock()
		return 0, err
	}
	if r.wal == nil {
		r.commitMu.Unlock()
	} else {
		// The record is written only once apply succeeded, so a failed
		// commit leaves no ghost in the journal (a duplicate version id
		// would make replay reject the whole journal).
		seq, err := r.wal.append(ctx, rec)
		r.commitMu.Unlock()
		if err == nil {
			err = r.wal.waitDurable(ctx, seq)
		}
		if err != nil {
			// The version is applied but its record may not be durable:
			// the journal and the live state may diverge, so the repository
			// closes itself rather than acknowledge commits it cannot prove
			// durable. Reads keep serving.
			r.Close()
			return 0, fmt.Errorf("versioning: journaling commit %d: %w (repository closed)", v, err)
		}
	}
	_, mspan := trace.StartSpan(ctx, "maintenance.trigger")
	r.maybeReplan(ctx)
	mspan.End()
	return v, nil
}

// applyRoot publishes root version v with the given content; commitMu is
// held. The store write happens before the brief stateMu critical
// section, so readers never block on object I/O.
func (r *Repository) applyRoot(v NodeID, lines []string, nodeStorage Cost) error {
	if err := r.st.AddMaterialized(v, lines); err != nil {
		return err
	}
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.g.AddNode(nodeStorage)
	r.plan.Materialized = append(r.plan.Materialized, true)
	r.parents = append(r.parents, nil)
	// Incremental cost bookkeeping: a materialized root adds its own
	// storage and retrieves for free.
	r.retr = append(r.retr, 0)
	r.planCost.Storage += nodeStorage
	r.sinceReplan++
	return nil
}

// applyChild publishes version v as a child of parent with the forward
// delta d and edge costs from rec; commitMu is held. v is appended as
// parent + d, so R(v) = R(parent) + r_fwd, unless that would cost more
// delta bytes to read than v costs to store: then v is materialized and
// the forward edge left unstored. Every appended version so holds
// R(v) ≤ s_v, and the graph gains the same edges either way. lines (when
// non-nil) is v's content and seeds the checkout cache; replay passes
// nil, and a materialized v is then rebuilt as its parent's checkout
// plus d. Extra merge parents in rec add candidate (unstored) edge pairs
// after the primary pair.
func (r *Repository) applyChild(v, parent NodeID, d diff.Delta, lines []string, rec walRecord) error {
	// Validate before any store write: a corrupt (or adversarial)
	// journal record must not half-apply.
	for _, x := range rec.extra {
		if int(x.parent) < 0 || x.parent >= v || x.parent == parent {
			return fmt.Errorf("versioning: merge parent %d invalid for version %d", x.parent, v)
		}
	}
	fe := EdgeID(r.g.M())
	// r.retr only changes under commitMu, which we hold.
	rv := r.retr[parent] + rec.fwdRetr
	materialize := rv > rec.nodeStorage
	if materialize {
		if lines == nil {
			pl, err := r.st.Checkout(context.Background(), parent)
			if err == nil {
				lines, err = d.Apply(pl)
			}
			if err != nil {
				return fmt.Errorf("versioning: rebuilding version %d from parent %d: %w", v, parent, err)
			}
		}
		if err := r.st.AddMaterialized(v, lines); err != nil {
			return err
		}
		rv = 0
	} else if err := r.st.AddVersion(v, parent, fe, d, lines); err != nil {
		return err
	}
	r.stateMu.Lock()
	defer r.stateMu.Unlock()
	r.g.AddNode(rec.nodeStorage)
	gfe := r.g.AddEdge(parent, v, rec.fwdStorage, rec.fwdRetr)
	gre := r.g.AddEdge(v, parent, rec.revStorage, rec.revRetr)
	if gfe != fe || gre != fe+1 {
		return fmt.Errorf("versioning: internal edge id drift (%d, %d)", gfe, gre)
	}
	r.plan.Materialized = append(r.plan.Materialized, materialize)
	r.plan.Stored = append(r.plan.Stored, !materialize, false)
	ps := make([]NodeID, 1, 1+len(rec.extra))
	ps[0] = parent
	for _, x := range rec.extra {
		r.g.AddEdge(x.parent, v, x.fwdStorage, x.fwdRetr)
		r.g.AddEdge(v, x.parent, x.revStorage, x.revRetr)
		r.plan.Stored = append(r.plan.Stored, false, false)
		ps = append(ps, x.parent)
	}
	r.parents = append(r.parents, ps)
	// Incremental cost bookkeeping: the only stored path into v is the
	// appended parent delta, so R(v) = R(parent) + r_fwd exactly, or v is
	// materialized and retrieves for free.
	r.retr = append(r.retr, rv)
	if materialize {
		r.planCost.Storage += rec.nodeStorage
	} else {
		r.planCost.Storage += rec.fwdStorage
	}
	r.planCost.SumRetrieval += rv
	if rv > r.planCost.MaxRetrieval {
		r.planCost.MaxRetrieval = rv
	}
	r.sinceReplan++
	return nil
}

// Checkout reconstructs version v's full content under the current plan.
func (r *Repository) Checkout(ctx context.Context, v NodeID) ([]string, error) {
	return r.st.Checkout(ctx, v)
}

// CheckoutResult is one CheckoutBatch outcome.
type CheckoutResult = store.BatchItem

// CheckoutBatch reconstructs many versions across GOMAXPROCS workers;
// results are positional and duplicates are deduplicated through the
// cache and singleflight layers.
func (r *Repository) CheckoutBatch(ctx context.Context, ids []NodeID) []CheckoutResult {
	return r.st.CheckoutBatch(ctx, ids)
}

// Plan returns a copy of the currently installed plan.
func (r *Repository) Plan() *Plan {
	r.stateMu.RLock()
	defer r.stateMu.RUnlock()
	return r.plan.Clone()
}

// Summary renders the currently installed plan as the shared PlanSummary
// JSON shape (also served by dsvd's /plan endpoint). It is built from
// the repository's incrementally maintained cost state — no solver or
// shortest-path work runs, and only the state read lock is taken, so
// polling it is cheap even mid-re-plan. The Constraint field is the
// bound resolved at the last re-plan (0 before the first one when
// auto-derived).
func (r *Repository) Summary() PlanSummary {
	r.stateMu.RLock()
	defer r.stateMu.RUnlock()
	s := summarize(r.g, r.plan, r.opt.Problem, r.installed.Constraint, r.planCost)
	s.Winner = r.installed.Winner
	return s
}

// RepositoryStats snapshots a repository's serving state.
type RepositoryStats struct {
	Name          string  `json:"name"`
	Versions      int     `json:"versions"`
	Deltas        int     `json:"deltas"` // graph edges (candidate deltas)
	UptimeSeconds float64 `json:"uptime_seconds"`

	Problem      string `json:"problem"`
	Storage      Cost   `json:"storage"`
	SumRetrieval Cost   `json:"sum_retrieval"`
	MaxRetrieval Cost   `json:"max_retrieval"`
	FullStorage  Cost   `json:"full_storage"` // materialize-everything baseline

	Replans        int    `json:"replans"`
	Winner         string `json:"winner,omitempty"`
	ReplanError    string `json:"replan_error,omitempty"`
	CommitsPending int    `json:"commits_pending"` // commits since the last re-plan
	// AsyncReplans counts maintenance passes run by the background
	// worker (successes and failures); ReplanFailures counts failed
	// passes on any path, and LastReplanFailureUnix timestamps the most
	// recent one (unix seconds, 0 = never). Replans above only counts
	// installed plans.
	AsyncReplans          int64   `json:"async_replans"`
	ReplanFailures        int64   `json:"replan_failures,omitempty"`
	LastReplanFailureUnix float64 `json:"last_replan_failure_unix,omitempty"`
	// Plan observatory (see PlanRecord and GET /planz). PlanRecords is
	// the lifetime pass-record count, PlanHistoryLen how many the ring
	// retains, SolverWins installed plans per winning solver, and
	// Predicted* the plan cost the latest successful pass evaluated at
	// install time (the live Storage/SumRetrieval above drift from it as
	// commits land — that drift is the re-plan pressure).
	PlanRecords           int64            `json:"plan_records,omitempty"`
	PlanHistoryLen        int              `json:"plan_history_len,omitempty"`
	SolverWins            map[string]int64 `json:"solver_wins,omitempty"`
	PredictedStorage      Cost             `json:"predicted_storage,omitempty"`
	PredictedSumRetrieval Cost             `json:"predicted_sum_retrieval,omitempty"`
	PredictedMaxRetrieval Cost             `json:"predicted_max_retrieval,omitempty"`
	// RaceLatency summarizes solver-race wall times across passes;
	// RaceDurations is the same histogram's raw snapshot for in-process
	// consumers (/metricsz renders it as a Prometheus histogram).
	RaceLatency   *metrics.LatencySummary `json:"race_latency_us,omitempty"`
	RaceDurations metrics.Snapshot        `json:"-"`
	// Journal durability points (zero without DataDir): fsyncs with
	// SyncWrites, record writes without it; the commits they covered; and
	// the most commits one covered. batched_commits / batches is the mean
	// fsync amortization.
	WALBatches        int64 `json:"wal_batches,omitempty"`
	WALBatchedCommits int64 `json:"wal_batched_commits,omitempty"`
	WALMaxBatch       int64 `json:"wal_max_batch,omitempty"`

	// The store's counters, passed through under their own JSON keys.
	StoreStats
}

// PlanContext is the plan vitals as one line, for logs: the slow-request
// log and dsvd's SIGQUIT dump attach it to give stalls their planning
// context.
func (st RepositoryStats) PlanContext() string {
	return fmt.Sprintf("replans=%d winner=%q pending=%d history=%d failures=%d",
		st.Replans, st.Winner, st.CommitsPending, st.PlanHistoryLen, st.ReplanFailures)
}

// StoreStats is the store's counter set: backend footprint, checkout
// traffic, migrations and, on disk, the pack tier.
type StoreStats = store.Stats

// Stats reports the repository's current state and traffic counters.
func (r *Repository) Stats() RepositoryStats {
	ss := r.st.Stats()
	r.stateMu.RLock()
	defer r.stateMu.RUnlock()
	st := RepositoryStats{
		Name:           r.g.Name,
		Versions:       r.g.N(),
		Deltas:         r.g.M(),
		UptimeSeconds:  time.Since(r.start).Seconds(),
		Problem:        r.opt.Problem.String(),
		Storage:        r.planCost.Storage,
		SumRetrieval:   r.planCost.SumRetrieval,
		MaxRetrieval:   r.planCost.MaxRetrieval,
		FullStorage:    r.g.TotalNodeStorage(),
		Winner:         r.installed.Winner,
		CommitsPending: r.sinceReplan,
		StoreStats:     ss,
	}
	if r.replanErr != nil {
		st.ReplanError = r.replanErr.Error()
	}
	st.AsyncReplans = r.asyncReplans.Load()
	st.ReplanFailures = r.replanFailures.Load()
	if ns := r.lastReplanFailure.Load(); ns != 0 {
		st.LastReplanFailureUnix = float64(ns) / float64(time.Second)
	}
	st.PredictedStorage = r.installed.PredictedStorage
	st.PredictedSumRetrieval = r.installed.PredictedSumRetrieval
	st.PredictedMaxRetrieval = r.installed.PredictedMaxRetrieval
	if len(r.solverWins) > 0 {
		st.SolverWins = make(map[string]int64, len(r.solverWins))
		for k, v := range r.solverWins {
			st.SolverWins[k] = v
			st.Replans += int(v)
		}
	}
	st.PlanRecords = r.history.lifetime()
	st.PlanHistoryLen = int(min(st.PlanRecords, planHistoryLen)) // what the ring retains
	st.RaceDurations = r.raceHist.Snapshot()
	if st.RaceDurations.Count > 0 {
		sum := st.RaceDurations.Summary()
		st.RaceLatency = &sum
	}
	if r.wal != nil {
		st.WALBatches = r.wal.batches.Load()
		st.WALBatchedCommits = r.wal.batchedRecs.Load()
		st.WALMaxBatch = r.wal.maxBatch.Load()
	}
	return st
}
