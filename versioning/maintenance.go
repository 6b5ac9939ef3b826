package versioning

// Background plan maintenance. A pass races the whole portfolio, so it
// stays off the commit path: Commit only bumps sinceReplan and pokes a
// trigger, and a per-repository worker (started in NewRepository,
// drained in Close) runs the pass:
//
//  1. snapshot — clone the version graph under the state read lock, so
//     the solver sees a frozen problem while commits keep appending to
//     the live graph;
//  2. decide — resolve the constraint and race the portfolio against
//     the snapshot, with no store and no lock;
//  3. preload — reconstruct the contents the migration will need
//     (store.MigrationNeeds: versions the winning plan newly
//     materializes and the endpoints of deltas it newly stores; what the
//     serving plan already holds is taken over by key) through the
//     normal concurrent checkout path;
//  4. install — under commitMu, graft the incremental entries of the
//     versions committed during the solve onto the solved plan, migrate
//     the store, and publish the new serving state under a brief
//     stateMu write lock;
//  5. record — append the pass's PlanRecord to the observatory ring.
//
// Only step 4 excludes commits, and it is pure object I/O over
// precomputed contents. Triggers coalesce (a pass already underway
// absorbs later requests), a failed pass leaves the previous plan
// serving and surfaces through Stats().ReplanError, and — because
// failure does not reset sinceReplan — the next commit re-triggers a
// retry instead of waiting out another ReplanEvery window. A pass that
// is called off — its own context ends, or the repository closes under
// it — is not a failure: it leaves the previous plan serving and records
// nothing.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// Maintenance-pass trigger reasons, recorded in each PlanRecord.
const (
	triggerCadence = "cadence" // ReplanEvery commit cadence, background worker
	triggerSync    = "sync"    // the same cadence run inline in Commit (MaintenanceWorkers < 0)
	triggerManual  = "manual"  // Replan / POST /replan
)

// startMaintenance starts the background worker, unless
// MaintenanceWorkers < 0 asks for passes inline in Commit; called once
// from NewRepository before the repository is shared.
func (r *Repository) startMaintenance() {
	r.maintStop = make(chan struct{})
	r.maintTrigger = make(chan struct{}, 1)
	r.maintCtx, r.maintCancel = context.WithCancel(context.Background())
	r.maintCond = sync.NewCond(&r.maintMu)
	if r.opt.MaintenanceWorkers >= 0 {
		r.maintWG.Add(1)
		go r.maintenanceLoop()
	}
}

// stopMaintenance cancels any in-flight solve, stops the worker and
// waits it out, then unblocks WaitMaintenance callers whose requests will
// never be served.
func (r *Repository) stopMaintenance() {
	r.maintCancel()
	close(r.maintStop)
	r.maintWG.Wait()
	r.maintMu.Lock()
	r.maintDone = r.maintReq
	r.maintCond.Broadcast()
	r.maintMu.Unlock()
}

// maybeReplan runs after every successful commit, with no locks held:
// if the repository is due for a re-plan it either schedules one on the
// background worker or (MaintenanceWorkers < 0) runs the pass inline
// before returning.
func (r *Repository) maybeReplan(ctx context.Context) {
	if r.opt.ReplanEvery <= 0 {
		return
	}
	r.stateMu.RLock()
	due := r.sinceReplan >= r.opt.ReplanEvery
	r.stateMu.RUnlock()
	if !due {
		return
	}
	if r.opt.MaintenanceWorkers < 0 {
		r.runPass(ctx, triggerSync)
		return
	}
	r.scheduleReplan()
}

// scheduleReplan requests one background pass. Requests coalesce: the
// trigger channel holds at most one pending pass, and a pass that is
// already running will satisfy every request issued before it finishes
// (it solves against a snapshot taken after those requests).
func (r *Repository) scheduleReplan() {
	r.maintMu.Lock()
	r.maintReq++
	r.maintMu.Unlock()
	select {
	case r.maintTrigger <- struct{}{}:
	default: // a pass is already pending; it will cover this request
	}
}

// maintenanceLoop is the background worker: wait for a trigger, run a
// pass, mark every request issued before the pass started as done, and
// re-trigger if commits landed during the pass kept the repository due.
func (r *Repository) maintenanceLoop() {
	defer r.maintWG.Done()
	for {
		select {
		case <-r.maintStop:
			return
		case <-r.maintTrigger:
		}
		r.maintMu.Lock()
		goal := r.maintReq
		r.maintMu.Unlock()
		err := r.runPass(r.maintCtx, triggerCadence)
		r.asyncReplans.Add(1)
		r.maintMu.Lock()
		if goal > r.maintDone {
			r.maintDone = goal
		}
		r.maintCond.Broadcast()
		r.maintMu.Unlock()
		if err == nil {
			// Commits during the pass may already have re-armed the
			// cadence; without a self-trigger the backlog would sit until
			// the next commit. (After a failure the next commit is the
			// retry path — self-triggering would hot-loop a broken solver.)
			r.stateMu.RLock()
			due := r.opt.ReplanEvery > 0 && r.sinceReplan >= r.opt.ReplanEvery
			r.stateMu.RUnlock()
			if due {
				r.scheduleReplan()
			}
		}
	}
}

// WaitMaintenance blocks until every maintenance pass requested before
// the call has completed (successfully or not), or ctx is done. It
// returns immediately on repositories with nothing pending; a Close
// releases all waiters. Use it in tests and tooling that assert on
// Stats after committing past the ReplanEvery cadence.
func (r *Repository) WaitMaintenance(ctx context.Context) error {
	r.maintMu.Lock()
	target := r.maintReq
	r.maintMu.Unlock()
	if target == 0 {
		return nil
	}
	// Wake the cond waiter when ctx fires; Broadcast is harmless noise
	// for everyone else.
	stop := context.AfterFunc(ctx, func() {
		r.maintMu.Lock()
		r.maintCond.Broadcast()
		r.maintMu.Unlock()
	})
	defer stop()
	r.maintMu.Lock()
	defer r.maintMu.Unlock()
	for r.maintDone < target {
		if err := ctx.Err(); err != nil {
			return err
		}
		r.maintCond.Wait()
	}
	return nil
}

// Replan forces a full maintenance pass — a portfolio re-solve of the
// configured regime and a store migration to the winning plan — and
// returns its error. It runs on the caller's goroutine (commits proceed
// during the solve, exactly as for a background pass) and serializes
// with any in-flight background pass.
func (r *Repository) Replan(ctx context.Context) error {
	if r.isClosed() {
		return ErrClosed
	}
	return r.runPass(ctx, triggerManual)
}

func (r *Repository) isClosed() bool {
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	return r.closed
}

// runPass executes one maintenance pass end to end and records its
// outcome for Stats. passMu serializes whole passes — two concurrent
// solves against overlapping snapshots would just race to install the
// same plan.
func (r *Repository) runPass(ctx context.Context, trigger string) error {
	r.passMu.Lock()
	defer r.passMu.Unlock()
	err := r.replanAndInstall(ctx, trigger)
	if err != nil && !calledOff(ctx, err) {
		r.replanFailures.Add(1)
		r.lastReplanFailure.Store(time.Now().UnixNano())
		r.stateMu.Lock()
		// Deliberately NOT resetting sinceReplan: the next commit past
		// the cadence re-triggers, so a transient solver failure heals
		// itself instead of wedging until a full extra window elapses.
		r.replanErr = err
		r.stateMu.Unlock()
	}
	return err
}

// calledOff reports whether a pass that returned err ended because it
// was called off rather than because it failed: its own ctx ended (a
// caller gave up, or Close cancelled the worker) or the repository
// closed. A race whose members all miss SolverTimeout under a live ctx
// is a failure.
func calledOff(ctx context.Context, err error) bool {
	return ctx.Err() != nil || errors.Is(err, ErrClosed)
}

// replanAndInstall is the pass body: snapshot, decide, preload,
// install, record. Every pass with a non-empty snapshot that is not
// called off appends a PlanRecord to the observatory ring — successes
// with the race report, prediction, and migration totals; failures with
// the error and whatever race context produced it.
func (r *Repository) replanAndInstall(ctx context.Context, trigger string) error {
	if r.isClosed() {
		return ErrClosed
	}
	passStart := time.Now()
	r.stateMu.RLock()
	gSnap := r.g.Clone()
	r.stateMu.RUnlock()
	if gSnap.N() == 0 {
		r.stateMu.Lock()
		r.sinceReplan = 0
		r.replanErr = nil
		r.stateMu.Unlock()
		return nil
	}
	p, rec, err := decide(ctx, gSnap, r.opt, r.solve)
	rec.UnixMS = passStart.UnixMilli()
	rec.Trigger = trigger
	if rec.Reports != nil { // the race ran
		r.raceHist.Observe(time.Duration(rec.SolveUS) * time.Microsecond)
	}
	fail := func(err error) error {
		if calledOff(ctx, err) {
			return err
		}
		rec.Err = err.Error()
		rec.Failed = true
		rec.TotalUS = time.Since(passStart).Microseconds()
		r.history.append(rec)
		return err
	}
	if err != nil {
		return fail(err)
	}

	// Precompute the contents the migration will ask for through the
	// normal concurrent checkout path, so the install step under commitMu
	// is pure object I/O. Contents are immutable, so these stay exact no
	// matter how many commits land meanwhile, and commits only add to
	// what the store can take over: the versions grafted below keep the
	// objects AddVersion or AddMaterialized gave them and are not read at
	// all.
	preloadStart := time.Now()
	needs := r.st.MigrationNeeds(gSnap, p)
	memo := make(map[NodeID][]string, len(needs))
	for _, v := range needs {
		l, cerr := r.st.Checkout(ctx, v)
		if cerr != nil {
			return fail(fmt.Errorf("versioning: preloading content for migration: %w", cerr))
		}
		memo[v] = l
	}
	rec.PreloadUS = time.Since(preloadStart).Microseconds()
	rec.PreloadVersions = len(needs)
	content := func(v NodeID) ([]string, error) {
		if l, ok := memo[v]; ok {
			return l, nil
		}
		// Install asks for a subset of needs; should that ever not hold,
		// reading through the serving plan is still exact.
		return r.st.Checkout(ctx, v)
	}

	// Install + publish under commitMu: the store's Install must not
	// race AddVersion (both swap the metadata maps), and the graft below
	// must see a frozen live plan. r.g and r.plan are safe to read here —
	// every writer holds commitMu.
	r.commitMu.Lock()
	defer r.commitMu.Unlock()
	if r.closed {
		return fail(ErrClosed)
	}
	// Graft the versions committed while the solver ran: they keep the
	// exact incremental layout the live plan gave them (materialized
	// roots and whole appends, stored forward deltas), so the installed
	// plan covers the full live graph and those versions' storage is
	// untouched.
	rec.Grafted = r.g.N() - gSnap.N()
	p.Materialized = append(p.Materialized, r.plan.Materialized[gSnap.N():]...)
	p.Stored = append(p.Stored, r.plan.Stored[gSnap.M():]...)
	// passMu and commitMu keep every other Install out, so the counters'
	// difference is this migration's.
	before := r.st.Stats()
	if err := r.st.Install(r.g, p, content); err != nil {
		return fail(fmt.Errorf("versioning: migrating to new plan: %w", err))
	}
	after := r.st.Stats()
	rec.MigrationObjects = after.MigrationObjects - before.MigrationObjects
	rec.MigrationBytes = after.MigrationBytes - before.MigrationBytes
	rec.MigrationUS = after.MigrationMicros - before.MigrationMicros
	retr := p.Retrievals(r.g)
	cost := plan.EvaluateWith(r.g, p, retr)
	rec.PredictedStorage = cost.Storage
	rec.PredictedSumRetrieval = cost.SumRetrieval
	rec.PredictedMaxRetrieval = cost.MaxRetrieval
	r.stateMu.Lock()
	r.plan = p
	r.planCost = cost
	r.retr = retr
	r.installed = rec
	r.sinceReplan = rec.Grafted
	r.replanErr = nil
	r.solverWins[rec.Winner]++
	r.stateMu.Unlock()
	rec.TotalUS = time.Since(passStart).Microseconds()
	r.history.append(rec)
	return nil
}

// decide is a pass's decision on snap: it resolves the regime's
// constraint, races solve under it and returns the winner's plan (nil on
// error) and a record of the decision as far as it got. It touches no
// store and takes no lock.
func decide(ctx context.Context, snap *Graph, opt RepositoryOptions, solve func(context.Context, *Graph, Problem, Cost) (PortfolioResult, error)) (*Plan, PlanRecord, error) {
	rec := PlanRecord{Versions: snap.N(), Deltas: snap.M(), Problem: opt.Problem.String()}
	// One min-storage arborescence serves the whole decision: the
	// automatic constraint and the race's LMG-All start from it.
	ctx = core.WithMinStorage(ctx, snap)
	start := time.Now()
	constraint, err := constraintFor(ctx, snap, opt)
	rec.Constraint, rec.ConstraintUS = constraint, time.Since(start).Microseconds()
	if err != nil {
		return nil, rec, err
	}
	start = time.Now()
	res, err := solve(ctx, snap, opt.Problem, constraint)
	rec.SolveUS = time.Since(start).Microseconds()
	rec.Winner = res.Winner
	rec.Reports = raceReports(res.Reports)
	if err != nil {
		return nil, rec, fmt.Errorf("versioning: re-plan %s(%d): %w", opt.Problem, constraint, err)
	}
	return res.Solution.Plan, rec, nil
}

// constraintFor resolves opt's regime constraint against g: the
// configured bound, or an automatic one derived from g's
// minimum-storage plan, the one ctx carries for g if any.
func constraintFor(ctx context.Context, g *Graph, opt RepositoryOptions) (Cost, error) {
	if opt.Constraint != 0 {
		return opt.Constraint, nil
	}
	switch opt.Problem {
	case ProblemMST, ProblemSPT:
		return 0, nil // unconstrained problems
	}
	mst, err := core.MST(ctx, g)
	if err != nil {
		return 0, fmt.Errorf("versioning: deriving auto constraint: %w", err)
	}
	switch opt.Problem {
	case ProblemMSR, ProblemMMR:
		return Cost(float64(mst.Cost.Storage) * opt.AutoFactor), nil
	case ProblemBSR:
		return mst.Cost.SumRetrieval, nil
	case ProblemBMR:
		return mst.Cost.MaxRetrieval, nil
	default:
		return 0, fmt.Errorf("versioning: no auto constraint for %s", opt.Problem)
	}
}
