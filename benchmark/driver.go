package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/client"
	"repro/serve"
	"repro/versioning"
)

// repoAPI is what the driver calls on one repository: the root client
// in single mode, a tenant view in multi mode.
type repoAPI interface {
	Commit(ctx context.Context, parent nodeID, lines []string) (client.CommitResult, error)
	CommitMerge(ctx context.Context, parents []nodeID, lines []string) (client.CommitResult, error)
	Checkout(ctx context.Context, id nodeID) ([]string, error)
	CheckoutPath(ctx context.Context, id nodeID, scope string) ([]string, error)
	Diff(ctx context.Context, a, b nodeID) (client.DiffResult, error)
	Replan(ctx context.Context) (versioning.PlanSummary, error)
	Stats(ctx context.Context) (versioning.RepositoryStats, error)
	Planz(ctx context.Context, topK int) (serve.Planz, error)
}

// driver sends a workload to one stack through package client and
// checks every answer against the generator's contents.
type driver struct {
	w     *workload
	rec   *recorder // nil in the untraced run
	cl    *client.Client
	repos []repoAPI
	bytes atomic.Int64 // response body bytes, for client.body_mb_per_s

	mu   sync.Mutex
	acks []ack // every acknowledged commit after the corpus, for the read-back
}

// ack is a commit the daemon acknowledged: id must check out as lines.
type ack struct {
	tenant int
	id     nodeID
	lines  []string
}

func newDriver(w *workload, url string, rec *recorder) *driver {
	d := &driver{w: w, rec: rec}
	transport := http.RoundTripper(&http.Transport{MaxIdleConnsPerHost: 16})
	if rec != nil {
		transport = &tracedTransport{base: transport, rec: rec}
	}
	// Closed loop as a pipeline or CI job would call: no coalescing
	// window, no validator cache, and no retries, so that a throttled or
	// failed request is counted and never hidden behind a second attempt.
	d.cl = client.New(url, client.Options{
		HTTPClient:     &http.Client{Transport: transport},
		RequestTimeout: 60 * time.Second,
		MaxRetries:     -1,
		CoalesceWindow: -1,
		OnResponse:     func(_ string, n int64) { d.bytes.Add(n) },
	})
	if w.spec.tenants == 0 {
		d.repos = []repoAPI{d.cl}
	}
	for t := 0; t < w.spec.tenants; t++ {
		d.repos = append(d.repos, d.cl.Tenant(tenantName(t)))
	}
	return d
}

func (d *driver) close() { d.cl.Close() }

// load commits the corpus, one client, oldest first, so the daemon's
// version ids are the generator's.
func (d *driver) load(ctx context.Context, ref *refSampler) error {
	for t, c := range d.w.repos {
		for v, lines := range c.contents {
			ref.tick()
			var res client.CommitResult
			var err error
			switch ps := c.parents[v]; len(ps) {
			case 0:
				res, err = d.repos[t].Commit(ctx, versioning.NoParent, lines)
			case 1:
				res, err = d.repos[t].Commit(ctx, ps[0], lines)
			default:
				res, err = d.repos[t].CommitMerge(ctx, ps, lines)
			}
			if err != nil {
				return fmt.Errorf("loading %s version %d: %w", tenantName(t), v, err)
			}
			if res.ID != nodeID(v) {
				return fmt.Errorf("loading %s: version %d got id %d", tenantName(t), v, res.ID)
			}
		}
	}
	return nil
}

// setUp brings a fresh stack to the state the plan phase starts from:
// corpus loaded, a plan installed where the daemon will not install one
// itself, and the caches warm from the read ops the window starts with.
// It returns the units of yard done along the way.
func (d *driver) setUp(ctx context.Context, yard *yardstick, logf func(string, ...any)) (refMS []float64, err error) {
	ref := refSampler{y: yard}
	t0 := time.Now()
	if err := d.load(ctx, &ref); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if d.w.spec.replanEvery < 0 {
		for t := range d.repos {
			if _, _, err := ref.around(func() error { _, err := d.repos[t].Replan(ctx); return err }); err != nil {
				return nil, fmt.Errorf("initial re-plan: %w", err)
			}
		}
	}
	t2 := time.Now()
	if d.w.spec.warmAll {
		for t, c := range d.w.repos {
			for v := range c.contents {
				ref.tick()
				if _, err := d.repos[t].Checkout(ctx, nodeID(v)); err != nil {
					return nil, fmt.Errorf("warm-up: %w", err)
				}
			}
		}
	}
	warm := d.run(ctx, yard, 0, func(o *op) bool { return o.kind != opCommit })
	logf("set-up: load %s, initial re-plan %s, warm-up %s (%d reads)",
		t1.Sub(t0).Round(time.Millisecond), t2.Sub(t1).Round(time.Millisecond), time.Since(t2).Round(time.Millisecond), warm.attempted)
	if warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d ops failed: %s", warm.failed, warm.attempted, warm.firstErr)
	}
	return append(ref.ms, warm.refMS...), nil
}

// planResult is what the plan phase measured: each round's re-plan, the
// reference units done next to them, and the plan's cost after the last
// one (summed over the tenants that got a round, in multi mode).
type planResult struct {
	replans      []replan
	refMS        []float64
	sumRetrieval int64
	storedBytes  int64
	fullStorage  int64
}

// planPhase runs the spec's rounds of {commit, POST /replan}. One
// client, a fixed count, nothing else running: the graph each race sees
// is the seed's alone, so sum_retrieval and the stored bytes repeat.
func (d *driver) planPhase(ctx context.Context, yard *yardstick) (planResult, error) {
	var out planResult
	ref := refSampler{y: yard}
	heads := make([]nodeID, len(d.repos))
	for t := range heads {
		heads[t] = nodeID(d.w.spec.versions - 1)
	}
	stats := make([]versioning.RepositoryStats, len(d.repos))
	for _, round := range d.w.rounds {
		t := round[0].tenant
		for _, st := range round {
			res, err := d.repos[t].Commit(ctx, heads[t], st.lines)
			if err != nil {
				return out, fmt.Errorf("plan phase commit: %w", err)
			}
			heads[t] = res.ID
			d.acks = append(d.acks, ack{tenant: t, id: res.ID, lines: st.lines})
		}
		seconds, near, err := ref.around(func() error { _, err := d.repos[t].Replan(ctx); return err })
		if err != nil {
			return out, fmt.Errorf("plan phase re-plan: %w", err)
		}
		out.replans = append(out.replans, replan{seconds: seconds, slow: yard.slowdown(near)})
		// Read the cost while the tenant is still open: a reopened tenant
		// is back on its incremental chain until its next re-plan.
		if stats[t], err = d.repos[t].Stats(ctx); err != nil {
			return out, err
		}
	}
	for _, st := range stats {
		out.sumRetrieval += int64(st.SumRetrieval)
		out.storedBytes += st.StoredBytes
		out.fullStorage += int64(st.FullStorage)
	}
	out.refMS = ref.ms
	if yard.dir != "" { // a bracket of writing units is too few to read one re-plan against
		for i := range out.replans {
			out.replans[i].slow = yard.slowdown(ref.ms)
		}
	}
	return out, nil
}

// replan is one timed POST /replan: the solver race and the migration
// to its plan, as the client waited for it, and how much slower than
// nominal the reference units next to it ran.
type replan struct{ seconds, slow float64 }

func (r replan) String() string { return fmt.Sprintf("%.1f@%.2f", r.seconds*1e3, r.slow) }

// replanAtReference is the run's replan_s. Round r is the same work in
// every trial, and rounds differ (fleet-write's go to tenants whose
// migrations take from 5 to 50 ms): a round's time is the median of its
// trials, so that a stall in one of them drops out, and the run's is the
// mean of its rounds, which unlike their median does not sit on the gap
// between a cheap round and a dear one.
func replanAtReference(trials []trial) float64 {
	rounds := len(trials[0].plan.replans)
	sum := 0.0
	for r := 0; r < rounds; r++ {
		v := make([]float64, len(trials))
		for i, tr := range trials {
			v[i] = tr.plan.replans[r].seconds / tr.plan.replans[r].slow
		}
		sum += median(v)
	}
	return sum / float64(rounds)
}

// windowResult is what the clients saw during one closed-loop window.
type windowResult struct {
	elapsed   time.Duration
	lat       [numKinds][]float64 // ms per successful op
	perSecond []float64           // successful ops finished in each whole second of the window
	attempted int
	failed    int
	firstErr  string
	bytes     int64
	refMS     []float64 // the reference units the clients did between ops
}

// opsPerSecond is the median of the per-second throughputs: a stall of
// a second or two (a journal flush, a neighbour on the host) moves the
// mean of a few seconds' window by a tenth or more and the median hardly
// at all.
func (r *windowResult) opsPerSecond() float64 {
	if len(r.perSecond) == 0 {
		return float64(r.attempted-r.failed) / r.elapsed.Seconds()
	}
	return median(r.perSecond)
}

// run drives every client's op list in a closed loop: each client sends
// its next op when the previous one has answered. dur > 0 cycles the
// lists until the time is up; dur == 0 makes one pass over the first
// warmOps of each list (the warm-up). keep filters ops (nil = all).
func (d *driver) run(ctx context.Context, yard *yardstick, dur time.Duration, keep func(*op) bool) windowResult {
	results := make([]windowResult, len(d.w.clients))
	bytes0 := d.bytes.Load()
	start := time.Now()
	var wg sync.WaitGroup
	for c := range d.w.clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ops, res := d.w.clients[c], &results[c]
			res.perSecond = make([]float64, int(dur/time.Second))
			ref := refSampler{y: yard}
			defer func() { res.refMS = ref.ms }()
			limit := min(d.w.spec.warmOps, len(ops))
			for i := 0; ; i++ {
				if dur > 0 && time.Since(start) >= dur || dur == 0 && i >= limit {
					return
				}
				o := &ops[i%len(ops)]
				if keep != nil && !keep(o) {
					continue
				}
				ref.tick()
				ms, err := d.do(ctx, o)
				res.attempted++
				if err != nil {
					res.failed++
					if res.firstErr == "" {
						res.firstErr = fmt.Sprintf("%s %s a=%d b=%d: %v", kindNames[o.kind], tenantName(o.tenant), o.a, o.b, err)
					}
					continue
				}
				res.lat[o.kind] = append(res.lat[o.kind], ms)
				if sl := int(time.Since(start) / time.Second); sl < len(res.perSecond) {
					res.perSecond[sl]++
				}
			}
		}()
	}
	wg.Wait()
	out := windowResult{elapsed: time.Since(start), bytes: d.bytes.Load() - bytes0, perSecond: make([]float64, int(dur/time.Second))}
	for _, r := range results {
		for i, n := range r.perSecond {
			out.perSecond[i] += n
		}
		out.attempted += r.attempted
		out.failed += r.failed
		out.refMS = append(out.refMS, r.refMS...)
		if out.firstErr == "" {
			out.firstErr = r.firstErr
		}
		for k := range r.lat {
			out.lat[k] = append(out.lat[k], r.lat[k]...)
		}
	}
	return out
}

var errWrongContent = errors.New("content differs from the oracle")

// do sends one op, timing only the client call, then checks the answer
// (a commit's answer is checked by the read-back). In a traced run the
// call is the root span of the op.
func (d *driver) do(ctx context.Context, o *op) (ms float64, err error) {
	end := func() {}
	if d.rec.enabled() {
		var id uint64
		id, end = d.rec.beginOp(layerClient + "." + kindNames[o.kind])
		ctx = withSpan(ctx, spanRef{id: id, op: id})
	}
	repo, want := d.repos[o.tenant], d.w.repos[o.tenant].contents
	var check func() bool
	t0 := time.Now()
	switch o.kind {
	case opCheckout:
		var got []string
		got, err = repo.Checkout(ctx, o.a)
		check = func() bool { return slices.Equal(got, want[o.a]) }
	case opPath:
		var got []string
		got, err = repo.CheckoutPath(ctx, o.a, o.scope)
		check = func() bool { return slices.Equal(got, versioning.FilterManifest(want[o.a], o.scope)) }
	case opDiff:
		var got client.DiffResult
		got, err = repo.Diff(ctx, o.a, o.b)
		check = func() bool { return applies(got.Ops, want[o.a], want[o.b]) }
	case opCommit:
		var got client.CommitResult
		got, err = repo.Commit(ctx, o.a, o.lines)
		check = func() bool {
			d.mu.Lock()
			d.acks = append(d.acks, ack{tenant: o.tenant, id: got.ID, lines: o.lines})
			d.mu.Unlock()
			return true
		}
	}
	ms = float64(time.Since(t0)) / float64(time.Millisecond)
	end()
	if err == nil && !check() {
		err = errWrongContent
	}
	return ms, err
}

// applies reports whether the edit script turns a into exactly b.
func applies(ops []client.DiffOp, a, b []string) bool {
	out := make([]string, 0, len(b))
	at := 0
	for _, o := range ops {
		switch o.Op {
		case "keep":
			if o.N < 0 || at+o.N > len(a) {
				return false
			}
			out = append(out, a[at:at+o.N]...)
			at += o.N
		case "delete":
			if o.N < 0 || at+o.N > len(a) {
				return false
			}
			at += o.N
		case "insert":
			out = append(out, o.Lines...)
		default:
			return false
		}
	}
	return at == len(a) && slices.Equal(out, b)
}

// readBack checks out every acknowledged commit, a tenant at a time so
// that a small -max-open does not reopen tenants per commit, and
// returns how many it tried and how many were missing or wrong.
func (d *driver) readBack(ctx context.Context) (attempted, failed int, firstErr string) {
	acks := slices.Clone(d.acks)
	sort.SliceStable(acks, func(i, j int) bool { return acks[i].tenant < acks[j].tenant })
	for _, a := range acks {
		got, err := d.repos[a.tenant].Checkout(ctx, a.id)
		if err == nil && !slices.Equal(got, a.lines) {
			err = errWrongContent
		}
		attempted++
		if err != nil {
			failed++
			if firstErr == "" {
				firstErr = fmt.Sprintf("read-back of %s version %d: %v", tenantName(a.tenant), a.id, err)
			}
		}
	}
	return attempted, failed, firstErr
}

// percentile returns the q-quantile (nearest rank) of sorted values.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(v []float64) []float64 {
	out := slices.Clone(v)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return percentile(sortedCopy(v), 0.5) }
