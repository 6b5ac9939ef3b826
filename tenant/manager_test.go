package tenant

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/versioning"
)

// testOptions returns manager options cheap enough for unit tests:
// explicit-only re-planning so no solver races run.
func testOptions(root string) Options {
	return Options{
		RootDir: root,
		Repo: versioning.RepositoryOptions{
			ReplanEvery: -1,
		},
	}
}

func lines(s ...string) []string { return s }

// commitTo appends one version through a fresh handle.
func commitTo(t *testing.T, m *Manager, name string, parent versioning.NodeID, content []string) versioning.NodeID {
	t.Helper()
	h, err := m.Acquire(context.Background(), name)
	if err != nil {
		t.Fatalf("acquire %s: %v", name, err)
	}
	defer h.Release()
	id, err := h.Repo().Commit(context.Background(), parent, content)
	if err != nil {
		t.Fatalf("commit to %s: %v", name, err)
	}
	return id
}

func TestValidateName(t *testing.T) {
	for _, ok := range []string{"a", "alice", "team-7.staging", "A_b-C.9", "x", "0numeric"} {
		if err := ValidateName(ok); err != nil {
			t.Errorf("ValidateName(%q) = %v, want nil", ok, err)
		}
	}
	long := ""
	for i := 0; i < MaxNameLen+1; i++ {
		long += "a"
	}
	for _, bad := range []string{
		"", ".", "..", ".hidden", "-flag", "a/b", "a\\b", "a b", "a\x00b",
		"über", "a\nb", "../etc", long,
	} {
		err := ValidateName(bad)
		if err == nil {
			t.Errorf("ValidateName(%q) accepted, want error", bad)
			continue
		}
		if !errors.Is(err, ErrBadName) {
			t.Errorf("ValidateName(%q) error %v does not wrap ErrBadName", bad, err)
		}
	}
}

func TestManagerLazyOpenAndReuse(t *testing.T) {
	m := NewManager(testOptions(""))
	defer m.Close()
	ctx := context.Background()
	h1, err := m.Acquire(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	h2, err := m.Acquire(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if h1.Repo() != h2.Repo() {
		t.Fatal("two acquires of one tenant returned different repositories")
	}
	if fs := m.Fleet(1); fs.Opens != 1 || fs.Reopens != 0 {
		t.Fatalf("two acquires cost %d opens (%d reopens), want one shared open", fs.Opens, fs.Reopens)
	}
	if got := m.OpenCount(); got != 1 {
		t.Fatalf("OpenCount = %d, want 1", got)
	}
	h1.Release()
	h2.Release()

	if _, err := m.Acquire(ctx, "no/good"); !errors.Is(err, ErrBadName) {
		t.Fatalf("acquire with bad name: %v, want ErrBadName", err)
	}
}

func TestManagerEvictionAndTransparentReopen(t *testing.T) {
	root := t.TempDir()
	opt := testOptions(root)
	opt.MaxOpen = 2
	m := NewManager(opt)
	defer m.Close()
	ctx := context.Background()

	// openNames lists the tenants the manager currently holds open.
	openNames := func() []string {
		var open []string
		for _, info := range m.Infos() {
			if info.Open {
				open = append(open, info.Name)
			}
		}
		return open
	}

	commitTo(t, m, "t1", versioning.NoParent, lines("t1 v0"))
	commitTo(t, m, "t2", versioning.NoParent, lines("t2 v0"))
	h1, err := m.Acquire(ctx, "t1")
	if err != nil {
		t.Fatal(err)
	}
	h1.Release()

	// Touching a third tenant must evict the LRU one (t1: t2 was used
	// more recently via its commit? No — t1 was re-acquired above, so t2
	// is the LRU victim).
	commitTo(t, m, "t3", versioning.NoParent, lines("t3 v0"))
	if got := m.OpenCount(); got != 2 {
		t.Fatalf("OpenCount after third tenant = %d, want 2", got)
	}
	if fs := m.Fleet(10); fs.Evictions != 1 || fs.Reopens != 0 {
		t.Fatalf("evictions = %d, reopens = %d after the third tenant, want 1 and 0", fs.Evictions, fs.Reopens)
	}
	if open := openNames(); !slices.Equal(open, []string{"t1", "t3"}) {
		t.Fatalf("open tenants = %v, want [t1 t3] (t2 evicted)", open)
	}

	// The evicted tenant reopens transparently with its history intact,
	// as a fresh open that in turn evicts the next LRU tenant.
	h2, err := m.Acquire(ctx, "t2")
	if err != nil {
		t.Fatalf("reopening evicted tenant: %v", err)
	}
	defer h2.Release()
	got, err := h2.Repo().Checkout(ctx, 0)
	if err != nil {
		t.Fatalf("checkout after reopen: %v", err)
	}
	if len(got) != 1 || got[0] != "t2 v0" {
		t.Fatalf("reopened content = %q", got)
	}
	fs := m.Fleet(10)
	if fs.Evictions != 2 || fs.Reopens != 1 || fs.Opens != 4 || fs.Tenants != 3 {
		t.Fatalf("fleet stats = %+v, want 2 evictions, 1 reopen, 4 opens, 3 tenants", fs)
	}
}

// TestManagerInMemoryNeverEvicts: without a RootDir an evicted tenant
// would have no journal to reopen from, so MaxOpen is ignored and every
// tenant keeps its history.
func TestManagerInMemoryNeverEvicts(t *testing.T) {
	opt := testOptions("")
	opt.MaxOpen = 1
	m := NewManager(opt)
	defer m.Close()
	names := []string{"t1", "t2", "t3"}
	for round := 0; round < 2; round++ {
		for _, name := range names {
			commitTo(t, m, name, versioning.NoParent, lines(fmt.Sprintf("%s v%d", name, round)))
		}
	}
	if fs := m.Fleet(3); fs.Evictions != 0 || fs.Open != 3 || fs.Reopens != 0 {
		t.Fatalf("fleet stats = %+v, want no eviction and all three open", fs)
	}
	ctx := context.Background()
	for _, name := range names {
		h, err := m.Acquire(ctx, name)
		if err != nil {
			t.Fatal(err)
		}
		for v := 0; v < 2; v++ {
			got, err := h.Repo().Checkout(ctx, versioning.NodeID(v))
			if want := fmt.Sprintf("%s v%d", name, v); err != nil || len(got) != 1 || got[0] != want {
				t.Errorf("%s: Checkout(%d) = %q, %v; want %q", name, v, got, err, want)
			}
		}
		h.Release()
	}
}

func TestManagerEvictionSkipsBusyTenants(t *testing.T) {
	opt := testOptions(t.TempDir())
	opt.MaxOpen = 1
	m := NewManager(opt)
	defer m.Close()
	ctx := context.Background()

	hA, err := m.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	// While a is pinned, opening b exceeds MaxOpen rather than closing a
	// repository that is mid-request.
	hB, err := m.Acquire(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	if got := m.OpenCount(); got != 2 {
		t.Fatalf("OpenCount with both pinned = %d, want 2", got)
	}
	hB.Release()
	hA.Release()
	// The last release brings the fleet back under the bound.
	if got := m.OpenCount(); got != 1 {
		t.Fatalf("OpenCount after releases = %d, want 1", got)
	}
}

// TestManagerEvictionIgnoresClosingEntries holds an eviction's flush
// open while a second tenant is released. The closing entry stays in the
// map until its flush ends; counted against MaxOpen it made the second
// Release evict the only tenant still open, leaving none.
func TestManagerEvictionIgnoresClosingEntries(t *testing.T) {
	opt := testOptions(t.TempDir())
	opt.MaxOpen = 1
	m := NewManager(opt)
	defer m.Close()
	ctx := context.Background()
	flushing, resume := make(chan struct{}), make(chan struct{})
	var flushes atomic.Int32
	m.closeRepo = func(r *versioning.Repository) error {
		if flushes.Add(1) == 1 {
			close(flushing)
			<-resume
		}
		return r.Close()
	}

	hA, err := m.Acquire(ctx, "a")
	if err != nil {
		t.Fatal(err)
	}
	hB, err := m.Acquire(ctx, "b")
	if err != nil {
		t.Fatal(err)
	}
	released := make(chan struct{})
	go func() {
		defer close(released)
		hA.Release() // evicts a: its flush parks in closeRepo
	}()
	<-flushing
	hB.Release() // a is on its way out, so b fits the bound
	if n := flushes.Load(); n != 1 {
		t.Errorf("releasing b while a was closing flushed %d repositories, want only a", n)
	}
	close(resume)
	<-released
	if fs := m.Fleet(1); fs.Evictions != 1 || fs.Open != 1 {
		t.Fatalf("evictions = %d, open = %d, want 1 and 1", fs.Evictions, fs.Open)
	}
	// b is the one still open: touching it again is not a reopen.
	commitTo(t, m, "b", versioning.NoParent, lines("b v0"))
	if fs := m.Fleet(1); fs.Reopens != 0 {
		t.Fatalf("reopens = %d after touching b, want 0", fs.Reopens)
	}
}

func TestManagerQuotaCommitRate(t *testing.T) {
	opt := testOptions("")
	opt.Quota = Quota{CommitsPerSec: 1, CommitBurst: 2}
	m := NewManager(opt)
	defer m.Close()
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }
	ctx := context.Background()

	h, err := m.Acquire(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for i := 0; i < 2; i++ {
		if err := m.CheckCommit("alice", h.Repo()); err != nil {
			t.Fatalf("commit %d within burst refused: %v", i, err)
		}
	}
	err = m.CheckCommit("alice", h.Repo())
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-burst commit error = %v, want QuotaError", err)
	}
	if qe.RetryAfter <= 0 || qe.Tenant != "alice" {
		t.Fatalf("quota error = %+v", qe)
	}
	// Other tenants have their own buckets.
	h2, err := m.Acquire(ctx, "bob")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if err := m.CheckCommit("bob", h2.Repo()); err != nil {
		t.Fatalf("independent tenant throttled: %v", err)
	}
	// The bucket refills with the clock.
	now = now.Add(1100 * time.Millisecond)
	if err := m.CheckCommit("alice", h.Repo()); err != nil {
		t.Fatalf("commit after refill refused: %v", err)
	}
	if fs := m.Fleet(10); fs.QuotaDenials != 1 {
		t.Fatalf("fleet quota denials = %d, want 1", fs.QuotaDenials)
	}
}

// TestManagerQuotaDefaultBurst: with no CommitBurst the bucket holds
// the rate rounded down, so at 2.5 commits/s two commits pass at once
// and the third waits.
func TestManagerQuotaDefaultBurst(t *testing.T) {
	opt := testOptions("")
	opt.Quota = Quota{CommitsPerSec: 2.5}
	m := NewManager(opt)
	defer m.Close()
	now := time.Unix(1000, 0)
	m.now = func() time.Time { return now }
	h, err := m.Acquire(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	for i := 0; i < 2; i++ {
		if err := m.CheckCommit("alice", h.Repo()); err != nil {
			t.Fatalf("commit %d within the default burst refused: %v", i, err)
		}
	}
	var qe *QuotaError
	if err := m.CheckCommit("alice", h.Repo()); !errors.As(err, &qe) {
		t.Fatalf("third immediate commit: %v, want a QuotaError", err)
	}
}

func TestManagerQuotaCapacity(t *testing.T) {
	opt := testOptions("")
	opt.Quota = Quota{MaxObjects: 1}
	m := NewManager(opt)
	defer m.Close()
	ctx := context.Background()
	h, err := m.Acquire(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if err := m.CheckCommit("alice", h.Repo()); err != nil {
		t.Fatalf("first commit refused: %v", err)
	}
	if _, err := h.Repo().Commit(ctx, versioning.NoParent, lines("v0")); err != nil {
		t.Fatal(err)
	}
	err = m.CheckCommit("alice", h.Repo())
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-capacity commit error = %v, want QuotaError", err)
	}
	if qe.RetryAfter <= 0 {
		t.Fatalf("capacity quota error missing Retry-After hint: %+v", qe)
	}

	// Logical-byte caps trip the same way.
	opt = testOptions("")
	opt.Quota = Quota{MaxLogicalBytes: 1}
	m2 := NewManager(opt)
	defer m2.Close()
	h2, err := m2.Acquire(ctx, "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer h2.Release()
	if _, err := h2.Repo().Commit(ctx, versioning.NoParent, lines("some content")); err != nil {
		t.Fatal(err)
	}
	if err := m2.CheckCommit("alice", h2.Repo()); !errors.As(err, &qe) {
		t.Fatalf("byte-cap commit error = %v, want QuotaError", err)
	}
}

func TestManagerClose(t *testing.T) {
	root := t.TempDir()
	m := NewManager(testOptions(root))
	commitTo(t, m, "alice", versioning.NoParent, lines("v0"))
	if err := m.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	if _, err := m.Acquire(context.Background(), "alice"); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after close = %v, want ErrClosed", err)
	}
	// The flushed tenant reopens in a fresh manager with history intact.
	m2 := NewManager(testOptions(root))
	defer m2.Close()
	h, err := m2.Acquire(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Release()
	if got, err := h.Repo().Checkout(context.Background(), 0); err != nil || len(got) != 1 || got[0] != "v0" {
		t.Fatalf("checkout after restart = %q, %v", got, err)
	}
}

func TestManagerCloseWaitsForHandles(t *testing.T) {
	m := NewManager(testOptions(""))
	h, err := m.Acquire(context.Background(), "alice")
	if err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- m.Close() }()
	select {
	case <-closed:
		t.Fatal("Close returned while a Handle was outstanding")
	case <-time.After(50 * time.Millisecond):
	}
	h.Release()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close never finished after the last Release")
	}
}

// TestAcquireCanceledWhileWaiting pins the cancellation contract: a
// caller parked behind another goroutine's slow open/close transition
// returns promptly with ctx.Err instead of sleeping the transition out.
func TestAcquireCanceledWhileWaiting(t *testing.T) {
	m := NewManager(testOptions(""))
	defer m.Close()
	// Plant a perpetual mid-open placeholder so Acquire must wait.
	m.mu.Lock()
	m.entries["slow"] = &entry{name: "slow", state: stateOpening}
	m.mu.Unlock()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := m.Acquire(ctx, "slow")
		done <- err
	}()
	select {
	case err := <-done:
		t.Fatalf("Acquire returned %v before cancel while tenant was opening", err)
	case <-time.After(30 * time.Millisecond):
	}
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Acquire still blocked 2s after cancellation")
	}
	// Remove the fake entry so the deferred Close does not wait on it.
	m.mu.Lock()
	delete(m.entries, "slow")
	m.cond.Broadcast()
	m.mu.Unlock()
}

func TestManagerFleetTopK(t *testing.T) {
	m := NewManager(testOptions(""))
	defer m.Close()
	ctx := context.Background()
	// big gets three versions, small one; top-by-objects must rank big
	// first.
	commitTo(t, m, "big", versioning.NoParent, lines("b0 aaaaaaaaaaaaaaaa"))
	commitTo(t, m, "big", 0, lines("b0 aaaaaaaaaaaaaaaa", "b1 bbbbbbbbbbbbbbbb"))
	commitTo(t, m, "big", 1, lines("b0 aaaaaaaaaaaaaaaa", "b1 bbbbbbbbbbbbbbbb", "b2 cccc"))
	commitTo(t, m, "small", versioning.NoParent, lines("s0"))
	h, err := m.Acquire(ctx, "big")
	if err != nil {
		t.Fatal(err)
	}
	m.CheckCommit("big", h.Repo()) // counted toward the commit-rate EWMA
	h.Release()

	fs := m.Fleet(1)
	if len(fs.TopByObjects) != 1 || fs.TopByObjects[0].Name != "big" {
		t.Fatalf("top by objects = %+v", fs.TopByObjects)
	}
	if len(fs.TopByBytes) != 1 || fs.TopByBytes[0].Name != "big" {
		t.Fatalf("top by bytes = %+v", fs.TopByBytes)
	}
	if len(fs.TopByCommitRate) != 1 || fs.TopByCommitRate[0].Name != "big" {
		t.Fatalf("top by commit rate = %+v", fs.TopByCommitRate)
	}
	if fs.TopByObjects[0].Versions != 3 {
		t.Fatalf("big versions = %d, want 3", fs.TopByObjects[0].Versions)
	}
	if fs.Open != 2 || fs.Tenants != 2 {
		t.Fatalf("fleet = %+v", fs)
	}
}

// TestManagerConcurrentChurn hammers open/evict/commit/checkout races:
// more tenants than MaxOpen, every worker acquiring random tenants.
// Run with -race; correctness check is that every tenant ends with
// exactly the versions its commits created, and no request ever failed.
func TestManagerConcurrentChurn(t *testing.T) {
	const tenants = 8
	opt := testOptions(t.TempDir())
	opt.MaxOpen = 3
	m := NewManager(opt)
	defer m.Close()
	ctx := context.Background()

	// Seed every tenant with a root version.
	for i := 0; i < tenants; i++ {
		commitTo(t, m, fmt.Sprintf("t%d", i), versioning.NoParent, lines(fmt.Sprintf("t%d v0", i)))
	}

	var wg sync.WaitGroup
	var commits [tenants]atomic.Int64
	var failures atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 40; i++ {
				ti := rng.Intn(tenants)
				name := fmt.Sprintf("t%d", ti)
				h, err := m.Acquire(ctx, name)
				if err != nil {
					failures.Add(1)
					continue
				}
				if rng.Intn(4) == 0 {
					if _, err := h.Repo().Commit(ctx, 0, lines(name+" child", fmt.Sprintf("w%d i%d", w, i))); err != nil {
						failures.Add(1)
					} else {
						commits[ti].Add(1)
					}
				} else {
					if got, err := h.Repo().Checkout(ctx, 0); err != nil || got[0] != name+" v0" {
						failures.Add(1)
					}
				}
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed during churn", failures.Load())
	}
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("t%d", i)
		h, err := m.Acquire(ctx, name)
		if err != nil {
			t.Fatalf("final acquire %s: %v", name, err)
		}
		want := int(commits[i].Load()) + 1
		if got := h.Repo().Versions(); got != want {
			t.Errorf("%s: %d versions, want %d", name, got, want)
		}
		h.Release()
	}
	if fs := m.Fleet(3); fs.Evictions == 0 {
		t.Error("churn with MaxOpen 3 over 8 tenants never evicted")
	}
}

func TestTopBySelection(t *testing.T) {
	infos := []TenantInfo{
		{Name: "c", Objects: 5},
		{Name: "a", Objects: 9},
		{Name: "e", Objects: 1},
		{Name: "b", Objects: 9}, // ties with a; name breaks the tie
		{Name: "d", Objects: 7},
	}
	more := func(x, y TenantInfo) bool { return x.Objects > y.Objects }
	got := topBy(infos, 3, more)
	want := []string{"a", "b", "d"}
	if len(got) != 3 {
		t.Fatalf("topBy returned %d entries, want 3", len(got))
	}
	for i, name := range want {
		if got[i].Name != name {
			t.Fatalf("topBy[%d] = %s, want %s (full: %+v)", i, got[i].Name, name, got)
		}
	}
	if got := topBy(infos, 10, more); len(got) != len(infos) {
		t.Fatalf("k > N returned %d entries, want %d", len(got), len(infos))
	}
	if got := topBy(nil, 3, more); len(got) != 0 {
		t.Fatalf("empty input returned %d entries", len(got))
	}
}

func TestBucketRefill(t *testing.T) {
	var b bucket
	now := time.Unix(0, 0)
	ok, _ := b.take(now, 2, 1)
	if !ok {
		t.Fatal("fresh bucket refused its burst")
	}
	ok, wait := b.take(now, 2, 1)
	if ok {
		t.Fatal("empty bucket granted a token")
	}
	if wait <= 0 || wait > time.Second {
		t.Fatalf("wait = %s, want ~500ms", wait)
	}
	ok, _ = b.take(now.Add(wait), 2, 1)
	if !ok {
		t.Fatal("bucket still empty after the advertised wait")
	}
}

func TestRateEWMA(t *testing.T) {
	var r rateEWMA
	now := time.Unix(100, 0)
	if r.value(now) != 0 {
		t.Fatal("zero-value rate not 0")
	}
	for i := 0; i < 100; i++ {
		r.observe(now)
		now = now.Add(100 * time.Millisecond)
	}
	// ~10 events/s steady state; the estimate should be the right order
	// of magnitude and must decay when traffic stops.
	at := r.value(now)
	if at < 2 || at > 20 {
		t.Fatalf("steady-state rate = %g, want ~10", at)
	}
	later := r.value(now.Add(5 * time.Minute))
	if later >= at/10 {
		t.Fatalf("rate did not decay: %g -> %g", at, later)
	}
}

// TestManagerEvictionDuringMaintenance churns a durable fleet whose
// repositories run asynchronous plan maintenance (ReplanEvery small, a
// background worker per repo) while the LRU evicts tenants out from
// under in-flight passes. Eviction calls Repository.Close, which must
// drain the maintenance worker before flushing — so there must be no
// close errors, and every tenant's full history must survive the
// evict/reopen cycles. Run with -race.
func TestManagerEvictionDuringMaintenance(t *testing.T) {
	const tenants = 6
	opt := testOptions(t.TempDir())
	opt.MaxOpen = 2 // aggressive eviction: most acquires reopen + evict
	opt.Repo.ReplanEvery = 2
	m := NewManager(opt)
	defer m.Close()
	ctx := context.Background()

	var wg sync.WaitGroup
	var commits [tenants]atomic.Int64
	errCh := make(chan error, 16)
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 25; i++ {
				ti := rng.Intn(tenants)
				name := fmt.Sprintf("m%d", ti)
				h, err := m.Acquire(ctx, name)
				if err != nil {
					errCh <- fmt.Errorf("acquire %s: %w", name, err)
					return
				}
				// Roots only: parent ids are trivially valid however many
				// commits raced in before this handle. Every pair of commits
				// trips ReplanEvery, so maintenance passes overlap the
				// Release below — and the eviction it can trigger.
				if _, err := h.Repo().Commit(ctx, versioning.NoParent, lines(fmt.Sprintf("%s w%d i%d", name, w, i))); err != nil {
					h.Release()
					errCh <- fmt.Errorf("commit to %s: %w", name, err)
					return
				}
				commits[ti].Add(1)
				h.Release()
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}

	fs := m.Fleet(tenants)
	if fs.Evictions == 0 {
		t.Fatal("churn with MaxOpen 2 over 6 tenants never evicted: the test exercised nothing")
	}
	if fs.CloseErrors != 0 {
		t.Fatalf("%d eviction flushes failed mid-maintenance: %+v", fs.CloseErrors, fs.TopByObjects)
	}
	// Every tenant reopens with its exact committed history.
	for i := 0; i < tenants; i++ {
		name := fmt.Sprintf("m%d", i)
		h, err := m.Acquire(ctx, name)
		if err != nil {
			t.Fatalf("final acquire %s: %v", name, err)
		}
		want := int(commits[i].Load())
		if got := h.Repo().Versions(); got != want {
			t.Errorf("%s: %d versions after eviction churn, want %d", name, got, want)
		}
		for v := 0; v < want; v++ {
			if _, err := h.Repo().Checkout(ctx, versioning.NodeID(v)); err != nil {
				t.Errorf("%s: Checkout(%d) after eviction churn: %v", name, v, err)
				break
			}
		}
		h.Release()
	}
}
