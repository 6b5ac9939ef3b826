package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/tenant"
	"repro/versioning"
)

// jsonBody renders body as a request reader.
func jsonBody(t *testing.T, body any) io.Reader {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(b)
}

// tryPostJSON is postJSON without t.Fatal semantics, for concurrent
// workers: reports transport success and the status code.
func tryPostJSON(url string, body any, out any) (bool, int) {
	b, err := json.Marshal(body)
	if err != nil {
		return false, 0
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			return false, resp.StatusCode
		}
	}
	return true, resp.StatusCode
}

// testManager builds a cheap multi-tenant manager (explicit-only
// re-planning) over root ("" = in-memory tenants).
func testManager(t *testing.T, root string, opt tenant.Options) *tenant.Manager {
	t.Helper()
	opt.RootDir = root
	if opt.Repo.ReplanEvery == 0 {
		opt.Repo.ReplanEvery = -1
	}
	m := tenant.NewManager(opt)
	t.Cleanup(func() { m.Close() })
	return m
}

func multiServer(t *testing.T, mgr *tenant.Manager, sopt Options) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(NewMulti(mgr, sopt))
	t.Cleanup(ts.Close)
	return ts
}

func TestMultiTenantRoutingAndIsolation(t *testing.T) {
	mgr := testManager(t, "", tenant.Options{})
	ts := multiServer(t, mgr, Options{})

	var cr wire.CommitResult
	if code := postJSON(t, ts.URL+"/t/alice/commit", map[string]any{"parent": -1, "lines": []string{"alice v0"}}, &cr); code != http.StatusOK {
		t.Fatalf("alice commit = %d", code)
	}
	if code := postJSON(t, ts.URL+"/t/bob/commit", map[string]any{"parent": -1, "lines": []string{"bob v0", "bob second line"}}, &cr); code != http.StatusOK {
		t.Fatalf("bob commit = %d", code)
	}

	var co wire.Checkout
	if code := getJSON(t, ts.URL+"/t/alice/checkout/0", &co); code != http.StatusOK {
		t.Fatalf("alice checkout = %d", code)
	}
	if len(co.Lines) != 1 || co.Lines[0] != "alice v0" {
		t.Fatalf("alice content = %q", co.Lines)
	}
	if code := getJSON(t, ts.URL+"/t/bob/checkout/0", &co); code != http.StatusOK {
		t.Fatalf("bob checkout = %d", code)
	}
	if len(co.Lines) != 2 || co.Lines[0] != "bob v0" {
		t.Fatalf("bob content = %q", co.Lines)
	}
	// Namespaces are isolated: alice has one version, so id 1 is unknown
	// even though the fleet holds two versions total.
	var er errorResponse
	if code := getJSON(t, ts.URL+"/t/alice/checkout/1", &er); code != http.StatusNotFound {
		t.Fatalf("cross-tenant id = %d, want 404", code)
	}

	var stats versioning.RepositoryStats
	if code := getJSON(t, ts.URL+"/t/alice/stats", &stats); code != http.StatusOK || stats.Versions != 1 {
		t.Fatalf("alice stats = %d, %+v", stats.Versions, stats)
	}
}

func TestMultiTenantBadNameRejected(t *testing.T) {
	mgr := testManager(t, "", tenant.Options{})
	ts := multiServer(t, mgr, Options{})
	for _, bad := range []string{"a%20b", ".hidden", "-flag", "a%00b"} {
		var er errorResponse
		code := getJSON(t, ts.URL+"/t/"+bad+"/checkout/0", &er)
		if code != http.StatusBadRequest {
			t.Errorf("tenant %q: status %d, want 400", bad, code)
		}
	}
}

func TestMultiTenantEvictionTransparentReopen(t *testing.T) {
	root := t.TempDir()
	mgr := testManager(t, root, tenant.Options{MaxOpen: 1})
	ts := multiServer(t, mgr, Options{})

	var cr wire.CommitResult
	if code := postJSON(t, ts.URL+"/t/t1/commit", map[string]any{"parent": -1, "lines": []string{"t1 v0"}}, &cr); code != http.StatusOK {
		t.Fatalf("t1 commit = %d", code)
	}
	// Touching t2 evicts t1 (MaxOpen 1).
	if code := postJSON(t, ts.URL+"/t/t2/commit", map[string]any{"parent": -1, "lines": []string{"t2 v0"}}, &cr); code != http.StatusOK {
		t.Fatalf("t2 commit = %d", code)
	}
	// t1 must serve transparently from its reopened journal.
	var co wire.Checkout
	if code := getJSON(t, ts.URL+"/t/t1/checkout/0", &co); code != http.StatusOK {
		t.Fatalf("t1 checkout after eviction = %d", code)
	}
	if len(co.Lines) != 1 || co.Lines[0] != "t1 v0" {
		t.Fatalf("t1 reopened content = %q", co.Lines)
	}

	var fleet tenant.FleetStats
	if code := getJSON(t, ts.URL+"/fleetz", &fleet); code != http.StatusOK {
		t.Fatalf("fleetz = %d", code)
	}
	if fleet.Evictions < 1 || fleet.Reopens < 1 || fleet.Tenants != 2 {
		t.Fatalf("fleetz = %+v", fleet)
	}

	// And /statsz carries the fleet block in multi mode.
	var sz Statsz
	if code := getJSON(t, ts.URL+"/statsz", &sz); code != http.StatusOK || sz.Fleet == nil {
		t.Fatalf("statsz fleet missing: %d %+v", code, sz)
	}
}

// TestMultiInMemoryFleetNeverEvicts: a fleet with no durable root keeps
// every tenant open whatever MaxOpen says. Evicting alice would discard
// her history: her next commit would be acknowledged as id 0 again, while
// the response cache still answered id 0 with her first commit.
func TestMultiInMemoryFleetNeverEvicts(t *testing.T) {
	mgr := testManager(t, "", tenant.Options{MaxOpen: 1})
	ts := multiServer(t, mgr, Options{})
	commit := func(name, line string) versioning.NodeID {
		t.Helper()
		var cr wire.CommitResult
		if code := postJSON(t, ts.URL+"/t/"+name+"/commit", map[string]any{"parent": -1, "lines": []string{line}}, &cr); code != http.StatusOK {
			t.Fatalf("%s commit = %d", name, code)
		}
		return cr.ID
	}
	checkout := func(id int, want string) {
		t.Helper()
		var co wire.Checkout
		if code := getJSON(t, fmt.Sprintf("%s/t/alice/checkout/%d", ts.URL, id), &co); code != http.StatusOK || len(co.Lines) != 1 || co.Lines[0] != want {
			t.Fatalf("alice checkout %d = %d %q, want %q", id, code, co.Lines, want)
		}
	}

	if id := commit("alice", "alice first"); id != 0 {
		t.Fatalf("alice's first commit acknowledged as %d, want 0", id)
	}
	checkout(0, "alice first")
	commit("bob", "bob first") // past MaxOpen 1, but bob's arrival evicts no one
	if id := commit("alice", "alice second"); id != 1 {
		t.Fatalf("alice's second commit acknowledged as %d, want 1: her history was evicted", id)
	}
	checkout(0, "alice first")
	checkout(1, "alice second")
	if fs := mgr.Fleet(2); fs.Evictions != 0 || fs.Open != 2 {
		t.Fatalf("in-memory fleet: %d evictions, %d open; want 0 and 2", fs.Evictions, fs.Open)
	}
}

// TestCheckoutStampedeMultiTenant is TestCheckoutSingleflight through
// /t/{tenant}/checkout/{id}: 16 identical concurrent requests cost fewer
// backend reads than 16 solo checkouts, on a tenant's first open and
// again after an LRU eviction and reopen — the Server keeps nothing per
// tenant, so the deduplication has to arrive with the reopened
// repository's store. The manager opens its own (fast) disk backends,
// so the version sits at the end of a delta chain long enough that one
// reconstruction outlasts the spread of the requests' arrivals, and a
// round that by bad luck overlapped nothing is retried.
func TestCheckoutStampedeMultiTenant(t *testing.T) {
	// Page-cache reads never block, so on one P a reconstruction runs to
	// completion before the next request is even accepted: there is
	// nothing to share and nothing to observe. Extra Ps let the OS
	// interleave them even on a single CPU.
	if runtime.GOMAXPROCS(0) < 4 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	}
	mgr := testManager(t, t.TempDir(), tenant.Options{
		MaxOpen: 1,
		Repo:    versioning.RepositoryOptions{CacheEntries: -1}, // every checkout reconstructs or follows
	})
	srv := NewMulti(mgr, Options{RespCacheBytes: -1}) // ...and none is answered above the store
	srv.adm = newLimiter(16, 0, 0)                    // a slot for every request of a stampede
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// With re-planning off (testManager) every commit rides one delta on
	// its parent as long as the chain's deltas weigh less than a version:
	// one-line edits of a 2,000-line document never get there, so the
	// tip's retrieval path is the whole chain.
	const depth = 200
	var cr wire.CommitResult
	lines := make([]string, 2000)
	for i := range lines {
		lines[i] = fmt.Sprintf("line %04d as the root has it", i)
	}
	for v := 0; v <= depth; v++ {
		if v > 0 {
			lines = append([]string(nil), lines...)
			lines[v*7%len(lines)] = fmt.Sprintf("line edited by version %d", v)
		}
		if code := postJSON(t, ts.URL+"/t/alice/commit", map[string]any{"parent": v - 1, "lines": lines}, &cr); code != http.StatusOK {
			t.Fatalf("alice commit %d = %d", v, code)
		}
	}
	tip := fmt.Sprintf("%s/t/alice/checkout/%d", ts.URL, depth)
	// reads is alice's backend read count; asking opens her if needed.
	reads := func() int64 {
		var st versioning.RepositoryStats
		if code := getJSON(t, ts.URL+"/t/alice/stats", &st); code != http.StatusOK {
			t.Fatalf("alice stats = %d", code)
		}
		return st.LooseReads + st.PackReads
	}
	const n = 16
	assertShared := func(phase string) {
		t.Helper()
		before := reads()
		stampede(t, tip, 1)
		solo := reads() - before
		if solo < depth {
			t.Fatalf("%s: a solo checkout cost %d backend reads, want the whole %d-delta chain", phase, solo, depth)
		}
		for round := 1; ; round++ {
			before = reads()
			stampede(t, tip, n)
			got := reads() - before
			co := srv.StatszSnapshot().Endpoints["checkout"].Coalesced
			if got < n*solo && co > 0 {
				return
			}
			if round == 5 {
				t.Fatalf("%s: %d identical checkouts cost %d backend reads (solo: %d), coalesced = %d", phase, n, got, solo, co)
			}
		}
	}
	assertShared("first open")

	// Touching bob evicts alice (MaxOpen 1); her next request reopens her.
	if code := postJSON(t, ts.URL+"/t/bob/commit", map[string]any{"parent": -1, "lines": []string{"bob v0"}}, &cr); code != http.StatusOK {
		t.Fatalf("bob commit = %d", code)
	}
	// The handler of alice's last request may still hold its lease when
	// bob opens; her eviction then runs at that Release, beside bob's
	// commit, and closing her now syncs a directory that holds her files.
	for deadline := time.Now().Add(5 * time.Second); mgr.Fleet(1).Evictions == 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
	}
	if fs := mgr.Fleet(1); fs.Evictions != 1 || fs.Reopens != 0 {
		t.Fatalf("before alice returns: evictions = %d, reopens = %d, want 1 and 0", fs.Evictions, fs.Reopens)
	}
	assertShared("after evict + reopen")
	if fs := mgr.Fleet(1); fs.Reopens != 1 {
		t.Fatalf("reopens = %d, want 1", fs.Reopens)
	}
}

func TestMultiTenantQuota429(t *testing.T) {
	mgr := testManager(t, "", tenant.Options{
		Quota: tenant.Quota{CommitsPerSec: 0.001, CommitBurst: 1},
	})
	ts := multiServer(t, mgr, Options{})

	var cr wire.CommitResult
	if code := postJSON(t, ts.URL+"/t/alice/commit", map[string]any{"parent": -1, "lines": []string{"v0"}}, &cr); code != http.StatusOK {
		t.Fatalf("first commit = %d", code)
	}
	resp, err := http.Post(ts.URL+"/t/alice/commit", "application/json",
		jsonBody(t, map[string]any{"parent": 0, "lines": []string{"v1"}}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-quota commit = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}
	// Quota throttling is per tenant: bob commits freely.
	if code := postJSON(t, ts.URL+"/t/bob/commit", map[string]any{"parent": -1, "lines": []string{"v0"}}, &cr); code != http.StatusOK {
		t.Fatalf("bob commit = %d", code)
	}
	// Checkouts are never rate-limited by the commit bucket.
	var co wire.Checkout
	if code := getJSON(t, ts.URL+"/t/alice/checkout/0", &co); code != http.StatusOK {
		t.Fatalf("checkout under commit quota = %d", code)
	}
}

// TestTwoServersCoexist pins the per-instance mux contract: a
// single-repo Server and a multi-tenant Server (and a second
// single-repo Server) run side by side in one process without pattern
// collisions or shared state.
func TestTwoServersCoexist(t *testing.T) {
	repoA := versioning.NewRepository("a", versioning.RepositoryOptions{ReplanEvery: -1,
		EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second}})
	repoB := versioning.NewRepository("b", versioning.RepositoryOptions{ReplanEvery: -1,
		EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second}})
	tsA := httptest.NewServer(New(repoA, Options{}))
	defer tsA.Close()
	tsB := httptest.NewServer(New(repoB, Options{}))
	defer tsB.Close()
	mgr := testManager(t, "", tenant.Options{})
	tsM := multiServer(t, mgr, Options{})

	var cr wire.CommitResult
	if code := postJSON(t, tsA.URL+"/commit", map[string]any{"parent": -1, "lines": []string{"A"}}, &cr); code != http.StatusOK {
		t.Fatalf("server A commit = %d", code)
	}
	if code := postJSON(t, tsM.URL+"/t/x/commit", map[string]any{"parent": -1, "lines": []string{"X"}}, &cr); code != http.StatusOK {
		t.Fatalf("multi server commit = %d", code)
	}
	// B saw neither commit: its repo is empty and its counters are zero.
	var co wire.Checkout
	if code := getJSON(t, tsB.URL+"/checkout/0", &co); code != http.StatusNotFound {
		t.Fatalf("server B checkout = %d, want 404 (empty repo)", code)
	}
	var szA, szB Statsz
	if code := getJSON(t, tsA.URL+"/statsz", &szA); code != http.StatusOK {
		t.Fatalf("A statsz = %d", code)
	}
	if code := getJSON(t, tsB.URL+"/statsz", &szB); code != http.StatusOK {
		t.Fatalf("B statsz = %d", code)
	}
	if szA.Endpoints["commit"].Requests != 1 {
		t.Fatalf("A commit requests = %d, want 1", szA.Endpoints["commit"].Requests)
	}
	if szB.Endpoints["commit"].Requests != 0 {
		t.Fatalf("B commit requests = %d, want 0 (counters leaked across instances)", szB.Endpoints["commit"].Requests)
	}
}

// TestMultiTenantConcurrentChurnRace drives concurrent commits and
// checkouts across more tenants than MaxOpen through the full HTTP
// stack, so -race covers the acquire/evict/reopen paths
// end to end. Zero failed requests is the acceptance bar: eviction must
// be invisible to clients.
func TestMultiTenantConcurrentChurnRace(t *testing.T) {
	const tenants = 6
	root := t.TempDir()
	mgr := testManager(t, root, tenant.Options{MaxOpen: 2})
	ts := multiServer(t, mgr, Options{})

	var cr wire.CommitResult
	for i := 0; i < tenants; i++ {
		url := fmt.Sprintf("%s/t/t%d/commit", ts.URL, i)
		if code := postJSON(t, url, map[string]any{"parent": -1, "lines": []string{fmt.Sprintf("t%d v0", i)}}, &cr); code != http.StatusOK {
			t.Fatalf("seed commit %d = %d", i, code)
		}
	}
	var wg sync.WaitGroup
	var failures atomic.Int64
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				ti := (w + i) % tenants
				if i%5 == 0 {
					url := fmt.Sprintf("%s/t/t%d/commit", ts.URL, ti)
					var r wire.CommitResult
					b, code := tryPostJSON(url, map[string]any{"parent": 0, "lines": []string{fmt.Sprintf("t%d w%d i%d", ti, w, i)}}, &r)
					if !b || code != http.StatusOK {
						failures.Add(1)
					}
					continue
				}
				resp, err := http.Get(fmt.Sprintf("%s/t/t%d/checkout/0", ts.URL, ti))
				if err != nil {
					failures.Add(1)
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d requests failed during churn (eviction must be transparent)", failures.Load())
	}
	var fleet tenant.FleetStats
	if code := getJSON(t, ts.URL+"/fleetz?topk=3", &fleet); code != http.StatusOK {
		t.Fatalf("fleetz = %d", code)
	}
	if fleet.Evictions == 0 {
		t.Error("churn over MaxOpen 2 never evicted")
	}
	if len(fleet.TopByObjects) > 3 {
		t.Errorf("topk=3 returned %d entries", len(fleet.TopByObjects))
	}
}

// TestFleetzTopK pins /fleetz's ?topk=: absent and 0 list the default
// 5 tenants, values above 100 cap there, and anything that is not an
// integer ≥ 0 is a 400 rather than a silent default.
func TestFleetzTopK(t *testing.T) {
	mgr := testManager(t, "", tenant.Options{})
	ts := multiServer(t, mgr, Options{})
	for i := 0; i < 7; i++ {
		mustPost(t, fmt.Sprintf("%s/t/t%d/commit", ts.URL, i), map[string]any{"parent": -1, "lines": []string{"x"}})
	}
	for q, want := range map[string]int{"": 5, "?topk=0": 5, "?topk=2": 2, "?topk=1000": 7} {
		var fleet tenant.FleetStats
		if code := getJSON(t, ts.URL+"/fleetz"+q, &fleet); code != http.StatusOK {
			t.Fatalf("/fleetz%s: HTTP %d", q, code)
		}
		if len(fleet.TopByObjects) != want {
			t.Errorf("/fleetz%s listed %d tenants, want %d", q, len(fleet.TopByObjects), want)
		}
	}
	for _, q := range []string{"abc", "-1", "2.5"} {
		var er errorResponse
		if code := getJSON(t, ts.URL+"/fleetz?topk="+q, &er); code != http.StatusBadRequest || !strings.Contains(er.Error, "bad topk") {
			t.Errorf("/fleetz?topk=%s: HTTP %d %q, want 400 bad topk", q, code, er.Error)
		}
	}
}
