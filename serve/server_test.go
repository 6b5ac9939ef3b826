package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/repogen"
	"repro/internal/wire"
	"repro/versioning"
)

func testServer(t *testing.T, opt versioning.RepositoryOptions) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(versioning.NewRepository("test", opt), Options{}))
	t.Cleanup(ts.Close)
	return ts
}

func postJSON(t *testing.T, url string, body any, out any) int {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s response: %v", url, err)
		}
	}
	return resp.StatusCode
}

func TestServerCommitCheckoutRoundTrip(t *testing.T) {
	// Synchronous maintenance so the Replans assertion below is
	// deterministic (async workers may not have finished by /stats time).
	ts := testServer(t, versioning.RepositoryOptions{ReplanEvery: 4, MaintenanceWorkers: -1})
	src := repogen.GenerateRepo("http", 20, 3)
	for v := 0; v < src.Graph.N(); v++ {
		var cr wire.CommitResult
		if code := postJSON(t, ts.URL+"/commit",
			wire.CommitRequest{Parent: pid(src.Parents[v]), Lines: src.Contents[v]}, &cr); code != http.StatusOK {
			t.Fatalf("commit %d: HTTP %d", v, code)
		}
		if cr.ID != versioning.NodeID(v) {
			t.Fatalf("commit %d assigned id %d", v, cr.ID)
		}
	}
	for v := 0; v < src.Graph.N(); v++ {
		var co wire.Checkout
		if code := getJSON(t, fmt.Sprintf("%s/checkout/%d", ts.URL, v), &co); code != http.StatusOK {
			t.Fatalf("checkout %d: HTTP %d", v, code)
		}
		if !reflect.DeepEqual(co.Lines, src.Contents[v]) {
			t.Fatalf("checkout %d content mismatch", v)
		}
	}
	var batch []wire.Checkout
	if code := postJSON(t, ts.URL+"/checkout", wire.BatchRequest{IDs: []versioning.NodeID{0, 5, 19, 5}}, &batch); code != http.StatusOK {
		t.Fatalf("batch checkout: HTTP %d", code)
	}
	for i, want := range []int{0, 5, 19, 5} {
		if batch[i].Error != "" || !reflect.DeepEqual(batch[i].Lines, src.Contents[want]) {
			t.Fatalf("batch item %d mismatch: %+v", i, batch[i])
		}
	}
	var plan versioning.PlanSummary
	if code := getJSON(t, ts.URL+"/plan", &plan); code != http.StatusOK {
		t.Fatalf("/plan: HTTP %d", code)
	}
	if plan.Versions != src.Graph.N() || !plan.Feasible || len(plan.Materialized) == 0 {
		t.Fatalf("/plan = %+v", plan)
	}
	var stats versioning.RepositoryStats
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("/stats: HTTP %d", code)
	}
	if stats.Versions != src.Graph.N() || stats.Replans == 0 || stats.Checkouts == 0 {
		t.Fatalf("/stats = %+v", stats)
	}
}

func TestServerConcurrentTraffic(t *testing.T) {
	ts := testServer(t, versioning.RepositoryOptions{ReplanEvery: 6, CacheEntries: 8})
	src := repogen.GenerateRepo("traffic", 40, 17)
	// Serial prefix so readers always have valid ids.
	const prefix = 10
	for v := 0; v < prefix; v++ {
		if code := postJSON(t, ts.URL+"/commit",
			wire.CommitRequest{Parent: pid(src.Parents[v]), Lines: src.Contents[v]}, nil); code != http.StatusOK {
			t.Fatalf("commit %d: HTTP %d", v, code)
		}
	}
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	stop := make(chan struct{})
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := (w*3 + i) % prefix
				var co wire.Checkout
				if code := getJSON(t, fmt.Sprintf("%s/checkout/%d", ts.URL, v), &co); code != http.StatusOK {
					errCh <- fmt.Errorf("checkout %d: HTTP %d", v, code)
					return
				}
				if !reflect.DeepEqual(co.Lines, src.Contents[v]) {
					errCh <- fmt.Errorf("checkout %d content mismatch", v)
					return
				}
			}
		}(w)
	}
	// Concurrent commits (each against an already-present parent).
	for v := prefix; v < src.Graph.N(); v++ {
		if code := postJSON(t, ts.URL+"/commit",
			wire.CommitRequest{Parent: pid(src.Parents[v]), Lines: src.Contents[v]}, nil); code != http.StatusOK {
			t.Fatalf("commit %d under load: HTTP %d", v, code)
		}
	}
	close(stop)
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	// Full verification after the dust settles.
	for v := 0; v < src.Graph.N(); v++ {
		var co wire.Checkout
		if code := getJSON(t, fmt.Sprintf("%s/checkout/%d", ts.URL, v), &co); code != http.StatusOK {
			t.Fatalf("final checkout %d: HTTP %d", v, code)
		}
		if !reflect.DeepEqual(co.Lines, src.Contents[v]) {
			t.Fatalf("final checkout %d content mismatch", v)
		}
	}
}

func TestServerErrorPaths(t *testing.T) {
	ts := testServer(t, versioning.RepositoryOptions{})
	if code := postJSON(t, ts.URL+"/commit", wire.CommitRequest{Parent: pid(9), Lines: []string{"x"}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("commit onto missing parent: HTTP %d, want 422", code)
	}
	if code := getJSON(t, ts.URL+"/checkout/99", nil); code != http.StatusNotFound {
		t.Fatalf("checkout of missing version: HTTP %d, want 404", code)
	}
	if code := getJSON(t, ts.URL+"/checkout/notanumber", nil); code != http.StatusBadRequest {
		t.Fatalf("checkout of junk id: HTTP %d, want 400", code)
	}
	resp, err := http.Post(ts.URL+"/commit", "application/json", bytes.NewReader([]byte("{not json")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed commit body: HTTP %d, want 400", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", code)
	}
	// Replan on an empty repository is a no-op that still reports a plan.
	var plan versioning.PlanSummary
	if code := postJSON(t, ts.URL+"/replan", struct{}{}, &plan); code != http.StatusOK {
		t.Fatalf("/replan: HTTP %d", code)
	}
	if plan.Versions != 0 {
		t.Fatalf("/replan on empty repo = %+v", plan)
	}
}

// pid makes a wire.CommitRequest parent pointer.
func pid(n versioning.NodeID) *versioning.NodeID { return &n }

// TestServerPersistenceRestartRoundTrip is the daemon-level acceptance
// round-trip: commit over HTTP against a -data-dir repository, kill the
// daemon (close the repo, drop the server), restart over the same
// directory, and check every version out of the recovered history.
func TestServerPersistenceRestartRoundTrip(t *testing.T) {
	dir := t.TempDir()
	opt := versioning.RepositoryOptions{
		ReplanEvery:   5,
		DataDir:       dir,
		EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second},
	}
	repo, err := versioning.Open("test", opt)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(repo, Options{}))
	src := repogen.GenerateRepo("durable-http", 16, 31)
	for v := 0; v < src.Graph.N(); v++ {
		if code := postJSON(t, ts.URL+"/commit",
			wire.CommitRequest{Parent: pid(src.Parents[v]), Lines: src.Contents[v]}, nil); code != http.StatusOK {
			t.Fatalf("commit %d: HTTP %d", v, code)
		}
	}
	// Graceful shutdown: the daemon drains and flushes storage. A commit
	// after close must be refused as unavailable, not half-applied.
	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	if code := postJSON(t, ts.URL+"/commit",
		wire.CommitRequest{Parent: pid(0), Lines: []string{"late"}}, nil); code != http.StatusServiceUnavailable {
		t.Fatalf("commit after close: HTTP %d, want 503", code)
	}
	ts.Close()

	// Restart over the same data dir.
	repo2, err := versioning.Open("test", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer repo2.Close()
	ts2 := httptest.NewServer(New(repo2, Options{}))
	defer ts2.Close()
	var hz struct {
		Status   string `json:"status"`
		Versions int    `json:"versions"`
	}
	if code := getJSON(t, ts2.URL+"/healthz", &hz); code != http.StatusOK {
		t.Fatalf("/healthz: HTTP %d", code)
	}
	if hz.Status != "ok" || hz.Versions != src.Graph.N() {
		t.Fatalf("/healthz after restart = %+v, want %d versions", hz, src.Graph.N())
	}
	for v := 0; v < src.Graph.N(); v++ {
		var co wire.Checkout
		if code := getJSON(t, fmt.Sprintf("%s/checkout/%d", ts2.URL, v), &co); code != http.StatusOK {
			t.Fatalf("checkout %d after restart: HTTP %d", v, code)
		}
		if !reflect.DeepEqual(co.Lines, src.Contents[v]) {
			t.Fatalf("checkout %d after restart: content mismatch", v)
		}
	}
	// The restarted daemon keeps accepting commits.
	var cr wire.CommitResult
	if code := postJSON(t, ts2.URL+"/commit",
		wire.CommitRequest{Parent: pid(0), Lines: []string{"post-restart"}}, &cr); code != http.StatusOK {
		t.Fatalf("commit after restart: HTTP %d", code)
	}
	if cr.ID != versioning.NodeID(src.Graph.N()) {
		t.Fatalf("commit after restart assigned id %d, want %d", cr.ID, src.Graph.N())
	}
}

// TestServerCommitOmittedParent pins the documented default: a commit
// without a "parent" field creates a root.
func TestServerCommitOmittedParent(t *testing.T) {
	ts := testServer(t, versioning.RepositoryOptions{})
	resp, err := http.Post(ts.URL+"/commit", "application/json",
		bytes.NewReader([]byte(`{"lines":["root line"]}`)))
	if err != nil {
		t.Fatal(err)
	}
	var cr wire.CommitResult
	if err := json.NewDecoder(resp.Body).Decode(&cr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || cr.ID != 0 {
		t.Fatalf("parentless commit: HTTP %d, id %d", resp.StatusCode, cr.ID)
	}
	var plan versioning.PlanSummary
	if code := getJSON(t, ts.URL+"/plan", &plan); code != http.StatusOK {
		t.Fatalf("/plan: HTTP %d", code)
	}
	if len(plan.Materialized) != 1 || plan.Materialized[0] != 0 {
		t.Fatalf("parentless commit not materialized as a root: %+v", plan)
	}
}
