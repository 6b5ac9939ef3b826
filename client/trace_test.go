package client

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/serve"
	"repro/tenant"
	"repro/versioning"
)

// TestTracePropagationThroughMulti pins the end-to-end tracing
// contract: a client-side sampled Checkout through the full
// multi-tenant serve stack produces ONE connected trace containing
// the admission, tenant-acquire, store-checkout and store-read spans;
// the client learns the trace ID from the response header (OnTrace)
// and can fetch the trace back from /tracez.
func TestTracePropagationThroughMulti(t *testing.T) {
	tracer := trace.New(trace.Options{Sample: 0}) // client-forced traces only
	mgr := tenant.NewManager(tenant.Options{
		Tracer: tracer,
		Repo: versioning.RepositoryOptions{
			// No checkout cache: every checkout must reach the store, so
			// the trace always contains the store.read span under test.
			CacheEntries:  -1,
			ReplanEvery:   -1,
			EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second},
		},
	})
	t.Cleanup(func() { mgr.Close() })
	ts := httptest.NewServer(serve.NewMulti(mgr, serve.Options{Tracer: tracer}))
	t.Cleanup(ts.Close)

	var mu sync.Mutex
	got := map[string]string{} // path -> trace ID
	c := New(ts.URL, Options{
		TraceSample: 1,
		OnTrace: func(path, id string) {
			mu.Lock()
			got[path] = id
			mu.Unlock()
		},
	})
	defer c.Close()
	tc := c.Tenant("alice")
	ctx := context.Background()
	if _, err := tc.Commit(ctx, versioning.NoParent, []string{"v0"}); err != nil {
		t.Fatal(err)
	}
	// A child commit diffs against its parent, so its trace carries the
	// commit.diff span a root commit skips (OnTrace keeps the last
	// commit's trace ID for the path).
	if _, err := tc.Commit(ctx, 0, []string{"v0", "v1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Checkout(ctx, 0); err != nil {
		t.Fatal(err)
	}

	mu.Lock()
	checkoutID := got["/t/alice/checkout/0"]
	commitID := got["/t/alice/commit"]
	mu.Unlock()
	if checkoutID == "" || commitID == "" {
		t.Fatalf("OnTrace did not fire for both ops: %+v", got)
	}
	if checkoutID == commitID {
		t.Fatal("commit and checkout shared one trace ID")
	}

	td, ok := tracer.Recorder().Find(checkoutID)
	if !ok {
		t.Fatalf("checkout trace %s not in flight recorder", checkoutID)
	}
	ids := map[uint64]bool{}
	names := map[string]bool{}
	for _, sp := range td.Spans {
		ids[sp.ID] = true
		names[sp.Name] = true
	}
	for _, want := range []string{"admission", "tenant.acquire", "store.checkout", "store.read", "response.encode"} {
		if !names[want] {
			t.Errorf("checkout trace missing span %q (have %v)", want, names)
		}
	}
	// Connectivity: every non-root span's parent is a recorded span, so
	// the tree has no orphaned fragments.
	for _, sp := range td.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %s (id %d) has dangling parent %d", sp.Name, sp.ID, sp.Parent)
		}
	}

	// The commit trace carries the commit-path spans.
	ctd, ok := tracer.Recorder().Find(commitID)
	if !ok {
		t.Fatalf("commit trace %s not in flight recorder", commitID)
	}
	cnames := map[string]bool{}
	for _, sp := range ctd.Spans {
		cnames[sp.Name] = true
	}
	for _, want := range []string{"commit.decode", "commit.diff", "commit.apply", "tenant.acquire"} {
		if !cnames[want] {
			t.Errorf("commit trace missing span %q (have %v)", want, cnames)
		}
	}

	// The trace round-trips over HTTP by ID, and Tracez sees it too.
	resp, err := http.Get(ts.URL + "/tracez?id=" + checkoutID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var byID trace.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&byID); err != nil {
		t.Fatal(err)
	}
	if len(byID.Recent) != 1 || byID.Recent[0].TraceID != checkoutID {
		t.Fatalf("/tracez?id= returned %+v", byID)
	}
	snap, err := c.Tracez(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Recorded < 2 {
		t.Fatalf("Tracez recorded %d traces, want >= 2", snap.Recorded)
	}
}

// TestTraceHeaderStableAcrossRetries: one logical request keeps one
// trace ID even when the first attempt fails and is retried.
func TestTraceHeaderStableAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var seen []string
	fails := 1
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen = append(seen, r.Header.Get(trace.HeaderTrace))
		fail := fails > 0
		fails--
		mu.Unlock()
		if fail {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Write([]byte(`{"versions":1}`))
	}))
	t.Cleanup(ts.Close)
	c := New(ts.URL, Options{TraceSample: 1})
	c.retryBase = time.Millisecond
	defer c.Close()
	if _, err := c.Healthz(context.Background()); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(seen) != 2 {
		t.Fatalf("saw %d attempts, want 2", len(seen))
	}
	if seen[0] == "" || seen[0] != seen[1] {
		t.Fatalf("trace header not stable across retries: %q vs %q", seen[0], seen[1])
	}
}
