package client

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/repogen"
	"repro/serve"
	"repro/versioning"
)

// liveServer starts a real serve.Server over an in-memory repository
// preloaded with n committed versions, wrapped so tests can count the
// HTTP requests that actually reach each endpoint.
func liveServer(t *testing.T, n int) (*httptest.Server, *repogen.Repo, *requestCounts) {
	t.Helper()
	repo := versioning.NewRepository("client-test", versioning.RepositoryOptions{
		ReplanEvery:   4,
		EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second},
	})
	// Registered before ts so it runs after ts.Close: the repository owns
	// a background maintenance worker that must drain or leakCheck trips.
	t.Cleanup(func() { repo.Close() })
	src := repogen.GenerateRepo("client-src", n, 11)
	for v := 0; v < src.Graph.N(); v++ {
		if _, err := repo.Commit(context.Background(), src.Parents[v], src.Contents[v]); err != nil {
			t.Fatal(err)
		}
	}
	counts := &requestCounts{}
	inner := serve.New(repo, serve.Options{})
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		counts.total.Add(1)
		if r.Method == http.MethodPost && r.URL.Path == "/checkout" {
			counts.batch.Add(1)
		}
		if r.Method == http.MethodGet && len(r.URL.Path) > len("/checkout/") && r.URL.Path[:len("/checkout/")] == "/checkout/" {
			counts.single.Add(1)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts, src, counts
}

type requestCounts struct {
	total, batch, single atomic.Int64
}

// leakCheck snapshots the goroutine count and fails the test if, after
// cleanup, more goroutines remain than before (with settling time for
// pool and timer teardown).
func leakCheck(t *testing.T) {
	t.Helper()
	before := runtime.NumGoroutine()
	t.Cleanup(func() {
		deadline := time.Now().Add(3 * time.Second)
		for {
			runtime.GC()
			if n := runtime.NumGoroutine(); n <= before {
				return
			} else if time.Now().After(deadline) {
				buf := make([]byte, 1<<20)
				t.Fatalf("goroutine leak: %d before, %d after\n%s",
					before, n, buf[:runtime.Stack(buf, true)])
			}
			time.Sleep(25 * time.Millisecond)
		}
	})
}

func TestClientRoundTrip(t *testing.T) {
	leakCheck(t)
	ts, src, _ := liveServer(t, 12)
	c := New(ts.URL, Options{})
	defer c.Close()
	ctx := context.Background()

	if v, err := c.Healthz(ctx); err != nil || v != 12 {
		t.Fatalf("Healthz = %d, %v", v, err)
	}
	cr, err := c.Commit(ctx, 0, []string{"a branch", "off the root"})
	if err != nil || cr.ID != 12 || cr.Versions != 13 {
		t.Fatalf("Commit = %+v, %v", cr, err)
	}
	lines, err := c.Checkout(ctx, 12)
	if err != nil || !reflect.DeepEqual(lines, []string{"a branch", "off the root"}) {
		t.Fatalf("Checkout(12) = %v, %v", lines, err)
	}
	for v := 0; v < 12; v++ {
		lines, err := c.Checkout(ctx, versioning.NodeID(v))
		if err != nil || !reflect.DeepEqual(lines, src.Contents[v]) {
			t.Fatalf("Checkout(%d) mismatch: %v", v, err)
		}
	}
	batch, err := c.CheckoutBatch(ctx, []versioning.NodeID{3, 7, 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []int{3, 7, 3} {
		if batch[i].Err != nil || !reflect.DeepEqual(batch[i].Lines, src.Contents[want]) {
			t.Fatalf("batch[%d] = %+v", i, batch[i])
		}
	}
	// A failed item is a typed error on its own slot, not a failed batch.
	mixed, err := c.CheckoutBatch(ctx, []versioning.NodeID{3, 999})
	var itemErr *APIError
	if err != nil || mixed[0].Err != nil || !errors.As(mixed[1].Err, &itemErr) || itemErr.Status != http.StatusNotFound {
		t.Fatalf("mixed batch = %+v, %v, want [ok, APIError 404]", mixed, err)
	}
	if plan, err := c.Plan(ctx); err != nil || plan.Versions != 13 {
		t.Fatalf("Plan = %+v, %v", plan, err)
	}
	if stats, err := c.Stats(ctx); err != nil || stats.Versions != 13 {
		t.Fatalf("Stats = %+v, %v", stats, err)
	}
	if sz, err := c.Statsz(ctx); err != nil || sz.Endpoints["commit"].Requests != 1 {
		t.Fatalf("Statsz = %+v, %v", sz, err)
	}
	if _, err := c.Replan(ctx); err != nil {
		t.Fatalf("Replan: %v", err)
	}
	// Typed error for a missing version.
	_, err = c.Checkout(ctx, 999)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("Checkout(999) = %v, want APIError 404", err)
	}
}

func TestClientRetries5xxBurst(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			http.Error(w, `{"error":"replica catching up"}`, http.StatusServiceUnavailable)
			return
		}
		fmt.Fprint(w, `{"id":5,"lines":["ok"]}`)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{MaxRetries: 3})
	c.retryBase = time.Millisecond
	defer c.Close()
	lines, err := c.Checkout(context.Background(), 5)
	if err != nil || !reflect.DeepEqual(lines, []string{"ok"}) {
		t.Fatalf("Checkout = %v, %v", lines, err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want 3 (2 failures + success)", calls.Load())
	}
}

func TestClientRetryBudgetBounded(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"down"}`, http.StatusInternalServerError)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{MaxRetries: 2})
	c.retryBase = time.Millisecond
	defer c.Close()
	_, err := c.Checkout(context.Background(), 0)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusInternalServerError {
		t.Fatalf("err = %v, want APIError 500", err)
	}
	if calls.Load() != 3 {
		t.Fatalf("server saw %d requests, want exactly 1 + MaxRetries(2)", calls.Load())
	}
}

func TestClientHonorsRetryAfter(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Retry-After", "1")
			http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, `{"id":0,"lines":["ok"]}`)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	c.retryBase = time.Millisecond
	defer c.Close()
	start := time.Now()
	if _, err := c.Checkout(context.Background(), 0); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < time.Second {
		t.Fatalf("retried after %v, want >= 1s from Retry-After", elapsed)
	}
}

// TestBackoffDefaults pins the one setting backoff runs at: a client
// built with zero Options waits 50ms, plus up to 50ms of jitter, before
// its first retry, twice that before the next, at most 2s plus jitter
// however many retries in, and a longer server Retry-After raises it.
func TestBackoffDefaults(t *testing.T) {
	c := New("http://127.0.0.1:1", Options{})
	defer c.Close()
	const base, ceiling = 50 * time.Millisecond, 2 * time.Second
	within := func(what string, d, lo, hi time.Duration) {
		t.Helper()
		if d < lo || d > hi {
			t.Fatalf("%s waits %s, want %s to %s", what, d, lo, hi)
		}
	}
	for i := 0; i < 100; i++ {
		within("first retry", c.backoff(0, 0), base, 2*base)
		within("second retry", c.backoff(1, 0), 2*base, 3*base)
		within("sixth retry", c.backoff(5, 0), 32*base, 33*base)
		for _, attempt := range []int{6, 10, 63} {
			within(fmt.Sprintf("retry %d", attempt+1), c.backoff(attempt, 0), ceiling, ceiling+base)
		}
		within("first retry after Retry-After: 3", c.backoff(0, 3*time.Second), 3*time.Second, 3*time.Second)
		within("retry 11 after Retry-After: 3", c.backoff(10, 3*time.Second), 3*time.Second, 3*time.Second)
	}
}

func TestClientPerRequestTimeout(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			select {
			case <-time.After(2 * time.Second):
			case <-r.Context().Done():
			}
			return
		}
		fmt.Fprint(w, `{"id":0,"lines":["fast"]}`)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{RequestTimeout: 60 * time.Millisecond})
	c.retryBase = time.Millisecond
	defer c.Close()
	lines, err := c.Checkout(context.Background(), 0)
	if err != nil || !reflect.DeepEqual(lines, []string{"fast"}) {
		t.Fatalf("Checkout = %v, %v (want retry past the hung attempt)", lines, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d requests, want 2", calls.Load())
	}
}

// TestClientTornResponse promises a long body, delivers some of it and
// drops the connection, so that the client sees a success status with a
// body shorter than its Content-Length. A read is simply reissued; a
// commit is not, because the torn answer was to a commit that applied.
func TestClientTornResponse(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			w.Header().Set("Content-Length", "1000")
			w.WriteHeader(http.StatusOK)
			fmt.Fprint(w, `{"id":0,"lin`)
			if f, ok := w.(http.Flusher); ok {
				f.Flush()
			}
			panic(http.ErrAbortHandler)
		}
		fmt.Fprint(w, `{"id":0,"lines":["whole"]}`)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	c.retryBase = time.Millisecond
	defer c.Close()
	lines, err := c.Checkout(context.Background(), 0)
	if err != nil || !reflect.DeepEqual(lines, []string{"whole"}) || calls.Load() != 2 {
		t.Fatalf("Checkout = %v, %v after %d requests (want retry past torn response)", lines, err, calls.Load())
	}
	calls.Store(0)
	if cr, err := c.Commit(context.Background(), versioning.NoParent, []string{"x"}); err == nil || calls.Load() != 1 {
		t.Fatalf("Commit = %+v, %v after %d requests (want the torn answer reported, nothing resent)", cr, err, calls.Load())
	}
}

// TestClientCommitTooLargeNotRetried: a 413 is the server's verdict on
// the body itself, which a resend would not change.
func TestClientCommitTooLargeNotRetried(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		http.Error(w, `{"error":"bad commit request: http: request body too large"}`, http.StatusRequestEntityTooLarge)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	c.retryBase = time.Millisecond
	defer c.Close()
	_, err := c.Commit(context.Background(), versioning.NoParent, []string{"x"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusRequestEntityTooLarge || !strings.Contains(apiErr.Message, "too large") {
		t.Fatalf("Commit = %v, want APIError 413", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("a 413 commit was sent %d times", calls.Load())
	}
}

func TestClientCommitNotRetriedOnTransportError(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		panic(http.ErrAbortHandler) // connection dropped mid-request
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	c.retryBase = time.Millisecond
	defer c.Close()
	_, err := c.Commit(context.Background(), versioning.NoParent, []string{"x"})
	if err == nil {
		t.Fatal("commit over dropped connection reported success")
	}
	if calls.Load() != 1 {
		t.Fatalf("non-idempotent commit was resent %d times after a transport error", calls.Load()-1)
	}
}

func TestClientCommitRetriedOn5xx(t *testing.T) {
	leakCheck(t)
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			// An error *response* proves the commit did not apply.
			http.Error(w, `{"error":"transient"}`, http.StatusInternalServerError)
			return
		}
		fmt.Fprint(w, `{"id":0,"versions":1}`)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	c.retryBase = time.Millisecond
	defer c.Close()
	cr, err := c.Commit(context.Background(), versioning.NoParent, []string{"x"})
	if err != nil || cr.Versions != 1 {
		t.Fatalf("Commit = %+v, %v", cr, err)
	}
	if calls.Load() != 2 {
		t.Fatalf("server saw %d commit requests, want 2", calls.Load())
	}
}

// TestClientDefaultCheckoutIsOneGET pins the path a zero-Options client
// takes: each Checkout is its own GET /checkout/{id}, so a repeat is
// answered from the daemon's encoded-response cache and nothing goes
// through POST /checkout. The client keeps no copy: each round gets
// lines of its own, so scribbling over one round's lines leaves the next
// intact.
func TestClientDefaultCheckoutIsOneGET(t *testing.T) {
	leakCheck(t)
	ts, src, _ := liveServer(t, 6)
	c := New(ts.URL, Options{})
	defer c.Close()
	ctx := context.Background()
	const n = 5
	for i := 0; i < n; i++ {
		lines, err := c.Checkout(ctx, 3)
		if err != nil || !reflect.DeepEqual(lines, src.Contents[3]) {
			t.Fatalf("Checkout(3) round %d = %v, %v", i, lines, err)
		}
		for j := range lines {
			lines[j] = "scribbled"
		}
	}
	sz, err := c.Statsz(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if got := sz.Endpoints["checkout"].Requests; got != n {
		t.Fatalf("GET /checkout/{id} requests = %d, want %d", got, n)
	}
	if got := sz.Endpoints["checkout_batch"].Requests; got != 0 {
		t.Fatalf("POST /checkout requests = %d, want 0", got)
	}
	if sz.RespCache == nil || sz.RespCache.Hits != n-1 {
		t.Fatalf("response cache = %+v, want %d hits", sz.RespCache, n-1)
	}
}

// TestClientCheckoutDiesWithItsContext: cancelling the caller's context
// mid-request returns ctx.Err() and ends the request the server is
// working on, so the daemon can abandon the reconstruction.
func TestClientCheckoutDiesWithItsContext(t *testing.T) {
	leakCheck(t)
	entered, ended := make(chan struct{}, 1), make(chan struct{}, 1)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet || !strings.HasPrefix(r.URL.Path, "/checkout/") {
			http.Error(w, "unexpected "+r.Method+" "+r.URL.Path, http.StatusTeapot)
			return
		}
		entered <- struct{}{}
		<-r.Context().Done()
		ended <- struct{}{}
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Checkout(ctx, 1)
		done <- err
	}()
	await := func(ch <-chan struct{}, what string) {
		t.Helper()
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatalf("timed out waiting for %s", what)
		}
	}
	await(entered, "the server to see GET /checkout/1")
	cancel()
	await(ended, "the server's request context to end")
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled checkout returned %v, want context.Canceled", err)
	}
}

// TestClientOnResponseBytes checks the byte hook fires for non-checkout
// endpoints too, with the true wire size.
func TestClientOnResponseBytes(t *testing.T) {
	leakCheck(t)
	ts, _, _ := liveServer(t, 3)
	var mu sync.Mutex
	got := map[string]int64{}
	c := New(ts.URL, Options{
		OnResponse: func(path string, n int64) {
			mu.Lock()
			got[path] += n
			mu.Unlock()
		},
	})
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Commit(ctx, 2, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkout(ctx, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got["/commit"] <= 0 {
		t.Fatalf("commit response bytes = %d, want > 0 (hook saw %v)", got["/commit"], got)
	}
	if got["/checkout/0"] <= 0 {
		t.Fatalf("checkout response bytes = %d, want > 0 (hook saw %v)", got["/checkout/0"], got)
	}
}
