package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/serve"
	"repro/tenant"
	"repro/versioning"
)

// liveMultiServer starts a real multi-tenant serve stack over an
// in-memory tenant manager.
func liveMultiServer(t *testing.T, opt tenant.Options) *httptest.Server {
	t.Helper()
	if opt.Repo.ReplanEvery == 0 {
		opt.Repo.ReplanEvery = -1
	}
	mgr := tenant.NewManager(opt)
	t.Cleanup(func() { mgr.Close() })
	ts := httptest.NewServer(serve.NewMulti(mgr, serve.Options{}))
	t.Cleanup(ts.Close)
	return ts
}

func TestClientTenantRoundTrip(t *testing.T) {
	leakCheck(t)
	ts := liveMultiServer(t, tenant.Options{})
	c := New(ts.URL, Options{})
	defer c.Close()
	ctx := context.Background()

	alice := c.Tenant("alice")
	bob := c.Tenant("bob")
	if alice.Name() != "alice" || bob.Name() != "bob" || alice.Tenant("").Name() != "" {
		t.Fatalf("view names = %q, %q, %q", alice.Name(), bob.Name(), alice.Tenant("").Name())
	}
	if got := alice.Tenant("b/ob").prefix; got != "/t/b%2Fob" {
		t.Fatalf(`Tenant("b/ob") routes under %q, want /t/b%%2Fob`, got)
	}

	cr, err := alice.Commit(ctx, versioning.NoParent, []string{"alice v0"})
	if err != nil || cr.ID != 0 || cr.Versions != 1 {
		t.Fatalf("alice commit = %+v, %v", cr, err)
	}
	if _, err := bob.Commit(ctx, versioning.NoParent, []string{"bob v0", "extra"}); err != nil {
		t.Fatalf("bob commit: %v", err)
	}
	lines, err := alice.Checkout(ctx, 0)
	if err != nil || !reflect.DeepEqual(lines, []string{"alice v0"}) {
		t.Fatalf("alice checkout = %v, %v", lines, err)
	}
	lines, err = bob.Checkout(ctx, 0)
	if err != nil || len(lines) != 2 {
		t.Fatalf("bob checkout = %v, %v", lines, err)
	}
	batch, err := bob.CheckoutBatch(ctx, []versioning.NodeID{0, 0})
	if err != nil || len(batch) != 2 || batch[0].Err != nil {
		t.Fatalf("bob batch = %+v, %v", batch, err)
	}
	// Tenant-scoped metadata endpoints.
	if st, err := alice.Stats(ctx); err != nil || st.Versions != 1 {
		t.Fatalf("alice stats = %+v, %v", st, err)
	}
	if plan, err := alice.Plan(ctx); err != nil || plan.Versions != 1 {
		t.Fatalf("alice plan = %+v, %v", plan, err)
	}
	if _, err := alice.Replan(ctx); err != nil {
		t.Fatalf("alice replan: %v", err)
	}
	// A version committed to bob does not exist under alice.
	_, err = alice.Checkout(ctx, 1)
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("alice cross-tenant checkout = %v, want 404", err)
	}
	// Fleet view through the same client.
	fleet, err := c.Fleetz(ctx, 3)
	if err != nil || fleet.Tenants != 2 {
		t.Fatalf("fleetz = %+v, %v", fleet, err)
	}
}

func TestClientTenantQuota429(t *testing.T) {
	leakCheck(t)
	ts := liveMultiServer(t, tenant.Options{
		Quota: tenant.Quota{CommitsPerSec: 0.001, CommitBurst: 1},
	})
	// Disable retries: a quota 429 is retryable by policy, but the test
	// asserts the typed error surface, not the retry loop.
	c := New(ts.URL, Options{MaxRetries: -1})
	defer c.Close()
	ctx := context.Background()
	alice := c.Tenant("alice")
	if _, err := alice.Commit(ctx, versioning.NoParent, []string{"v0"}); err != nil {
		t.Fatalf("first commit: %v", err)
	}
	_, err := alice.Commit(ctx, 0, []string{"v1"})
	var apiErr *APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
		t.Fatalf("over-quota commit = %v, want APIError 429", err)
	}
}

// TestClientRetryHonorsContextCancelMidBackoff pins the satellite
// contract: a caller canceling its context while the client sleeps
// between retry attempts gets control back immediately (with the last
// server error), instead of being held hostage by a long Retry-After.
func TestClientRetryHonorsContextCancelMidBackoff(t *testing.T) {
	leakCheck(t)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "30") // would back off for 30s
		http.Error(w, `{"error":"overloaded"}`, http.StatusTooManyRequests)
	}))
	defer ts.Close()
	c := New(ts.URL, Options{})
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	start := time.Now()
	go func() {
		_, err := c.Checkout(ctx, 0)
		done <- err
	}()
	time.Sleep(50 * time.Millisecond) // let the first attempt fail and the backoff start
	cancel()
	select {
	case err := <-done:
		if elapsed := time.Since(start); elapsed > 2*time.Second {
			t.Fatalf("cancel mid-backoff took %s to return", elapsed)
		}
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			t.Fatalf("err = %v, want the last APIError 429", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Checkout still blocked 5s after context cancellation")
	}
}
