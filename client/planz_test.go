package client

import (
	"context"
	"errors"
	"net/http"
	"testing"

	"repro/tenant"
	"repro/versioning"
)

// TestClientPlanzAndLog pins the typed observatory accessors end to end
// against a live server: Planz carries recorded passes, Log
// walks real ancestry, and both map errors through APIError.
func TestClientPlanzAndLog(t *testing.T) {
	leakCheck(t)
	ts, _, _ := liveServer(t, 12)
	c := New(ts.URL, Options{})
	defer c.Close()
	ctx := context.Background()

	if _, err := c.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	pz, err := c.Planz(ctx, 5)
	if err != nil {
		t.Fatalf("Planz: %v", err)
	}
	if pz.HistoryTotal == 0 || len(pz.History) == 0 {
		t.Fatalf("Planz history empty after Replan: %+v", pz)
	}
	last := pz.History[len(pz.History)-1]
	if last.Winner == "" || len(last.Reports) == 0 {
		t.Fatalf("latest pass lost its race report: %+v", last)
	}

	lr, err := c.Log(ctx, 5, 0)
	if err != nil {
		t.Fatalf("Log: %v", err)
	}
	if lr.From != 5 || len(lr.Entries) == 0 || lr.Entries[0].ID != 5 || lr.Truncated {
		t.Fatalf("Log(5) = %+v, want a full walk from version 5", lr)
	}
	if root := lr.Entries[len(lr.Entries)-1]; len(root.Parents) != 0 {
		t.Fatalf("walk did not end at a root: %+v", root)
	}
	if lim, err := c.Log(ctx, 5, 1); err != nil || len(lim.Entries) != 1 {
		t.Fatalf("Log(5, limit=1) = %+v, %v", lim, err)
	}

	var apiErr *APIError
	if _, err := c.Log(ctx, 999, 0); !errors.As(err, &apiErr) || apiErr.Status != http.StatusNotFound {
		t.Fatalf("Log(999) = %v, want APIError 404", err)
	}
}

// TestClientTenantPlanzAndLog pins the tenant-scoped accessors against
// a multi daemon.
func TestClientTenantPlanzAndLog(t *testing.T) {
	leakCheck(t)
	ts := liveMultiServer(t, tenant.Options{})
	c := New(ts.URL, Options{})
	defer c.Close()
	ctx := context.Background()
	alice := c.Tenant("alice")
	if _, err := alice.Commit(ctx, versioning.NoParent, []string{"a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Commit(ctx, 0, []string{"a", "b"}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Replan(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Checkout(ctx, 1); err != nil {
		t.Fatal(err)
	}

	pz, err := alice.Planz(ctx, 3)
	if err != nil {
		t.Fatalf("tenant Planz: %v", err)
	}
	if pz.Tenant != "alice" || pz.HistoryTotal == 0 {
		t.Fatalf("tenant Planz = %+v, want alice with history", pz)
	}
	lr, err := alice.Log(ctx, 1, 0)
	if err != nil || len(lr.Entries) != 2 {
		t.Fatalf("tenant Log = %+v, %v; want the 2-entry chain", lr, err)
	}
}
