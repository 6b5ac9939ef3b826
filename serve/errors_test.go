package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/store"
	"repro/internal/wire"
	"repro/versioning"
)

// sentinelServer is a repository with one version behind a test server.
func sentinelServer(t *testing.T) (*versioning.Repository, *httptest.Server) {
	t.Helper()
	repo := versioning.NewRepository("test", versioning.RepositoryOptions{})
	t.Cleanup(func() { repo.Close() })
	if _, err := repo.Commit(context.Background(), versioning.NoParent, []string{"root"}); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(repo, Options{}))
	t.Cleanup(ts.Close)
	return repo, ts
}

// TestUnknownVersionSentinel follows store.ErrUnknownVersion from the
// store through versioning to the status serve answers with.
func TestUnknownVersionSentinel(t *testing.T) {
	repo, ts := sentinelServer(t)
	_, err := repo.Checkout(context.Background(), 99)
	if !errors.Is(err, store.ErrUnknownVersion) || !errors.Is(err, versioning.ErrUnknownVersion) {
		t.Fatalf("checkout of version 99: %v, want store.ErrUnknownVersion", err)
	}
	if _, err := repo.Log(99, 0); !errors.Is(err, versioning.ErrUnknownVersion) {
		t.Fatalf("log of version 99: %v, want ErrUnknownVersion", err)
	}
	for _, path := range []string{"/checkout/99", "/diff/0/99", "/log/99"} {
		if code := getJSON(t, ts.URL+path, nil); code != http.StatusNotFound {
			t.Fatalf("GET %s: HTTP %d, want 404", path, code)
		}
	}
	var batch []wire.Checkout
	if code := postJSON(t, ts.URL+"/checkout", wire.BatchRequest{IDs: []versioning.NodeID{0, 99}}, &batch); code != http.StatusOK {
		t.Fatalf("batch checkout: HTTP %d", code)
	}
	if len(batch) != 2 || batch[0].Status != 0 || batch[1].Status != http.StatusNotFound {
		t.Fatalf("batch statuses %+v, want [0 404]", batch)
	}
	// The status follows the error's identity, not its text.
	if got := checkoutErrStatus(errors.New("store: unknown version 99 (have 1)")); got != http.StatusInternalServerError {
		t.Fatalf("look-alike error mapped to %d, want 500", got)
	}
}

// TestOversizedBodyIs413 pins that a request body over the cap is told
// so — it used to be a 400 "bad commit request" — whether or not it
// declared its length, and that an undecodable body under the cap is
// still a 400.
func TestOversizedBodyIs413(t *testing.T) {
	repo := versioning.NewRepository("test", versioning.RepositoryOptions{})
	t.Cleanup(func() { repo.Close() })
	s := New(repo, Options{})
	s.maxBody = 1 << 10
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	big, err := json.Marshal(wire.CommitRequest{Lines: []string{strings.Repeat("x", 2<<10)}})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{"/commit", "/checkout"} {
		for name, body := range map[string]io.Reader{
			"declared": bytes.NewReader(big),                 // Content-Length over the cap
			"chunked":  io.MultiReader(bytes.NewReader(big)), // no Content-Length
		} {
			resp, err := http.Post(ts.URL+path, "application/json", body)
			if err != nil {
				t.Fatal(err)
			}
			var e errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusRequestEntityTooLarge || !strings.Contains(e.Error, "too large") {
				t.Errorf("POST %s, %s oversized body: HTTP %d %q, want 413", path, name, resp.StatusCode, e.Error)
			}
		}
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(`{"lines":`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s, truncated JSON: HTTP %d, want 400", path, resp.StatusCode)
		}
	}
	if repo.Versions() != 0 {
		t.Fatalf("a rejected commit left %d versions", repo.Versions())
	}
}

// TestUnknownParentSentinel does the same for a commit onto a parent the
// repository never held.
func TestUnknownParentSentinel(t *testing.T) {
	repo, ts := sentinelServer(t)
	if _, err := repo.Commit(context.Background(), 7, []string{"x"}); !errors.Is(err, versioning.ErrUnknownParent) {
		t.Fatalf("commit onto parent 7: %v, want ErrUnknownParent", err)
	}
	if _, err := repo.CommitMerge(context.Background(), []versioning.NodeID{0, 7}, []string{"x"}); !errors.Is(err, versioning.ErrUnknownParent) {
		t.Fatalf("merge onto parent 7: %v, want ErrUnknownParent", err)
	}
	if code := postJSON(t, ts.URL+"/commit", wire.CommitRequest{Parent: pid(7), Lines: []string{"x"}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("commit onto missing parent: HTTP %d, want 422", code)
	}
	if code := postJSON(t, ts.URL+"/commit", wire.CommitRequest{Parents: []versioning.NodeID{0, 7}, Lines: []string{"x"}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("merge onto missing parent: HTTP %d, want 422", code)
	}
}

// TestCanceledRequestIs408: a request whose own context has ended is
// the client giving up, not a server fault. Commits, merges, re-plans
// and batch items answer 408 for it, as the single reads do.
func TestCanceledRequestIs408(t *testing.T) {
	repo := versioning.NewRepository("test", versioning.RepositoryOptions{ReplanEvery: -1, CacheEntries: -1})
	t.Cleanup(func() { repo.Close() })
	for v := 0; v < 3; v++ {
		parent := versioning.NodeID(v - 1)
		if _, err := repo.Commit(context.Background(), parent, []string{"a", strings.Repeat("b", v)}); err != nil {
			t.Fatal(err)
		}
	}
	srv := New(repo, Options{RespCacheBytes: -1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	serveCanceled := func(method, path, body string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, method, path, strings.NewReader(body)))
		return rec
	}
	for _, tc := range []struct{ method, path, body string }{
		{"POST", "/commit", `{"parent":2,"lines":["x"]}`},
		{"POST", "/commit", `{"parents":[1,2],"lines":["x"]}`},
		{"POST", "/replan", ""},
		{"GET", "/checkout/2", ""},
	} {
		if rec := serveCanceled(tc.method, tc.path, tc.body); rec.Code != http.StatusRequestTimeout {
			t.Errorf("%s %s under a canceled request: HTTP %d %s, want 408", tc.method, tc.path, rec.Code, rec.Body)
		}
	}
	rec := serveCanceled("POST", "/checkout", `{"ids":[0,2]}`)
	var batch []wire.Checkout
	if err := json.Unmarshal(rec.Body.Bytes(), &batch); err != nil || rec.Code != http.StatusOK {
		t.Fatalf("batch checkout under a canceled request: HTTP %d %s (%v)", rec.Code, rec.Body, err)
	}
	for _, item := range batch {
		if item.Status != http.StatusRequestTimeout {
			t.Errorf("batch item %d under a canceled request: status %d %q, want 408", item.ID, item.Status, item.Error)
		}
	}
	if repo.Versions() != 3 {
		t.Fatalf("canceled commits left %d versions, want 3", repo.Versions())
	}
}
