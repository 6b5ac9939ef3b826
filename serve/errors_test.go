package serve

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/store"
	"repro/versioning"
)

// sentinelServer is a repository with one version behind a test server.
func sentinelServer(t *testing.T) (*versioning.Repository, *httptest.Server) {
	t.Helper()
	repo := versioning.NewRepository("test", versioning.RepositoryOptions{
		EngineOptions: versioning.EngineOptions{DisableILP: true},
	})
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
	var batch []checkoutResponse
	if code := postJSON(t, ts.URL+"/checkout", checkoutBatchRequest{IDs: []versioning.NodeID{0, 99}}, &batch); code != http.StatusOK {
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
	if code := postJSON(t, ts.URL+"/commit", commitRequest{Parent: pid(7), Lines: []string{"x"}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("commit onto missing parent: HTTP %d, want 422", code)
	}
	if code := postJSON(t, ts.URL+"/commit", commitRequest{Parents: []versioning.NodeID{0, 7}, Lines: []string{"x"}}, nil); code != http.StatusUnprocessableEntity {
		t.Fatalf("merge onto missing parent: HTTP %d, want 422", code)
	}
}
