package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"repro/internal/wire"
	"repro/versioning"
)

// seedDiffServer commits three versions and one merge:
//
//	0: base lines    1: child of 0    2: second child of 0    3: merge(1, 2)
func seedDiffServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := testServer(t, versioning.RepositoryOptions{ReplanEvery: -1, MaintenanceWorkers: -1})
	commit := func(req wire.CommitRequest) versioning.NodeID {
		var cr wire.CommitResult
		if code := postJSON(t, ts.URL+"/commit", req, &cr); code != http.StatusOK {
			t.Fatalf("seed commit: HTTP %d", code)
		}
		return cr.ID
	}
	root := commit(wire.CommitRequest{Parent: pid(versioning.NoParent), Lines: []string{"a", "b", "c"}})
	left := commit(wire.CommitRequest{Parent: pid(root), Lines: []string{"a", "b", "c", "left"}})
	right := commit(wire.CommitRequest{Parent: pid(root), Lines: []string{"right", "a", "b", "c"}})
	merged := commit(wire.CommitRequest{Parents: []versioning.NodeID{left, right}, Lines: []string{"right", "a", "b", "c", "left"}})
	if merged != 3 {
		t.Fatalf("merge commit assigned id %d", merged)
	}
	return ts
}

func TestDiffHandler(t *testing.T) {
	ts := seedDiffServer(t)

	t.Run("edit script round trips", func(t *testing.T) {
		var dr wire.DiffResult
		if code := getJSON(t, ts.URL+"/diff/0/1", &dr); code != http.StatusOK {
			t.Fatalf("diff: HTTP %d", code)
		}
		if dr.A != 0 || dr.B != 1 {
			t.Fatalf("diff endpoints %d..%d", dr.A, dr.B)
		}
		if dr.AddedLines != 1 || dr.RemovedLines != 0 {
			t.Fatalf("diff summary +%d -%d, want +1 -0", dr.AddedLines, dr.RemovedLines)
		}
		// Applying the script to a checkout of A must reproduce B.
		var a, b wire.Checkout
		getJSON(t, ts.URL+"/checkout/0", &a)
		getJSON(t, ts.URL+"/checkout/1", &b)
		got, err := applyWireOps(a.Lines, dr.Ops)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, b.Lines) {
			t.Fatalf("applied diff produced %q, want %q", got, b.Lines)
		}
	})

	t.Run("same version is the empty script", func(t *testing.T) {
		var dr wire.DiffResult
		if code := getJSON(t, ts.URL+"/diff/2/2", &dr); code != http.StatusOK {
			t.Fatalf("self-diff: HTTP %d", code)
		}
		if len(dr.Ops) != 0 || dr.AddedLines != 0 || dr.RemovedLines != 0 {
			t.Fatalf("self-diff not empty: %+v", dr)
		}
	})

	t.Run("unknown version is 404", func(t *testing.T) {
		var er errorResponse
		if code := getJSON(t, ts.URL+"/diff/0/99", &er); code != http.StatusNotFound {
			t.Fatalf("diff against unknown version: HTTP %d", code)
		}
		// Unknown a==b must not vacuous-succeed as an empty script.
		if code := getJSON(t, ts.URL+"/diff/99/99", &er); code != http.StatusNotFound {
			t.Fatalf("self-diff of unknown version: HTTP %d", code)
		}
	})

	t.Run("bad ids are 400", func(t *testing.T) {
		var er errorResponse
		if code := getJSON(t, ts.URL+"/diff/x/1", &er); code != http.StatusBadRequest {
			t.Fatalf("bad id: HTTP %d", code)
		}
	})

	t.Run("etag revalidation", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/diff/1/2")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		etag := resp.Header.Get("ETag")
		if etag == "" {
			t.Fatal("diff response has no ETag")
		}
		req, _ := http.NewRequest("GET", ts.URL+"/diff/1/2", nil)
		req.Header.Set("If-None-Match", etag)
		resp2, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp2.Body.Close()
		if resp2.StatusCode != http.StatusNotModified {
			t.Fatalf("revalidated diff: HTTP %d, want 304", resp2.StatusCode)
		}
	})

	t.Run("manifests diff file by file", func(t *testing.T) {
		before := versioning.EncodeManifest([]versioning.ManifestEntry{
			{Path: "edit.txt", Lines: []string{"e1", "e2", "e3", "e4", "e5"}},
			{Path: "gone.txt", Lines: []string{"x1", "x2"}},
			{Path: "grow.txt", Lines: []string{"g1", "g2"}},
			{Path: "same.txt", Lines: []string{"s1", "s2", "s3"}},
		})
		after := versioning.EncodeManifest([]versioning.ManifestEntry{
			{Path: "edit.txt", Lines: []string{"e1", "e2", "E3", "e4", "e5"}},
			{Path: "grow.txt", Lines: []string{"g1", "g2", "g3"}},
			{Path: "new.txt", Lines: []string{"n1", "n2"}},
			{Path: "same.txt", Lines: []string{"s1", "s2", "s3"}},
		})
		var c1, c2 wire.CommitResult
		if code := postJSON(t, ts.URL+"/commit", wire.CommitRequest{Parent: pid(versioning.NoParent), Lines: before}, &c1); code != http.StatusOK {
			t.Fatalf("commit: HTTP %d", code)
		}
		if code := postJSON(t, ts.URL+"/commit", wire.CommitRequest{Parent: pid(c1.ID), Lines: after}, &c2); code != http.StatusOK {
			t.Fatalf("commit: HTTP %d", code)
		}
		var dr wire.DiffResult
		if code := getJSON(t, fmt.Sprintf("%s/diff/%d/%d", ts.URL, c1.ID, c2.ID), &dr); code != http.StatusOK {
			t.Fatalf("diff: HTTP %d", code)
		}
		got, err := applyWireOps(before, dr.Ops)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, after) {
			t.Fatalf("applied diff produced %q, want %q", got, after)
		}
		added, removed := 0, 0
		for _, op := range dr.Ops {
			switch op.Op {
			case "insert":
				added += len(op.Lines)
			case "delete":
				removed += op.N
			}
		}
		if dr.AddedLines != added || dr.RemovedLines != removed {
			t.Fatalf("summary +%d -%d, script +%d -%d", dr.AddedLines, dr.RemovedLines, added, removed)
		}
		// e3 -> E3; grow.txt's header, whose count changed, and g3;
		// gone.txt and new.txt whole, each a header and two lines.
		if added != 6 || removed != 5 {
			t.Fatalf("script +%d -%d, want +6 -5", added, removed)
		}
	})
}

// applyWireOps replays a wire edit script against src. A keep or delete
// must stay inside src, and the script must consume all of it.
func applyWireOps(src []string, ops []wire.DiffOp) ([]string, error) {
	var out []string
	i := 0
	for _, op := range ops {
		switch op.Op {
		case "keep", "delete":
			if op.N < 0 || op.N > len(src)-i {
				return nil, fmt.Errorf("%s %d overruns source at %d/%d", op.Op, op.N, i, len(src))
			}
			if op.Op == "keep" {
				out = append(out, src[i:i+op.N]...)
			}
			i += op.N
		case "insert":
			out = append(out, op.Lines...)
		default:
			return nil, fmt.Errorf("unknown wire op %q", op.Op)
		}
	}
	if i != len(src) {
		return nil, fmt.Errorf("script consumed %d of %d source lines", i, len(src))
	}
	return out, nil
}

func TestApplyWireOpsRejectsBadScripts(t *testing.T) {
	src := []string{"a", "b", "c"}
	for name, ops := range map[string][]wire.DiffOp{
		"delete past the end": {{Op: "keep", N: 2}, {Op: "delete", N: 2}},
		"source left over":    {{Op: "keep", N: 1}, {Op: "insert", Lines: []string{"b", "c"}}},
	} {
		if got, err := applyWireOps(src, ops); err == nil {
			t.Errorf("%s: %+v applied to %q gave %q, want an error", name, ops, src, got)
		}
	}
}

func TestCheckoutPathScope(t *testing.T) {
	ts := testServer(t, versioning.RepositoryOptions{ReplanEvery: -1, MaintenanceWorkers: -1})
	lines := versioning.EncodeManifest([]versioning.ManifestEntry{
		{Path: "cmd/a.go", Lines: []string{"a"}},
		{Path: "cmd/sub/b.go", Lines: []string{"b"}},
		{Path: "cmdx/c.go", Lines: []string{"c"}},
		{Path: "README.md", Lines: []string{"readme"}},
	})
	var cr wire.CommitResult
	if code := postJSON(t, ts.URL+"/commit", wire.CommitRequest{Parent: pid(versioning.NoParent), Lines: lines}, &cr); code != http.StatusOK {
		t.Fatalf("commit: HTTP %d", code)
	}

	scoped := func(path string) []versioning.ManifestEntry {
		t.Helper()
		var co wire.Checkout
		url := fmt.Sprintf("%s/checkout/%d?path=%s", ts.URL, cr.ID, path)
		if code := getJSON(t, url, &co); code != http.StatusOK {
			t.Fatalf("scoped checkout %q: HTTP %d", path, code)
		}
		entries, err := versioning.ParseManifest(co.Lines)
		if err != nil {
			t.Fatalf("scoped checkout %q returned a non-manifest: %v", path, err)
		}
		return entries
	}

	// Directory prefix excludes the cmdx sibling.
	got := scoped("cmd")
	if len(got) != 2 || got[0].Path != "cmd/a.go" || got[1].Path != "cmd/sub/b.go" {
		t.Fatalf("cmd scope got %+v", got)
	}
	// Exact file path.
	got = scoped("README.md")
	if len(got) != 1 || got[0].Path != "README.md" {
		t.Fatalf("exact scope got %+v", got)
	}
	// No match: an empty manifest with a 200, not an error.
	if got = scoped("missing/dir"); len(got) != 0 {
		t.Fatalf("no-match scope got %+v", got)
	}
	// Unknown version stays a 404 with a scope attached.
	var er errorResponse
	if code := getJSON(t, ts.URL+"/checkout/99?path=cmd", &er); code != http.StatusNotFound {
		t.Fatalf("scoped checkout of unknown version: HTTP %d", code)
	}
	// The scoped and full responses cache under different kinds: a full
	// checkout after a scoped one must return the whole manifest.
	var full wire.Checkout
	if code := getJSON(t, fmt.Sprintf("%s/checkout/%d", ts.URL, cr.ID), &full); code != http.StatusOK {
		t.Fatalf("full checkout: HTTP %d", code)
	}
	if !reflect.DeepEqual(full.Lines, lines) {
		t.Fatalf("full checkout after scoped one drifted: %q", full.Lines)
	}

	// The counters surface on /statsz.
	var st Statsz
	if code := getJSON(t, ts.URL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("statsz: HTTP %d", code)
	}
	if st.Endpoints["checkout"].PathScoped < 3 {
		t.Fatalf("path_scoped counter = %d, want >= 3", st.Endpoints["checkout"].PathScoped)
	}
}
