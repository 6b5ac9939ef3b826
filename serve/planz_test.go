package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/tenant"
	"repro/versioning"
)

// seedPlanzServer boots a single-repo server with deterministic inline
// maintenance, a short commit chain, and some checkout traffic, so
// /planz has history to serve.
func seedPlanzServer(t *testing.T) *httptest.Server {
	t.Helper()
	ts := testServer(t, versioning.RepositoryOptions{ReplanEvery: 4, MaintenanceWorkers: -1})
	mustPost(t, ts.URL+"/commit", map[string]any{"parent": -1, "lines": []string{"root"}})
	for i := 1; i < 6; i++ {
		mustPost(t, ts.URL+"/commit", map[string]any{"parent": i - 1, "lines": []string{"root", fmt.Sprintf("v%d", i)}})
	}
	for i := 0; i < 4; i++ {
		mustGet(t, ts.URL+"/checkout/2")
	}
	mustGet(t, ts.URL+"/checkout/0")
	return ts
}

// TestPlanzEndpoint pins the /planz payload: recorded passes with race
// reports oldest-first and the current-plan explanation.
func TestPlanzEndpoint(t *testing.T) {
	ts := seedPlanzServer(t)
	var pz Planz
	if code := getJSON(t, ts.URL+"/planz", &pz); code != http.StatusOK {
		t.Fatalf("/planz: HTTP %d", code)
	}
	if pz.HistoryTotal == 0 || len(pz.History) == 0 {
		t.Fatalf("planz history empty after cadence passes: %+v", pz)
	}
	for i, rec := range pz.History {
		if rec.Failed || rec.Winner == "" || len(rec.Reports) == 0 {
			t.Fatalf("history[%d] incomplete: %+v", i, rec)
		}
		if i > 0 && rec.Seq != pz.History[i-1].Seq+1 {
			t.Fatalf("history not oldest-first contiguous: %+v", pz.History)
		}
	}
	if pz.Current.Summary.Versions != 6 {
		t.Fatalf("current plan covers %d versions, want 6", pz.Current.Summary.Versions)
	}
	if len(pz.Current.DepthHistogram) == 0 {
		t.Fatalf("current plan explanation missing depth histogram: %+v", pz.Current)
	}
	if pz.Tenant != "" {
		t.Fatalf("single-repo planz carries tenant %q", pz.Tenant)
	}
}

// TestPlanzJSONKeys pins the top-level /planz keys after read traffic
// (checkouts, some answered by the response cache, and a diff) and a
// manual re-plan: reads leave no trace in the payload, and multi mode
// adds only the tenant name.
func TestPlanzJSONKeys(t *testing.T) {
	planzKeys := func(t *testing.T, base, prefix string) []string {
		t.Helper()
		mustPost(t, base+prefix+"/commit", map[string]any{"parent": -1, "lines": []string{"root"}})
		for i := 1; i < 4; i++ {
			mustPost(t, base+prefix+"/commit", map[string]any{"parent": i - 1, "lines": []string{"root", fmt.Sprintf("v%d", i)}})
		}
		for i := 0; i < 3; i++ {
			mustGet(t, base+prefix+"/checkout/2")
		}
		mustGet(t, base+prefix+"/diff/0/3")
		mustPost(t, base+prefix+"/replan", nil)
		var sz Statsz
		getJSON(t, base+"/statsz", &sz)
		if sz.RespCache == nil || sz.RespCache.Hits < 2 {
			t.Fatalf("statsz resp_cache = %+v, want the repeated checkouts answered from it", sz.RespCache)
		}
		var m map[string]any
		if code := getJSON(t, base+prefix+"/planz", &m); code != http.StatusOK {
			t.Fatalf("%s/planz: HTTP %d", prefix, code)
		}
		return slices.Sorted(maps.Keys(m))
	}

	ts := testServer(t, versioning.RepositoryOptions{ReplanEvery: -1})
	if got, want := planzKeys(t, ts.URL, ""), []string{"current", "history", "history_total"}; !slices.Equal(got, want) {
		t.Errorf("single-mode /planz keys = %q, want %q", got, want)
	}
	mts := multiServer(t, testManager(t, "", tenant.Options{}), Options{})
	if got, want := planzKeys(t, mts.URL, "/t/alice"), []string{"current", "history", "history_total", "tenant"}; !slices.Equal(got, want) {
		t.Errorf("multi-mode /planz keys = %q, want %q", got, want)
	}
}

// TestPlanzEmptyHistoryJSON pins JSON stability on a fresh repository:
// history must encode as [] (not null) so consumers can range over it
// unconditionally.
func TestPlanzEmptyHistoryJSON(t *testing.T) {
	ts := testServer(t, versioning.RepositoryOptions{ReplanEvery: -1})
	resp, err := http.Get(ts.URL + "/planz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"history":[]`) {
		t.Fatalf("fresh planz history not the empty array:\n%s", raw)
	}
	var pz Planz
	if err := json.Unmarshal(raw, &pz); err != nil {
		t.Fatal(err)
	}
	if pz.HistoryTotal != 0 {
		t.Fatalf("fresh planz = %+v, want empty observatory", pz)
	}
}

// TestLogEndpoint pins /log/{id}: the first-parent walk, ?limit=
// truncation, ETag revalidation through the response cache, and error
// mapping.
func TestLogEndpoint(t *testing.T) {
	ts := seedPlanzServer(t)
	var lr LogResponse
	if code := getJSON(t, ts.URL+"/log/3", &lr); code != http.StatusOK {
		t.Fatalf("/log/3: HTTP %d", code)
	}
	if lr.From != 3 || len(lr.Entries) != 4 || lr.Truncated {
		t.Fatalf("/log/3 = %+v, want the full 4-entry chain to the root", lr)
	}
	for i, e := range lr.Entries {
		if e.ID != versioning.NodeID(3-i) {
			t.Fatalf("entry %d = version %d, want %d", i, e.ID, 3-i)
		}
	}

	var lim LogResponse
	getJSON(t, ts.URL+"/log/3?limit=2", &lim)
	if len(lim.Entries) != 2 || !lim.Truncated {
		t.Fatalf("/log/3?limit=2 = %+v, want 2 entries marked truncated", lim)
	}
	// A limit that exactly reaches the root is not truncated.
	var exact LogResponse
	getJSON(t, ts.URL+"/log/1?limit=2", &exact)
	if len(exact.Entries) != 2 || exact.Truncated {
		t.Fatalf("/log/1?limit=2 = %+v, want the root reached untruncated", exact)
	}

	// Ancestry is immutable, so the cached encoding revalidates via ETag.
	resp, err := http.Get(ts.URL + "/log/3")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("/log response missing ETag")
	}
	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/log/3", nil)
	req.Header.Set("If-None-Match", etag)
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match replay: HTTP %d, want 304", resp.StatusCode)
	}

	for url, want := range map[string]int{
		ts.URL + "/log/99":        http.StatusNotFound,
		ts.URL + "/log/abc":       http.StatusBadRequest,
		ts.URL + "/log/3?limit=x": http.StatusBadRequest,
	} {
		if code := getJSON(t, url, nil); code != want {
			t.Fatalf("GET %s: HTTP %d, want %d", url, code, want)
		}
	}
}

// TestPlanzAndLogTenantRoutes pins the multi-tenant routes: the planz
// payload names its tenant, and per-tenant logs stay isolated.
func TestPlanzAndLogTenantRoutes(t *testing.T) {
	mgr := testManager(t, t.TempDir(), tenant.Options{
		Repo: versioning.RepositoryOptions{ReplanEvery: 2, MaintenanceWorkers: -1},
	})
	ts := multiServer(t, mgr, Options{})
	mustPost(t, ts.URL+"/t/alice/commit", map[string]any{"parent": -1, "lines": []string{"a"}})
	mustPost(t, ts.URL+"/t/alice/commit", map[string]any{"parent": 0, "lines": []string{"a", "b"}})
	mustGet(t, ts.URL+"/t/alice/checkout/1")
	mustPost(t, ts.URL+"/t/bob/commit", map[string]any{"parent": -1, "lines": []string{"b"}})

	var pz Planz
	if code := getJSON(t, ts.URL+"/t/alice/planz", &pz); code != http.StatusOK {
		t.Fatalf("/t/alice/planz: HTTP %d", code)
	}
	if pz.Tenant != "alice" {
		t.Fatalf("planz tenant = %q, want alice", pz.Tenant)
	}
	if pz.HistoryTotal == 0 {
		t.Fatalf("alice recorded no passes: %+v", pz)
	}

	var lr LogResponse
	if code := getJSON(t, ts.URL+"/t/alice/log/1", &lr); code != http.StatusOK {
		t.Fatalf("/t/alice/log/1: HTTP %d", code)
	}
	if len(lr.Entries) != 2 {
		t.Fatalf("alice log = %+v, want 2 entries", lr)
	}
	// Bob never committed version 1: tenant isolation must 404.
	if code := getJSON(t, ts.URL+"/t/bob/log/1", nil); code != http.StatusNotFound {
		t.Fatalf("/t/bob/log/1: HTTP %d, want 404", code)
	}
}

// TestMetricszObservatorySeries pins the observatory's /metricsz
// families: they appear with traffic behind them, the whole exposition
// still lints, and reads export no per-version series.
func TestMetricszObservatorySeries(t *testing.T) {
	ts := seedPlanzServer(t)
	_, _, text := lintMetricsz(t, ts.URL)
	for _, want := range []string{
		`dsv_plan_solver_wins_total{solver="`,
		"dsv_plan_race_duration_seconds_bucket",
		"dsv_plan_race_duration_seconds_count",
		"dsv_plan_records_total",
		"dsv_plan_history_len",
		"dsv_plan_predicted_storage_cost",
		"dsv_plan_predicted_sum_retrieval_cost",
		"dsv_migration_objects_total",
		"dsv_migration_bytes_total",
		"dsv_repo_last_replan_failure_timestamp_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("missing %s in exposition", want)
		}
	}
	for _, gone := range []string{"dsv_heat", "dsv_version_heat"} {
		if strings.Contains(text, gone) {
			t.Errorf("exposition still carries %s", gone)
		}
	}
}
