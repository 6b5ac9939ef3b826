package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/tenant"
	"repro/versioning"
)

// The end-to-end client→NewMulti trace-propagation test lives in
// package client (client_test): client imports serve, so it cannot be
// exercised from here without an import cycle.

// TestMetricszLint scrapes /metricsz in both serving modes and runs
// the exposition through the promtool-equivalent linter.
func TestMetricszLint(t *testing.T) {
	t.Run("single", func(t *testing.T) {
		repo := versioning.NewRepository("m", versioning.RepositoryOptions{
			ReplanEvery:   -1,
			EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second},
		})
		srv := New(repo, Options{Tracer: trace.New(trace.Options{Sample: 1})})
		ts := httptest.NewServer(srv)
		t.Cleanup(ts.Close)
		mustPost(t, ts.URL+"/commit", map[string]any{"parent": -1, "lines": []string{"a"}})
		mustGet(t, ts.URL+"/checkout/0")
		families, series, text := lintMetricsz(t, ts.URL)
		if families < 20 || series < 25 {
			t.Fatalf("suspiciously small exposition: %d families, %d series\n%s", families, series, text)
		}
		for _, want := range []string{"dsv_build_info", "dsv_request_duration_seconds_bucket", "dsv_repo_versions", "dsv_traces_recorded_total"} {
			if !strings.Contains(text, want) {
				t.Errorf("missing %s in exposition", want)
			}
		}
	})
	t.Run("multi", func(t *testing.T) {
		mgr := testManager(t, t.TempDir(), tenant.Options{})
		ts := multiServer(t, mgr, Options{})
		for _, tn := range []string{"alice", "bob"} {
			mustPost(t, ts.URL+"/t/"+tn+"/commit", map[string]any{"parent": -1, "lines": []string{"a"}})
			mustGet(t, ts.URL+"/t/"+tn+"/checkout/0")
		}
		_, _, text := lintMetricsz(t, ts.URL)
		for _, want := range []string{
			`dsv_repo_versions{tenant="alice"}`,
			`dsv_tenant_commits_total{tenant="bob"}`,
			"dsv_fleet_open",
			"dsv_wal_batches_total",
		} {
			if !strings.Contains(text, want) {
				t.Errorf("missing %s in multi exposition", want)
			}
		}
	})
}

func lintMetricsz(t *testing.T, base string) (families, series int, text string) {
	t.Helper()
	resp, err := http.Get(base + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if got := resp.Header.Get("Content-Type"); got != metrics.ContentType {
		t.Fatalf("Content-Type %q, want %q", got, metrics.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text = string(raw)
	families, series, err = metrics.Lint(strings.NewReader(text))
	if err != nil {
		t.Fatalf("metricsz lint: %v\n%s", err, text)
	}
	return families, series, text
}

// TestMetricszAgreesWithStatsz: /metricsz renders the /statsz snapshot,
// so after the same traffic the numbers both report are equal, in both
// serving modes. Neither scrape moves a number compared here.
func TestMetricszAgreesWithStatsz(t *testing.T) {
	for _, mode := range []struct {
		name   string
		base   func(t *testing.T) string // URL prefix of the repository routes
		labels map[string]string         // repository name -> its series' labels
	}{
		{"single", func(t *testing.T) string {
			repo := versioning.NewRepository("m", versioning.RepositoryOptions{ReplanEvery: -1})
			ts := httptest.NewServer(New(repo, Options{}))
			t.Cleanup(ts.Close)
			return ts.URL
		}, map[string]string{"m": ""}},
		{"multi", func(t *testing.T) string {
			ts := multiServer(t, testManager(t, "", tenant.Options{}), Options{})
			mustPost(t, ts.URL+"/t/bob/commit", map[string]any{"parent": -1, "lines": []string{"b"}})
			return ts.URL + "/t/alice"
		}, map[string]string{"alice": `{tenant="alice"}`, "bob": `{tenant="bob"}`}},
	} {
		t.Run(mode.name, func(t *testing.T) {
			base := mode.base(t)
			root := strings.TrimSuffix(base, "/t/alice")
			mustPost(t, base+"/commit", map[string]any{"parent": -1, "lines": []string{"a"}})
			mustPost(t, base+"/commit", map[string]any{"parent": 0, "lines": []string{"a", "b"}})
			for i := 0; i < 3; i++ {
				mustGet(t, base+"/checkout/1")
			}
			mustGet(t, base+"/diff/0/1")
			req, _ := http.NewRequest("GET", base+"/checkout/1", nil)
			req.Header.Set("If-None-Match", "*")
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusNotModified {
				t.Fatalf("If-None-Match: HTTP %d, want 304", resp.StatusCode)
			}

			var z Statsz
			if code := getJSON(t, root+"/statsz", &z); code != http.StatusOK {
				t.Fatalf("statsz: HTTP %d", code)
			}
			_, _, text := lintMetricsz(t, root)
			samples := map[string]float64{}
			for _, line := range strings.Split(text, "\n") {
				if i := strings.LastIndexByte(line, ' '); i > 0 && line[0] != '#' {
					v, err := strconv.ParseFloat(line[i+1:], 64)
					if err != nil {
						t.Fatalf("sample %q: %v", line, err)
					}
					samples[line[:i]] = v
				}
			}
			agree := func(series string, want float64) {
				t.Helper()
				if got, ok := samples[series]; !ok || got != want || want == 0 {
					t.Errorf("%s = %v (present %v), /statsz says %v (must be > 0)", series, got, ok, want)
				}
			}
			for _, ep := range []string{"commit", "checkout", "diff"} {
				es := z.Endpoints[ep]
				agree(`dsv_requests_total{endpoint="`+ep+`"}`, float64(es.Requests))
				agree(`dsv_request_duration_seconds_count{endpoint="`+ep+`"}`, float64(es.Latency.Count))
			}
			if z.RespCache == nil {
				t.Fatal("statsz has no resp_cache")
			}
			agree("dsv_respcache_hits_total", float64(z.RespCache.Hits))
			agree("dsv_checkout_not_modified_total", float64(z.NotModified))
			repos := z.Tenants
			if repos == nil {
				repos = map[string]versioning.RepositoryStats{z.Repo.Name: z.Repo}
			}
			if len(repos) != len(mode.labels) {
				t.Fatalf("statsz repositories %v, want %v", metrics.SortedKeys(repos), mode.labels)
			}
			for name, labels := range mode.labels {
				agree("dsv_repo_versions"+labels, float64(repos[name].Versions))
			}
		})
	}
}

// TestStatszTenants pins the multi-mode /statsz per-tenant section:
// every open tenant reports full repository stats, WAL batching
// counters included.
func TestStatszTenants(t *testing.T) {
	mgr := testManager(t, t.TempDir(), tenant.Options{})
	ts := multiServer(t, mgr, Options{})
	mustPost(t, ts.URL+"/t/alice/commit", map[string]any{"parent": -1, "lines": []string{"a"}})
	mustPost(t, ts.URL+"/t/alice/commit", map[string]any{"parent": 0, "lines": []string{"a", "b"}})

	resp, err := http.Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st Statsz
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	alice, ok := st.Tenants["alice"]
	if !ok {
		t.Fatalf("statsz tenants missing alice: %+v", st.Tenants)
	}
	if alice.Versions != 2 {
		t.Fatalf("alice versions = %d, want 2", alice.Versions)
	}
	if alice.WALBatches < 1 || alice.WALBatchedCommits < 1 {
		t.Fatalf("alice WAL batching counters empty: %+v", alice)
	}
}

// TestSlowRequestLog pins the threshold-gated slow-request log: over
// the threshold logs a line carrying the trace ID; the 100ms rate
// limit suppresses an immediate second line but counts it.
func TestSlowRequestLog(t *testing.T) {
	repo := versioning.NewRepository("slow", versioning.RepositoryOptions{
		ReplanEvery:   -1,
		EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second},
	})
	srv := New(repo, Options{
		Tracer:      trace.New(trace.Options{Sample: 1}),
		SlowRequest: time.Nanosecond, // everything is slow
	})
	var mu sync.Mutex
	var lines []string
	srv.logf = func(format string, args ...any) {
		mu.Lock()
		lines = append(lines, format)
		_ = args
		mu.Unlock()
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	mustPost(t, ts.URL+"/commit", map[string]any{"parent": -1, "lines": []string{"a"}})
	mustGet(t, ts.URL+"/checkout/0")

	mu.Lock()
	n := len(lines)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("logged %d slow lines, want 1 (rate limit)", n)
	}
	if !strings.Contains(lines[0], "slow request") || !strings.Contains(lines[0], "trace_id") {
		t.Fatalf("slow log format %q", lines[0])
	}
	if srv.slowLogged.Load() != 1 || srv.slowSuppressed.Load() < 1 {
		t.Fatalf("slow counters logged=%d suppressed=%d", srv.slowLogged.Load(), srv.slowSuppressed.Load())
	}
	// The disabled path stays silent.
	if srv2 := New(repo, Options{}); srv2.slowReq != 0 {
		t.Fatal("SlowRequest default not disabled")
	}
}

// TestHealthzBuildInfo: /healthz reports the embedded build identity.
func TestHealthzBuildInfo(t *testing.T) {
	repo := versioning.NewRepository("b", versioning.RepositoryOptions{
		ReplanEvery:   -1,
		EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second},
	})
	ts := httptest.NewServer(New(repo, Options{}))
	t.Cleanup(ts.Close)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body struct {
		Build struct {
			GoVersion string `json:"go_version"`
		} `json:"build"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Build.GoVersion == "" {
		t.Fatal("healthz build info missing go_version")
	}
}

func mustPost(t *testing.T, url string, body any) {
	t.Helper()
	ok, status := tryPostJSON(url, body, nil)
	if !ok || status != http.StatusOK {
		t.Fatalf("POST %s: ok=%v status=%d", url, ok, status)
	}
}

func mustGet(t *testing.T, url string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
}
