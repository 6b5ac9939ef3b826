package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"repro/internal/wire"
	"repro/tenant"
	"repro/versioning"
)

// respTestServer commits n versions and returns the test server plus
// the underlying *Server for cache introspection.
func respTestServer(t *testing.T, n int, opt Options) (*httptest.Server, *Server) {
	t.Helper()
	repo := versioning.NewRepository("resp", versioning.RepositoryOptions{
		ReplanEvery:   -1,
		EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second},
	})
	srv := New(repo, opt)
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	parent := versioning.NoParent
	lines := []string{"l0"}
	for i := 0; i < n; i++ {
		var cr wire.CommitResult
		if code := postJSON(t, ts.URL+"/commit", wire.CommitRequest{Parent: pid(parent), Lines: lines}, &cr); code != http.StatusOK {
			t.Fatalf("commit %d: HTTP %d", i, code)
		}
		parent = cr.ID
		lines = append(lines, "l"+strconv.Itoa(i+1))
	}
	return ts, srv
}

func TestCheckoutRespCacheHit(t *testing.T) {
	ts, srv := respTestServer(t, 4, Options{})
	var bodies [][]byte
	var etags []string
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/checkout/2")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("checkout: HTTP %d", resp.StatusCode)
		}
		if cl := resp.Header.Get("Content-Length"); cl != strconv.Itoa(len(body)) {
			t.Fatalf("Content-Length %q for %d body bytes", cl, len(body))
		}
		bodies = append(bodies, body)
		etags = append(etags, resp.Header.Get("ETag"))
	}
	for i := 1; i < 3; i++ {
		if string(bodies[i]) != string(bodies[0]) {
			t.Fatalf("response %d differs from first: %q vs %q", i, bodies[i], bodies[0])
		}
		if etags[i] != etags[0] || etags[i] == "" {
			t.Fatalf("ETag %d = %q, want stable %q", i, etags[i], etags[0])
		}
	}
	var co wire.Checkout
	if err := json.Unmarshal(bodies[0], &co); err != nil || co.ID != 2 || len(co.Lines) != 3 {
		t.Fatalf("cached body did not decode to version 2: %+v, %v", co, err)
	}
	cs := srv.resp.Stats()
	if cs.Hits < 2 || cs.Misses < 1 {
		t.Fatalf("resp cache stats = %+v, want >=2 hits and >=1 miss", cs)
	}
}

func TestCheckoutETagNotModified(t *testing.T) {
	ts, srv := respTestServer(t, 3, Options{})
	resp, err := http.Get(ts.URL + "/checkout/1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("checkout response missing ETag")
	}
	for _, inm := range []string{etag, "W/" + etag, `"stale", ` + etag, "*"} {
		req, _ := http.NewRequest("GET", ts.URL+"/checkout/1", nil)
		req.Header.Set("If-None-Match", inm)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotModified {
			t.Fatalf("If-None-Match %q: HTTP %d, want 304", inm, resp.StatusCode)
		}
		if len(body) != 0 {
			t.Fatalf("304 carried %d body bytes", len(body))
		}
		if resp.Header.Get("ETag") != etag {
			t.Fatalf("304 ETag = %q, want %q", resp.Header.Get("ETag"), etag)
		}
	}
	// A non-matching validator gets the full body.
	req, _ := http.NewRequest("GET", ts.URL+"/checkout/1", nil)
	req.Header.Set("If-None-Match", `"deadbeef"`)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK || len(body) == 0 {
		t.Fatalf("stale validator: HTTP %d with %d bytes, want 200 with body", resp2.StatusCode, len(body))
	}
	if got := srv.notModified.Load(); got != 4 {
		t.Fatalf("notModified counter = %d, want 4", got)
	}
}

func TestRespCacheDisabled(t *testing.T) {
	ts, srv := respTestServer(t, 2, Options{RespCacheBytes: -1})
	if srv.resp != nil {
		t.Fatal("negative RespCacheBytes did not disable the cache")
	}
	// Checkouts still work, still carry validators, still honor 304.
	resp, err := http.Get(ts.URL + "/checkout/1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("checkout: HTTP %d", resp.StatusCode)
	}
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("disabled cache dropped the ETag")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/checkout/1", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("If-None-Match on disabled cache: HTTP %d, want 304", resp2.StatusCode)
	}
	var sz Statsz
	if code := getJSON(t, ts.URL+"/statsz", &sz); code != http.StatusOK {
		t.Fatalf("statsz: HTTP %d", code)
	}
	if sz.RespCache != nil || sz.NotModified != 1 {
		t.Fatalf("statsz with the cache off: resp_cache %+v, not_modified %d, want none and 1", sz.RespCache, sz.NotModified)
	}
}

func TestRespCacheStatszAndMetricsz(t *testing.T) {
	ts, _ := respTestServer(t, 3, Options{})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/checkout/1")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	var sz Statsz
	if code := getJSON(t, ts.URL+"/statsz", &sz); code != http.StatusOK {
		t.Fatalf("statsz: HTTP %d", code)
	}
	if sz.RespCache == nil {
		t.Fatal("statsz missing resp_cache")
	}
	if sz.RespCache.Hits < 2 || sz.RespCache.Entries < 1 || sz.RespCache.Bytes <= 0 {
		t.Fatalf("statsz resp_cache = %+v, want hits/entries/bytes populated", sz.RespCache)
	}
	resp, err := http.Get(ts.URL + "/metricsz")
	if err != nil {
		t.Fatal(err)
	}
	expo, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"dsv_respcache_hits_total 2",
		"dsv_respcache_misses_total 1",
		"dsv_respcache_bytes",
		"dsv_checkout_not_modified_total",
	} {
		if !containsLine(string(expo), want) {
			t.Fatalf("metricsz missing %q", want)
		}
	}
}

// TestRespCacheStatszWireKeys pins resp_cache's JSON keys on the wire:
// decoding into Statsz would not notice a renamed or untagged field.
func TestRespCacheStatszWireKeys(t *testing.T) {
	ts, _ := respTestServer(t, 1, Options{})
	var raw map[string]any
	if code := getJSON(t, ts.URL+"/statsz", &raw); code != http.StatusOK {
		t.Fatalf("statsz: HTTP %d", code)
	}
	rc, ok := raw["resp_cache"].(map[string]any)
	if !ok {
		t.Fatalf("statsz resp_cache = %v, want an object", raw["resp_cache"])
	}
	want := []string{"entries", "bytes", "max_bytes", "hits", "misses", "rejected", "evictions"}
	for _, k := range want {
		if _, ok := rc[k]; !ok {
			t.Errorf("resp_cache lacks key %q", k)
		}
	}
	if len(rc) != len(want) {
		t.Errorf("resp_cache has %d keys %v, want exactly %v", len(rc), rc, want)
	}
}

// containsLine reports whether any exposition line starts with prefix.
func containsLine(expo, prefix string) bool {
	for len(expo) > 0 {
		line := expo
		if i := indexByte(expo, '\n'); i >= 0 {
			line, expo = expo[:i], expo[i+1:]
		} else {
			expo = ""
		}
		if len(line) >= len(prefix) && line[:len(prefix)] == prefix {
			return true
		}
	}
	return false
}

func indexByte(s string, b byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == b {
			return i
		}
	}
	return -1
}

func TestRespCacheTenantIsolation(t *testing.T) {
	// Two tenants with different content at the same version id must
	// not bleed into each other's cached responses.
	mgr := testManager(t, "", tenant.Options{})
	srv := NewMulti(mgr, Options{})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	for _, tn := range []string{"alice", "bob"} {
		var cr wire.CommitResult
		if code := postJSON(t, fmt.Sprintf("%s/t/%s/commit", ts.URL, tn),
			wire.CommitRequest{Lines: []string{"owned by " + tn}}, &cr); code != http.StatusOK {
			t.Fatalf("%s commit: HTTP %d", tn, code)
		}
	}
	for _, tn := range []string{"alice", "bob"} {
		for i := 0; i < 2; i++ { // second round hits the cache
			var co wire.Checkout
			if code := getJSON(t, fmt.Sprintf("%s/t/%s/checkout/0", ts.URL, tn), &co); code != http.StatusOK {
				t.Fatalf("%s checkout: HTTP %d", tn, code)
			}
			if len(co.Lines) != 1 || co.Lines[0] != "owned by "+tn {
				t.Fatalf("%s round %d got %q", tn, i, co.Lines)
			}
		}
	}
	if cs := srv.resp.Stats(); cs.Hits < 2 {
		t.Fatalf("resp cache stats = %+v, want >=2 hits across tenants", cs)
	}
}

// TestRespCacheProbeAllocatesNothing: a probe with the key a handler
// builds allocates nothing for checkout, path-scoped checkout, diff and
// log keys, at ids wide enough that a rendered key would have to be
// allocated.
func TestRespCacheProbeAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	ts, srv := respTestServer(t, 128, Options{})
	for _, tc := range []struct {
		url string
		key respKey
	}{
		{"/checkout/127", respKey{kind: respKindCheckout, a: 127}},
		{"/checkout/127?path=a", respKey{kind: respKindCheckout, a: 127, path: "a"}},
		{"/diff/100/127", respKey{kind: respKindDiff, a: 100, b: 127}},
		{"/log/127?limit=3", respKey{kind: respKindLog, a: 127, b: 3}},
	} {
		resp, err := http.Get(ts.URL + tc.url)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", tc.url, resp.StatusCode)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if _, ok := srv.resp.Get(tc.key); !ok {
				t.Fatalf("GET %s cached nothing under %+v", tc.url, tc.key)
			}
		})
		if allocs != 0 {
			t.Errorf("probe for GET %s allocated %.0f times, want 0", tc.url, allocs)
		}
	}
}

// TestRespCacheKeyIsParsedID: strconv.ParseInt takes "0", "00", "+0"
// and "-0" for one version, so the cache key must come from the parsed
// id, or every spelling holds its own copy of the body.
func TestRespCacheKeyIsParsedID(t *testing.T) {
	ts, srv := respTestServer(t, 2, Options{})
	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: HTTP %d", path, resp.StatusCode)
		}
		return resp.Header.Get("ETag")
	}
	// One entry and one miss per line; every later spelling is a hit.
	for _, spellings := range [][]string{
		{"/checkout/0", "/checkout/00", "/checkout/+0", "/checkout/-0", "/checkout/0"},
		{"/diff/0/1", "/diff/00/1", "/diff/+0/01"},
		{"/log/1", "/log/01?limit=0"},
		{"/checkout/0?path=a", "/checkout/00?path=a"}, // scoped: not the full body's entry
	} {
		before := srv.resp.Stats()
		etag := get(spellings[0])
		for _, path := range spellings[1:] {
			if got := get(path); got != etag || got == "" {
				t.Errorf("GET %s: ETag %q, want %q of %s", path, got, etag, spellings[0])
			}
		}
		after := srv.resp.Stats()
		entries, misses, hits := after.Entries-before.Entries, after.Misses-before.Misses, after.Hits-before.Hits
		if entries != 1 || misses != 1 || hits != int64(len(spellings)-1) {
			t.Errorf("%v: %d entries, %d misses, %d hits; want 1, 1, %d", spellings, entries, misses, hits, len(spellings)-1)
		}
	}
}
