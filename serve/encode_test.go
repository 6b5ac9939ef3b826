package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
	"time"

	"repro/internal/repogen"
	"repro/internal/wire"
	"repro/versioning"
)

// TestETagIsOfTheBodyAlone holds every resource that carries a validator
// to one tag and one body however the answer was produced: a
// response-cache miss, a hit, the cache off, a re-plan that moved the
// stored layout, and the repository closed and opened again from disk.
func TestETagIsOfTheBodyAlone(t *testing.T) {
	opt := versioning.RepositoryOptions{
		ReplanEvery:   -1, // the chain of commits stays the layout until Replan below
		Problem:       versioning.ProblemMSR,
		DataDir:       t.TempDir(),
		EngineOptions: versioning.EngineOptions{SolverTimeout: 10 * time.Second},
	}
	repo, err := versioning.Open("etag", opt)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { repo.Close() }()
	src := repogen.GenerateRepo("etag", 16, 5)
	for v := 0; v < src.Graph.N(); v++ {
		if _, err := repo.Commit(context.Background(), src.Parents[v], src.Contents[v]); err != nil {
			t.Fatal(err)
		}
	}

	paths := []string{"/checkout/0", "/checkout/9", "/checkout/15", "/diff/2/13", "/diff/7/7", "/log/15", "/log/15?limit=3"}
	type answer struct {
		etag string
		body []byte
	}
	want := map[string]answer{}
	// ask serves repo afresh, reads every path twice and holds both
	// answers to the first ever seen.
	ask := func(phase string, sopt Options, wantHits bool) {
		t.Helper()
		srv := New(repo, sopt)
		ts := httptest.NewServer(srv)
		defer ts.Close()
		for round := 0; round < 2; round++ {
			for _, p := range paths {
				resp, err := http.Get(ts.URL + p)
				if err != nil {
					t.Fatal(err)
				}
				body, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				got := answer{resp.Header.Get("ETag"), body}
				if resp.StatusCode != http.StatusOK || got.etag == "" {
					t.Fatalf("%s: GET %s: HTTP %d, ETag %q", phase, p, resp.StatusCode, got.etag)
				}
				if got.etag != bodyETag(body) {
					t.Fatalf("%s: GET %s: ETag %s, the body's is %s", phase, p, got.etag, bodyETag(body))
				}
				if first, ok := want[p]; !ok {
					want[p] = got
				} else if got.etag != first.etag || !bytes.Equal(got.body, first.body) {
					t.Fatalf("%s, round %d: GET %s: ETag %s and %d bytes, first answer had %s and %d bytes",
						phase, round, p, got.etag, len(got.body), first.etag, len(first.body))
				}
			}
		}
		if hits := srv.resp.Stats().Hits; (hits == int64(len(paths))) != wantHits {
			t.Fatalf("%s: %d response-cache hits over %d paths read twice", phase, hits, len(paths))
		}
	}
	ask("first", Options{}, true)
	ask("cache off", Options{RespCacheBytes: -1}, false)

	before := repo.Summary()
	if err := repo.Replan(context.Background()); err != nil {
		t.Fatal(err)
	}
	if after := repo.Summary(); reflect.DeepEqual(before.Materialized, after.Materialized) && reflect.DeepEqual(before.StoredDeltas, after.StoredDeltas) {
		t.Fatalf("the re-plan kept the stored layout (roots %v): this history no longer tests a plan change", after.Materialized)
	}
	ask("after re-plan", Options{}, true)
	ask("after re-plan, cache off", Options{RespCacheBytes: -1}, false)

	if err := repo.Close(); err != nil {
		t.Fatal(err)
	}
	if repo, err = versioning.Open("etag", opt); err != nil {
		t.Fatal(err)
	}
	ask("after reopen", Options{}, true)

	// The checkout body is what encoding/json writes for the message.
	var line bytes.Buffer
	if err := json.NewEncoder(&line).Encode(wire.Checkout{ID: 9, Lines: src.Contents[9]}); err != nil || !bytes.Equal(want["/checkout/9"].body, line.Bytes()) {
		t.Fatalf("GET /checkout/9 is not json.Encoder's body (%v)", err)
	}
}

// TestBodyETagTellsBodiesApart pins the tag's spelling — the quoted
// length and CRC-32C in hex — and that one changed byte, or one byte
// more or less, changes it.
func TestBodyETagTellsBodiesApart(t *testing.T) {
	body := []byte(`{"id":3,"lines":["a","b c",""]}` + "\n")
	tag := bodyETag(body)
	var n int
	var sum uint32
	if _, err := fmt.Sscanf(tag, `"%x-%x"`, &n, &sum); err != nil || n != len(body) || tag != fmt.Sprintf(`"%x-%x"`, n, sum) {
		t.Fatalf("bodyETag = %s for %d bytes (%v)", tag, len(body), err)
	}
	if again := bodyETag(bytes.Clone(body)); again != tag {
		t.Fatalf("same bytes, tags %s and %s", tag, again)
	}
	seen := map[string]string{tag: "the body"}
	distinct := func(what string, b []byte) {
		t.Helper()
		got := bodyETag(b)
		if other, dup := seen[got]; dup {
			t.Errorf("%s has the tag of %s, %s", what, other, got)
		}
		seen[got] = what
	}
	for i := range body {
		flipped := bytes.Clone(body)
		flipped[i] ^= 1
		distinct(fmt.Sprintf("byte %d flipped", i), flipped)
	}
	distinct("one byte less", body[:len(body)-1])
	distinct("one byte more", append(bytes.Clone(body), '\n'))
	// Bodies that differ in nothing but their length.
	distinct("no bytes", nil)
	distinct("one zero byte", make([]byte, 1))
	distinct("two zero bytes", make([]byte, 2))
}

// TestBatchBodyIsEncodingJSONs compares a batch checkout's body, failed
// items and lines that need escaping included, with what encoding/json
// writes for the same slice, and requires it to arrive under its length.
func TestBatchBodyIsEncodingJSONs(t *testing.T) {
	repo, ts := sentinelServer(t)
	lines := []string{"<tag> & \"quote\"", "tab\there", "plain", "café \u2028", ""}
	id, err := repo.Commit(context.Background(), 0, lines)
	if err != nil {
		t.Fatal(err)
	}
	root, err := repo.Checkout(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	_, unknown := repo.Checkout(context.Background(), 99)
	want := []wire.Checkout{
		{ID: id, Lines: lines},
		{ID: 99, Error: unknown.Error(), Status: http.StatusNotFound},
		{ID: 0, Lines: root},
	}
	resp, err := http.Post(ts.URL+"/checkout", "application/json", jsonBody(t, wire.BatchRequest{IDs: []versioning.NodeID{id, 99, 0}}))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	var line bytes.Buffer
	if err := json.NewEncoder(&line).Encode(want); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, line.Bytes()) {
		t.Fatalf("batch checkout: HTTP %d\n got  %s want %s", resp.StatusCode, body, line.Bytes())
	}
	if resp.ContentLength != int64(len(body)) || resp.Header.Get("ETag") != "" {
		t.Fatalf("batch checkout: Content-Length %d for %d bytes, ETag %q", resp.ContentLength, len(body), resp.Header.Get("ETag"))
	}
	// An empty request is an empty array, not null.
	var none []wire.Checkout
	if code := postJSON(t, ts.URL+"/checkout", wire.BatchRequest{}, &none); code != http.StatusOK || none == nil {
		t.Fatalf("empty batch: HTTP %d, %#v", code, none)
	}
}
