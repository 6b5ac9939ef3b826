package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/store"
	"repro/internal/wire"
	"repro/versioning"
)

// slowBackend delays every Get so requests hold their admission slot
// long enough for tests to observe queueing and load shedding.
type slowBackend struct {
	store.Backend
	delay time.Duration
	gets  atomic.Int64
}

func (b *slowBackend) Get(k store.Key) ([]byte, error) {
	b.gets.Add(1)
	time.Sleep(b.delay)
	return b.Backend.Get(k)
}

// slowRepo builds a repository over a slow backend, preloaded with n
// distinct root versions (roots are materialized: one Get each) and no
// checkout cache, so every HTTP checkout really hits the backend.
func slowRepo(t *testing.T, n int, delay time.Duration) (*versioning.Repository, *slowBackend) {
	t.Helper()
	sb := &slowBackend{Backend: store.NewShardedMemBackend(0), delay: delay}
	repo := versioning.NewRepository("slow", versioning.RepositoryOptions{
		ReplanEvery:  -1,
		CacheEntries: -1,
		Backend:      sb,
	})
	for v := 0; v < n; v++ {
		if _, err := repo.Commit(context.Background(), versioning.NoParent,
			[]string{fmt.Sprintf("root %d", v)}); err != nil {
			t.Fatal(err)
		}
	}
	return repo, sb
}

func TestAdmissionShedsOverload(t *testing.T) {
	repo, _ := slowRepo(t, 8, 80*time.Millisecond)
	srv := New(repo, Options{MaxInFlight: 2, MaxQueue: 1, QueueWait: 10 * time.Millisecond, RetryAfter: 3 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const parallel = 12
	var ok, shed atomic.Int64
	var retryAfter atomic.Value
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/checkout/%d", ts.URL, i%8))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			switch resp.StatusCode {
			case http.StatusOK:
				ok.Add(1)
			case http.StatusTooManyRequests:
				shed.Add(1)
				retryAfter.Store(resp.Header.Get("Retry-After"))
			default:
				t.Errorf("request %d: unexpected HTTP %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	if ok.Load() == 0 || shed.Load() == 0 {
		t.Fatalf("want both successes and shed requests, got ok=%d shed=%d", ok.Load(), shed.Load())
	}
	ra, _ := retryAfter.Load().(string)
	if secs, err := strconv.Atoi(ra); err != nil || secs < 3 {
		t.Fatalf("Retry-After = %q, want >= 3 whole seconds", ra)
	}
	st := srv.StatszSnapshot()
	if st.Admission.Rejected != shed.Load() {
		t.Fatalf("admission stats rejected=%d, observed %d", st.Admission.Rejected, shed.Load())
	}
	if st.Admission.Capacity != 2 || st.Admission.Accepted == 0 {
		t.Fatalf("admission stats = %+v", st.Admission)
	}
	// Probes bypass the limiter even when serving slots exist or not.
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz under admission control: %v, %v", resp, err)
	}
	resp.Body.Close()
}

func TestAdmissionQueueAdmitsBurst(t *testing.T) {
	// With a deep queue and a generous wait, a burst larger than
	// MaxInFlight must fully succeed — the queue absorbs it.
	repo, _ := slowRepo(t, 4, 20*time.Millisecond)
	srv := New(repo, Options{MaxInFlight: 1, MaxQueue: 16, QueueWait: 5 * time.Second})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(fmt.Sprintf("%s/checkout/%d", ts.URL, i%4))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: HTTP %d", i, resp.StatusCode)
			}
		}(i)
	}
	wg.Wait()
	st := srv.StatszSnapshot()
	if st.Admission.Queued == 0 {
		t.Fatalf("expected queued admissions, stats = %+v", st.Admission)
	}
	if st.Admission.Rejected != 0 {
		t.Fatalf("burst within queue capacity was shed: %+v", st.Admission)
	}
}

// stampede fires n concurrent GETs of url, released together, and
// fails the test unless every one answers 200.
func stampede(t *testing.T, url string, n int) {
	t.Helper()
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, err := http.Get(url)
			if err != nil {
				t.Errorf("GET %s: %v", url, err)
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("GET %s: HTTP %d", url, resp.StatusCode)
			}
		}()
	}
	close(start)
	wg.Wait()
}

// TestCheckoutSingleflight: the handlers hold no flight of their own,
// so what keeps 16 identical requests from costing 16 backend reads is
// the store's (internal/flight), reported through the repository stats.
func TestCheckoutSingleflight(t *testing.T) {
	repo, sb := slowRepo(t, 1, 50*time.Millisecond)
	srv := New(repo, Options{MaxInFlight: -1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	before := sb.gets.Load()
	stampede(t, ts.URL+"/checkout/0", 16)
	st := srv.StatszSnapshot()
	ep := st.Endpoints["checkout"]
	if ep.Requests != 16 {
		t.Fatalf("checkout requests = %d, want 16", ep.Requests)
	}
	gets := sb.gets.Load() - before
	if gets >= 16 {
		t.Fatalf("backend saw %d gets for 16 identical requests", gets)
	}
	// Every request either read the backend, followed one that did, or
	// (once the first response was encoded) hit the response cache.
	if ep.Coalesced == 0 || ep.Coalesced != st.Repo.Coalesced || ep.Coalesced > 16-gets {
		t.Fatalf("coalesced = %d (repo %d) with %d backend gets", ep.Coalesced, st.Repo.Coalesced, gets)
	}
}

func TestStatszShape(t *testing.T) {
	ts := testServer(t, versioning.RepositoryOptions{ReplanEvery: 4})
	for v := 0; v < 6; v++ {
		parent := versioning.NodeID(v - 1)
		if code := postJSON(t, ts.URL+"/commit",
			wire.CommitRequest{Parent: &parent, Lines: []string{fmt.Sprintf("line %d", v)}}, nil); code != http.StatusOK {
			t.Fatalf("commit %d: HTTP %d", v, code)
		}
	}
	for v := 0; v < 6; v++ {
		if code := getJSON(t, fmt.Sprintf("%s/checkout/%d", ts.URL, v), nil); code != http.StatusOK {
			t.Fatalf("checkout %d: HTTP %d", v, code)
		}
	}
	getJSON(t, ts.URL+"/checkout/999", nil) // one error for the counter
	var st Statsz
	if code := getJSON(t, ts.URL+"/statsz", &st); code != http.StatusOK {
		t.Fatalf("/statsz: HTTP %d", code)
	}
	if st.UptimeSeconds <= 0 || st.Goroutines <= 0 || st.GoVersion == "" {
		t.Fatalf("statsz runtime fields = %+v", st)
	}
	co := st.Endpoints["checkout"]
	if co.Requests != 7 || co.Errors != 1 {
		t.Fatalf("checkout endpoint stats = %+v", co)
	}
	if co.Latency.Count != 7 || co.Latency.P50US <= 0 || co.Latency.MaxUS < co.Latency.P50US {
		t.Fatalf("checkout latency summary = %+v", co.Latency)
	}
	cm := st.Endpoints["commit"]
	if cm.Requests != 6 || cm.Errors != 0 || cm.Latency.Count != 6 {
		t.Fatalf("commit endpoint stats = %+v", cm)
	}
	if st.Repo.Versions != 6 {
		t.Fatalf("statsz repo stats = %+v", st.Repo)
	}
}
