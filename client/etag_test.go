package client

import (
	"context"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// TestClientValidatorCache drives the opt-in ETag cache against a real
// server: the first checkout of a version pays for the body, repeats
// revalidate and come back as bodyless 304s served from the cache.
func TestClientValidatorCache(t *testing.T) {
	leakCheck(t)
	ts, src, counts := liveServer(t, 8)

	var mu sync.Mutex
	var sizes []int64
	c := New(ts.URL, Options{
		ValidatorCacheBytes: 1 << 20,
		OnResponse: func(path string, n int64) {
			if strings.Contains(path, "/checkout") {
				mu.Lock()
				sizes = append(sizes, n)
				mu.Unlock()
			}
		},
	})
	defer c.Close()
	ctx := context.Background()

	for i := 0; i < 3; i++ {
		lines, err := c.Checkout(ctx, 5)
		if err != nil || !reflect.DeepEqual(lines, src.Contents[5]) {
			t.Fatalf("Checkout(5) round %d = %v, %v", i, lines, err)
		}
	}
	if got := c.Revalidated(); got != 2 {
		t.Fatalf("Revalidated = %d, want 2", got)
	}
	// Every round still makes one HTTP request — the validator saves the
	// body, not the round trip.
	if got := counts.single.Load(); got != 3 {
		t.Fatalf("single checkout requests = %d, want 3", got)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(sizes) != 3 || sizes[0] <= 0 || sizes[1] != 0 || sizes[2] != 0 {
		t.Fatalf("response sizes = %v, want [>0, 0, 0]", sizes)
	}
}

// TestClientValidatorCacheDisabled confirms the default client never
// sends validators: every checkout re-reads the full body.
func TestClientValidatorCacheDisabled(t *testing.T) {
	leakCheck(t)
	ts, src, _ := liveServer(t, 4)
	c := New(ts.URL, Options{})
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		lines, err := c.Checkout(ctx, 2)
		if err != nil || !reflect.DeepEqual(lines, src.Contents[2]) {
			t.Fatalf("Checkout(2) round %d = %v, %v", i, lines, err)
		}
	}
	if got := c.Revalidated(); got != 0 {
		t.Fatalf("Revalidated = %d, want 0 with the cache disabled", got)
	}
}

// TestClientOnResponseBytes checks the byte hook fires for non-checkout
// endpoints too, with the true wire size.
func TestClientOnResponseBytes(t *testing.T) {
	leakCheck(t)
	ts, _, _ := liveServer(t, 3)
	var mu sync.Mutex
	got := map[string]int64{}
	c := New(ts.URL, Options{
		OnResponse: func(path string, n int64) {
			mu.Lock()
			got[path] += n
			mu.Unlock()
		},
	})
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Commit(ctx, 2, []string{"x", "y"}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Checkout(ctx, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if got["/commit"] <= 0 {
		t.Fatalf("commit response bytes = %d, want > 0 (hook saw %v)", got["/commit"], got)
	}
	if got["/checkout/0"] <= 0 {
		t.Fatalf("checkout response bytes = %d, want > 0 (hook saw %v)", got["/checkout/0"], got)
	}
}
