package store

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestContentCacheNil pins the disabled-cache contract: capEntries < 0
// returns nil, and every method on the nil cache is a safe no-op miss.
func TestContentCacheNil(t *testing.T) {
	c := newContentCache(-1, 0)
	if c != nil {
		t.Fatal("capEntries < 0 should return a nil cache")
	}
	c.Put(1, []string{"a"}, 1)
	if _, ok := c.Get(1); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatal("nil cache has nonzero len")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("nil cache stats = %+v, want zero", st)
	}
}

// TestContentCacheDefaults: capEntries 0 maps to 256 entries, maxBytes
// 0 to the 64 MiB default, and both bounds are live.
func TestContentCacheDefaults(t *testing.T) {
	c := newContentCache(0, 0)
	if c == nil {
		t.Fatal("zero-value config should enable the cache")
	}
	for i := 0; i < 300; i++ {
		lines := []string{fmt.Sprintf("v%d", i)}
		c.Put(graph.NodeID(i), lines, linesSize(lines))
	}
	if got := c.Len(); got != 256 {
		t.Fatalf("len = %d after 300 puts, want the 256 default entry cap", got)
	}
	if st := c.Stats(); st.MaxBytes != defaultCacheBytes {
		t.Fatalf("MaxBytes = %d, want %d", st.MaxBytes, int64(defaultCacheBytes))
	}
}

// TestContentCacheByteBudget: a tight byte budget evicts in LRU order
// even when the entry cap is far away.
func TestContentCacheByteBudget(t *testing.T) {
	lines := []string{strings.Repeat("x", 100)}
	entrySize := linesSize(lines) // 116 bytes
	c := newContentCache(1000, 3*entrySize)
	for v := 0; v < 3; v++ {
		c.Put(graph.NodeID(v), lines, entrySize)
	}
	if c.Len() != 3 {
		t.Fatalf("len = %d, want 3 residents within budget", c.Len())
	}
	// Touch 0 and 2 so 1 is the LRU victim of a fourth version.
	c.Get(0)
	c.Get(2)
	c.Put(3, lines, entrySize)
	if _, ok := c.Get(3); !ok {
		t.Fatal("put into a full cache was not admitted")
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("LRU victim 1 survived an over-budget admission")
	}
	for _, v := range []graph.NodeID{0, 2} {
		if _, ok := c.Get(v); !ok {
			t.Fatalf("recently touched version %d was evicted", v)
		}
	}
	if st := c.Stats(); st.Bytes > st.MaxBytes {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
}

// TestContentCacheConcurrent hammers Get/Put from many goroutines; the
// race detector is the assertion.
func TestContentCacheConcurrent(t *testing.T) {
	c := newContentCache(64, 1<<20)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				v := graph.NodeID((w*31 + i) % 100)
				want := strconv.Itoa(int(v))
				if lines, ok := c.Get(v); ok {
					if len(lines) != 1 || lines[0] != want {
						t.Errorf("version %d returned %q", v, lines)
						return
					}
				} else {
					c.Put(v, []string{want}, linesSize([]string{want}))
				}
			}
		}(w)
	}
	wg.Wait()
	if c.Len() > 64 {
		t.Fatalf("len = %d, want <= 64", c.Len())
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v, want traffic on both counters", st)
	}
}
