package store

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/graph"
)

// TestContentCacheNil pins the disabled-cache contract: capEntries < 0
// returns nil, and every method on a nil cache is a safe no-op miss.
func TestContentCacheNil(t *testing.T) {
	c := newContentCache(-1, 0)
	if c != nil {
		t.Fatal("capEntries < 0 should return a nil cache")
	}
	c.put(1, []string{"a"})
	if _, ok := c.get(1); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.len() != 0 {
		t.Fatal("nil cache has nonzero len")
	}
	if st := c.stats(); st.Hits != 0 || st.Misses != 0 || st.Entries != 0 {
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
		c.put(graph.NodeID(i), []string{fmt.Sprintf("v%d", i)})
	}
	if got := c.len(); got != 256 {
		t.Fatalf("len = %d after 300 puts, want the 256 default entry cap", got)
	}
	if st := c.stats(); st.MaxBytes != defaultCacheBytes {
		t.Fatalf("MaxBytes = %d, want %d", st.MaxBytes, int64(defaultCacheBytes))
	}
}

// TestContentCacheByteBudget: a tight byte budget evicts in LRU order
// even when the entry cap is far away.
func TestContentCacheByteBudget(t *testing.T) {
	line := make([]byte, 100)
	for i := range line {
		line[i] = 'x'
	}
	entrySize := linesSize([]string{string(line)}) // 116 bytes
	c := newContentCache(1000, 3*entrySize)
	for v := 0; v < 3; v++ {
		c.put(graph.NodeID(v), []string{string(line)})
	}
	if c.len() != 3 {
		t.Fatalf("len = %d, want 3 residents within budget", c.len())
	}
	// Touch 0 and 2 so 1 is the LRU victim of a fourth version.
	c.get(0)
	c.get(2)
	c.put(3, []string{string(line)})
	if _, ok := c.get(3); !ok {
		t.Fatal("put into a full cache was not admitted")
	}
	if _, ok := c.get(1); ok {
		t.Fatal("LRU victim 1 survived an over-budget admission")
	}
	for _, v := range []graph.NodeID{0, 2} {
		if _, ok := c.get(v); !ok {
			t.Fatalf("recently touched version %d was evicted", v)
		}
	}
	if st := c.stats(); st.Bytes > st.MaxBytes {
		t.Fatalf("resident bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
}

// TestContentCacheConcurrent hammers get/put from many goroutines; the
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
				if lines, ok := c.get(v); ok {
					if len(lines) != 1 || lines[0] != cacheKey(v) {
						t.Errorf("version %d returned %q", v, lines)
						return
					}
				} else {
					c.put(v, []string{cacheKey(v)})
				}
			}
		}(w)
	}
	wg.Wait()
	if c.len() > 64 {
		t.Fatalf("len = %d, want <= 64", c.len())
	}
	st := c.stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("stats = %+v, want traffic on both counters", st)
	}
}
