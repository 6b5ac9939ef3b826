package hotcache

import (
	"fmt"
	"sync"
	"testing"
)

func TestNilCacheIsAlwaysMiss(t *testing.T) {
	var c *Cache[string, int]
	if _, ok := c.Get("a"); ok {
		t.Fatal("nil cache returned a hit")
	}
	if c.Put("a", 1, 8) {
		t.Fatal("nil cache admitted a put")
	}
	if c.Len() != 0 || c.Stats() != (Stats{}) {
		t.Fatal("nil cache reported non-zero state")
	}
}

func TestDisabledBudgetReturnsNil(t *testing.T) {
	if New[string, int](0, 0) != nil || New[string, int](-1, 0) != nil {
		t.Fatal("non-positive budget must return the nil (disabled) cache")
	}
}

func TestAdmitFreelyUnderBudget(t *testing.T) {
	c := New[string, int](100, 0)
	for i := 0; i < 10; i++ {
		if !c.Put(fmt.Sprint(i), i, 10) {
			t.Fatalf("put %d rejected with budget headroom", i)
		}
	}
	if c.Len() != 10 {
		t.Fatalf("Len = %d, want 10", c.Len())
	}
	for i := 0; i < 10; i++ {
		if v, ok := c.Get(fmt.Sprint(i)); !ok || v != i {
			t.Fatalf("Get(%d) = %v, %v", i, v, ok)
		}
	}
}

// TestFirstTouchAdmittedWhenFull: a full cache takes a new key on its
// first put and evicts the least recently used entry for it.
func TestFirstTouchAdmittedWhenFull(t *testing.T) {
	c := New[string, int](100, 0)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprint(i), i, 10)
	}
	if !c.Put("new", 1, 10) {
		t.Fatal("put into a full cache rejected")
	}
	if _, ok := c.Get("0"); ok {
		t.Fatal("LRU entry survived an admission into a full cache")
	}
	if _, ok := c.Get("new"); !ok {
		t.Fatal("admitted entry missing")
	}
	st := c.Stats()
	if st.Rejected != 0 || st.Evictions != 1 || st.Entries != 10 {
		t.Fatalf("stats = %+v, want 0 rejections, 1 eviction, 10 entries", st)
	}
}

func TestUpdateExistingBypassesGate(t *testing.T) {
	c := New[string, int](100, 0)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprint(i), i, 10)
	}
	// Updating a resident key grows it in place.
	if !c.Put("5", 55, 20) {
		t.Fatal("update of resident key rejected")
	}
	if v, ok := c.Get("5"); !ok || v != 55 {
		t.Fatalf("updated value = %v, %v", v, ok)
	}
	// Growth pushed bytes to 110 > 100: the LRU entry must have gone.
	if st := c.Stats(); st.Bytes > 100 {
		t.Fatalf("bytes %d over budget after update", st.Bytes)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	c := New[string, int](30, 0)
	c.Put("a", 1, 10)
	c.Put("b", 2, 10)
	c.Put("c", 3, 10)
	c.Get("a") // refresh a: eviction order becomes b, c, a
	c.Put("d", 4, 10)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted first (LRU)")
	}
	for _, k := range []string{"a", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
}

func TestEntryCapEvicts(t *testing.T) {
	c := New[string, int](1<<20, 2)
	c.Put("a", 1, 1)
	c.Put("b", 2, 1)
	c.Put("c", 3, 1) // over the entry cap: evicts a
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("LRU entry a survived entry-cap eviction")
	}
}

// TestOversizedValueRejected: a value larger than the whole budget is
// refused and counted, whether its key is new or already cached, and no
// other entry is evicted for it; a cached key loses its stale value.
func TestOversizedValueRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		held []string // keys cached first, 10 bytes each
		key  string   // then put at 200 bytes, three times
		want Stats
	}{
		{name: "new key", key: "big", want: Stats{Rejected: 3}},
		{name: "cached key", held: []string{"a", "b"}, key: "a",
			want: Stats{Entries: 1, Bytes: 10, Rejected: 3}},
	} {
		c := New[string, int](100, 0)
		for _, k := range tc.held {
			c.Put(k, 0, 10)
		}
		for i := 0; i < 3; i++ {
			if c.Put(tc.key, 1, 200) {
				t.Fatalf("%s: value larger than the whole budget admitted", tc.name)
			}
		}
		st := c.Stats()
		st.MaxBytes, st.Hits, st.Misses = 0, 0, 0
		if st != tc.want {
			t.Fatalf("%s: stats = %+v, want %+v", tc.name, st, tc.want)
		}
		if _, ok := c.Get(tc.key); ok {
			t.Fatalf("%s: the refused key still serves a value", tc.name)
		}
	}
}

func TestConcurrentAccess(t *testing.T) {
	c := New[string, int](1<<16, 0)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				k := fmt.Sprint(i % 64)
				if i%3 == 0 {
					c.Put(k, i, int64(64+i%32))
				} else {
					c.Get(k)
				}
			}
		}(w)
	}
	wg.Wait()
	st := c.Stats()
	if st.Bytes > st.MaxBytes {
		t.Fatalf("bytes %d exceed budget %d", st.Bytes, st.MaxBytes)
	}
}
