// Package hotcache is the byte-accounted LRU shared by the serving
// stack. Both cache places call it directly with their own key and value
// types — the store maps a version id to its reconstructed lines, the
// HTTP layer a request key struct to its encoded response — so one
// budget abstraction governs every cached byte on the checkout fast
// path, and a probe neither renders its key nor asserts its value's
// type. Every put is admitted and the least recently used entries
// make room for it; only a value larger than the whole budget is turned
// away.
package hotcache

import (
	"container/list"
	"sync"
)

// Stats is a point-in-time traffic snapshot. The JSON tags are the keys
// of /statsz's resp_cache entry (serve.RespCacheStats).
type Stats struct {
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"`
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Rejected  int64 `json:"rejected"`  // puts larger than the whole byte budget
	Evictions int64 `json:"evictions"` // entries pushed out by the byte/entry budget
}

// Cache is a byte-bounded LRU. All methods are safe for concurrent use.
// A nil *Cache is valid and behaves as an always-miss cache, so callers
// can disable caching without branching.
type Cache[K comparable, V any] struct {
	mu         sync.Mutex
	maxBytes   int64
	maxEntries int // 0 = unbounded by count
	bytes      int64
	ll         *list.List // front = most recently used
	m          map[K]*list.Element

	hits, misses, rejected, evictions int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	size int64
}

// New returns a cache bounded by maxBytes (and, when maxEntries > 0, by
// entry count). maxBytes <= 0 returns nil: the disabled cache.
func New[K comparable, V any](maxBytes int64, maxEntries int) *Cache[K, V] {
	if maxBytes <= 0 {
		return nil
	}
	return &Cache[K, V]{
		maxBytes:   maxBytes,
		maxEntries: maxEntries,
		ll:         list.New(),
		m:          make(map[K]*list.Element),
	}
}

// Get returns the value cached under key, refreshing its recency.
func (c *Cache[K, V]) Get(key K) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses++
		return zero, false
	}
	c.hits++
	c.ll.MoveToFront(el)
	return el.Value.(*entry[K, V]).val, true
}

// Put caches (key, val) of the given size as the most recently used
// entry, evicting from the LRU end until both budgets hold. An existing
// key is updated in place. Returns whether the value is in the cache on
// return: false only for a value larger than the whole byte budget, which
// also drops the key's previous value and leaves every other entry be.
func (c *Cache[K, V]) Put(key K, val V, size int64) bool {
	if c == nil || size < 0 {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if size > c.maxBytes {
		// Larger than the whole budget: admitting would evict everything
		// and still not fit.
		if ok {
			c.remove(el)
		}
		c.rejected++
		return false
	}
	if ok {
		e := el.Value.(*entry[K, V])
		c.bytes += size - e.size
		e.val, e.size = val, size
		c.ll.MoveToFront(el)
		c.evictOver()
		return true
	}
	c.m[key] = c.ll.PushFront(&entry[K, V]{key: key, val: val, size: size})
	c.bytes += size
	c.evictOver()
	return true
}

// evictOver drops LRU entries until both budgets hold; c.mu must be held.
func (c *Cache[K, V]) evictOver() {
	for c.bytes > c.maxBytes || (c.maxEntries > 0 && c.ll.Len() > c.maxEntries) {
		el := c.ll.Back()
		if el == nil {
			return
		}
		c.remove(el)
		c.evictions++
	}
}

// remove unlinks el's entry; c.mu must be held.
func (c *Cache[K, V]) remove(el *list.Element) {
	e := el.Value.(*entry[K, V])
	c.ll.Remove(el)
	delete(c.m, e.key)
	c.bytes -= e.size
}

// Len reports the number of cached entries.
func (c *Cache[K, V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Stats snapshots the cache's traffic counters.
func (c *Cache[K, V]) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return Stats{
		Entries:   c.ll.Len(),
		Bytes:     c.bytes,
		MaxBytes:  c.maxBytes,
		Hits:      c.hits,
		Misses:    c.misses,
		Rejected:  c.rejected,
		Evictions: c.evictions,
	}
}
