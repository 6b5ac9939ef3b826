package store

import (
	"strconv"

	"repro/internal/graph"
	"repro/internal/hotcache"
)

// contentCache caches reconstructed version contents. Version content is
// immutable once committed, so entries never need invalidation — not
// even across plan migrations — only eviction.
//
// It runs on the shared hotcache LRU, so the budget is byte-accounted
// (the serving layer's encoded-response cache uses the same engine and
// the same accounting).
//
// The engine's mutex is a leaf in the store's lock order: get/put/len
// never call back into the Store or the backend, so holding s.mu while
// probing the cache (the path-snapshot walk does) cannot invert, and no
// cache lock is ever held across singleflight waits or backend I/O.
type contentCache struct {
	hc *hotcache.Cache
}

// defaultCacheBytes bounds the content cache when the caller does not:
// 64 MiB of reconstructed lines, far above anything the default 256
// entries of ~20-line synthetic versions ever reached, so existing
// configurations keep their entry-cap behavior.
const defaultCacheBytes = 64 << 20

// newContentCache returns a cache holding at most capEntries versions
// (0 = 256) within a maxBytes budget (0 = 64 MiB); nil when capEntries
// < 0 (caching disabled — callers treat a nil cache as always-miss).
func newContentCache(capEntries int, maxBytes int64) *contentCache {
	if capEntries < 0 {
		return nil
	}
	if capEntries == 0 {
		capEntries = 256
	}
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	return &contentCache{hc: hotcache.New(maxBytes, capEntries)}
}

// cacheKey renders v for the string-keyed engine.
func cacheKey(v graph.NodeID) string { return strconv.FormatInt(int64(v), 10) }

// linesSize byte-accounts a content slice: the line bytes plus the
// string header overhead per line.
func linesSize(lines []string) int64 {
	n := int64(len(lines)) * 16
	for _, l := range lines {
		n += int64(len(l))
	}
	return n
}

func (c *contentCache) get(v graph.NodeID) ([]string, bool) {
	if c == nil {
		return nil, false
	}
	val, ok := c.hc.Get(cacheKey(v))
	if !ok {
		return nil, false
	}
	return val.([]string), true
}

func (c *contentCache) put(v graph.NodeID, lines []string) {
	if c == nil {
		return
	}
	c.hc.Put(cacheKey(v), lines, linesSize(lines))
}

func (c *contentCache) len() int {
	if c == nil {
		return 0
	}
	return c.hc.Len()
}

// stats exposes the engine's traffic counters (zero for a nil cache).
func (c *contentCache) stats() hotcache.Stats {
	if c == nil {
		return hotcache.Stats{}
	}
	return c.hc.Stats()
}
