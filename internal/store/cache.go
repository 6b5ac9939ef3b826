package store

import (
	"repro/internal/graph"
	"repro/internal/hotcache"
)

// defaultCacheBytes bounds the content cache when the caller does not:
// 64 MiB of reconstructed lines, far above anything the default 256
// entries of ~20-line synthetic versions ever reached, so existing
// configurations keep their entry-cap behavior.
const defaultCacheBytes = 64 << 20

// newContentCache returns the cache of reconstructed version contents,
// holding at most capEntries versions (0 = 256) within a maxBytes budget
// (0 = 64 MiB); nil when capEntries < 0 (caching disabled — a nil cache
// is always-miss). Version content is immutable once committed, so
// entries never need invalidation — not even across plan migrations —
// only eviction.
//
// The cache's mutex is a leaf in the store's lock order: it never calls
// back into the Store or the backend, so holding s.mu while probing the
// cache (the path-snapshot walk does) cannot invert, and no cache lock
// is ever held across flight waits or backend I/O.
func newContentCache(capEntries int, maxBytes int64) *hotcache.Cache[graph.NodeID, []string] {
	if capEntries < 0 {
		return nil
	}
	if capEntries == 0 {
		capEntries = 256
	}
	if maxBytes <= 0 {
		maxBytes = defaultCacheBytes
	}
	return hotcache.New[graph.NodeID, []string](maxBytes, capEntries)
}

// linesSize byte-accounts a content slice: the line bytes plus the
// string header overhead per line.
func linesSize(lines []string) int64 {
	n := int64(len(lines)) * 16
	for _, l := range lines {
		n += int64(len(l))
	}
	return n
}
