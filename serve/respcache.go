package serve

import (
	"context"
	"fmt"
	"hash/crc32"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/hotcache"
	"repro/internal/trace"
	"repro/internal/wire"
)

// respCache caches fully assembled GET responses — full checkouts,
// path-scoped checkouts, and diffs — as the encoded JSON wire bytes
// plus a strong ETag, keyed by (kind, tenant, request key). Version
// content is immutable once committed, so every cached response is
// immutable too and entries never invalidate — only the byte budget
// evicts them. On a hit the handler skips the repository, the store,
// and the JSON encoder entirely and answers with one Write (or a 304,
// if the client already holds the bytes).
//
// It runs on the same byte-accounted hotcache LRU as the store's content
// cache.
type respCache struct {
	hc *hotcache.Cache
}

// cachedResp is one encoded response: the exact bytes written to the
// wire and their strong validator.
type cachedResp struct {
	body []byte
	etag string // strong ETag: bodyETag(body)
}

// defaultRespCacheBytes bounds the encoded-response cache when the
// caller does not (Options.RespCacheBytes == 0).
const defaultRespCacheBytes = 64 << 20

// newRespCache returns a cache with the given byte budget (0 = 64 MiB);
// nil — always miss — when maxBytes is negative.
func newRespCache(maxBytes int64) *respCache {
	if maxBytes < 0 {
		return nil
	}
	if maxBytes == 0 {
		maxBytes = defaultRespCacheBytes
	}
	return &respCache{hc: hotcache.New(maxBytes, 0)}
}

// Response-cache kinds: each cacheable endpoint owns one, so a diff of
// versions (3, 4) and a checkout of version 3 with ?path=4 can never
// collide however their request keys are spelled.
const (
	respKindCheckout   = "co"   // GET /checkout/{id}; key = id
	respKindPathScoped = "cop"  // GET /checkout/{id}?path=p; key = id \x00 p
	respKindDiff       = "diff" // GET /diff/{a}/{b}; key = a \x00 b
	respKindLog        = "log"  // GET /log/{id}; key = id \x00 limit
)

// respKey scopes a request key to its endpoint kind and tenant
// namespace ("" in single-repo mode). NUL cannot appear in a tenant
// name or a kind, so keys cannot collide across namespaces or kinds.
func respKey(kind, tenant, key string) string {
	return kind + "\x00" + tenant + "\x00" + key
}

func (c *respCache) get(kind, tenant, key string) (*cachedResp, bool) {
	if c == nil {
		return nil, false
	}
	v, ok := c.hc.Get(respKey(kind, tenant, key))
	if !ok {
		return nil, false
	}
	return v.(*cachedResp), true
}

// cachedRespOverhead approximates the per-entry bookkeeping cost (key,
// ETag string, entry struct) charged against the byte budget on top of
// the body itself.
const cachedRespOverhead = 128

func (c *respCache) put(kind, tenant, key string, e *cachedResp) {
	if c == nil {
		return
	}
	c.hc.Put(respKey(kind, tenant, key), e, int64(len(e.body))+cachedRespOverhead)
}

func (c *respCache) stats() hotcache.Stats {
	if c == nil {
		return hotcache.Stats{}
	}
	return c.hc.Stats()
}

// encodeBody returns v as json.Encoder writes it, newline included,
// through wire.Encode: a body that carries line arrays is appended once
// into its final buffer, without reflection.
func encodeBody(v any) ([]byte, error) {
	body, err := wire.Encode(v)
	return append(body, '\n'), err
}

// encodeResponse assembles v's wire form once: the JSON body and its
// strong ETag, under a "response.encode" span when ctx's request is
// traced.
func encodeResponse(ctx context.Context, v any) (*cachedResp, error) {
	_, sp := trace.StartSpan(ctx, "response.encode")
	defer sp.End()
	body, err := encodeBody(v)
	if err != nil {
		return nil, err
	}
	return &cachedResp{body: body, etag: bodyETag(body)}, nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// bodyETag is a body's validator: its length and its CRC-32C, in hex.
// Every resource that carries one is immutable per URL — the response
// cache is keyed on that — so the tag has to tell one repository from
// another behind the same URL, not resist an adversary; and derived
// from the bytes alone it is the same after a re-plan, a restart or a
// tenant's eviction.
func bodyETag(body []byte) string {
	return fmt.Sprintf(`"%x-%x"`, len(body), crc32.Checksum(body, castagnoli))
}

// etagMatch reports whether an If-None-Match header value matches etag.
// Weak validators compare equal to their strong form: the tag is
// computed from the body's bytes, which are the same every time the
// resource is encoded, so a weak match is as good as a strong one.
func etagMatch(header, etag string) bool {
	for _, cand := range strings.Split(header, ",") {
		cand = strings.TrimPrefix(strings.TrimSpace(cand), "W/")
		if cand == "*" || cand == etag {
			return true
		}
	}
	return false
}

// writeEncoded answers with e: a 304 when the client's validator
// matches (no body bytes move), otherwise the pre-encoded body in a
// single Write with an exact Content-Length.
func (s *Server) writeEncoded(w http.ResponseWriter, r *http.Request, e *cachedResp) {
	w.Header().Set("ETag", e.etag)
	if inm := r.Header.Get("If-None-Match"); inm != "" && etagMatch(inm, e.etag) {
		s.notModified.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	writeBody(w, e.body)
}

// writeBody answers 200 with an encoded body, in a single Write under an
// exact Content-Length.
func writeBody(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
}
