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

// cachedResp is one encoded response: the exact bytes written to the
// wire and their strong validator.
type cachedResp struct {
	body []byte
	etag string // strong ETag: bodyETag(body)
}

// respKey names one cached response: the endpoint kind, the tenant
// namespace ("" in single-repo mode) and the parsed request — the
// version id in a, the other end of a diff or a log's limit in b, and a
// checkout's ?path= scope ("" = the whole version).
type respKey struct {
	kind, tenant string
	a, b         int64
	path         string
}

// Response-cache kinds: each cacheable endpoint owns one.
const (
	respKindCheckout = "co"   // GET /checkout/{a}?path={path}
	respKindDiff     = "diff" // GET /diff/{a}/{b}
	respKindLog      = "log"  // GET /log/{a}?limit={b}
)

// defaultRespCacheBytes bounds the encoded-response cache when the
// caller does not (Options.RespCacheBytes == 0).
const defaultRespCacheBytes = 64 << 20

// newRespCache returns the encoded-response cache with the given byte
// budget (0 = 64 MiB); nil — always miss — when maxBytes is negative.
// It holds fully assembled GET responses — checkouts, path-scoped
// checkouts, diffs and logs — as the encoded JSON wire bytes plus a
// strong ETag. Version content is immutable once committed, so every
// cached response is immutable too and entries never invalidate — only
// the byte budget evicts them. It runs on the same hotcache LRU as the
// store's content cache.
func newRespCache(maxBytes int64) *hotcache.Cache[respKey, *cachedResp] {
	if maxBytes == 0 {
		maxBytes = defaultRespCacheBytes
	}
	return hotcache.New[respKey, *cachedResp](maxBytes, 0)
}

// cachedRespOverhead approximates the per-entry bookkeeping cost (key,
// ETag string, entry struct) charged against the byte budget on top of
// the body itself.
const cachedRespOverhead = 128

// serveCached answers one of the immutable GETs under key. A hit skips
// the repository, the store and the encoder: a "cache.hit" span and
// writeEncoded. A miss asks build for the response value, then
// encodes, caches and writes it; a build error is the response instead.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key respKey, build func() (any, error)) {
	if e, ok := s.resp.Get(key); ok {
		_, sp := trace.StartSpan(r.Context(), "cache.hit")
		sp.End()
		s.writeEncoded(w, r, e)
		return
	}
	v, err := build()
	if err != nil {
		writeJSON(w, readErrStatus(r, err), errorResponse{Error: err.Error()})
		return
	}
	e, err := encodeResponse(r.Context(), v)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	s.resp.Put(key, e, int64(len(e.body))+cachedRespOverhead)
	s.writeEncoded(w, r, e)
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
