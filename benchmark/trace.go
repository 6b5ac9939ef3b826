package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/store"
)

// Spans are recorded only by the wrappers in this file, at the four
// boundaries the benchmark can reach from outside the program: the
// client call (the driver loop), the HTTP round trip (an
// http.RoundTripper), the handler (an http.Handler around package
// serve) and the object backend (a store.Backend). Spans inside the
// program are ROADMAP item 1, not this benchmark's job.
const (
	layerClient  = "client"
	layerWire    = "roundtrip"
	layerHandler = "handler"
	layerBackend = "backend"
)

type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"` // 0 = root, or work no request caused (migrations, compaction)
	Op     uint64 `json:"op"`     // shared by every span of one client call; 0 = none
	Name   string `json:"name"`   // layer, e.g. "client", or layer.detail, e.g. "client.checkout", "backend.get"
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the part of the name before the first dot.
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// recorder keeps spans in memory until the run ends. A nil recorder, or
// one switched off, records nothing, which is how the same wrappers
// serve the untraced seconds of a traced run.
type recorder struct {
	on     atomic.Bool
	nextID atomic.Uint64
	epoch  time.Time

	mu    sync.Mutex
	spans []span

	// active holds the handler spans now running. store.Backend methods
	// take no context, so a backend call cannot name the request it
	// serves; it is charged to the running handler when there is exactly
	// one, which a single closed-loop client guarantees, and to no
	// request otherwise (as migrations and compaction always are).
	activeMu sync.Mutex
	active   []spanRef
}

func (r *recorder) enter(ref spanRef) {
	r.activeMu.Lock()
	r.active = append(r.active, ref)
	r.activeMu.Unlock()
}

func (r *recorder) leave(ref spanRef) {
	r.activeMu.Lock()
	r.active = slices.DeleteFunc(r.active, func(a spanRef) bool { return a == ref })
	r.activeMu.Unlock()
}

// sole returns the one running handler span, or the zero ref.
func (r *recorder) sole() spanRef {
	r.activeMu.Lock()
	defer r.activeMu.Unlock()
	if len(r.active) == 1 {
		return r.active[0]
	}
	return spanRef{}
}

type spanRef struct{ id, op uint64 }

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<18)}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

// begin opens a span; the returned func closes and stores it.
func (r *recorder) begin(name string, parent, op uint64) (id uint64, end func()) {
	id = r.nextID.Add(1)
	start := time.Since(r.epoch)
	return id, func() {
		r.add(span{ID: id, Parent: parent, Op: op, Name: name, Start: int64(start), End: int64(time.Since(r.epoch))})
	}
}

// beginOp opens the root span of a new op: its own id is the op id
// that every span it causes will carry.
func (r *recorder) beginOp(name string) (id uint64, end func()) {
	id = r.nextID.Add(1)
	start := time.Since(r.epoch)
	return id, func() { r.add(span{ID: id, Op: id, Name: name, Start: int64(start), End: int64(time.Since(r.epoch))}) }
}

func (r *recorder) add(s span) {
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

func (r *recorder) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(r.snapshot()); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

type ctxKey struct{}

func withSpan(ctx context.Context, ref spanRef) context.Context {
	return context.WithValue(ctx, ctxKey{}, ref)
}

const (
	headerOp   = "X-Bench-Op"
	headerSpan = "X-Bench-Span"
)

// tracedTransport records the round trip and hands the op and span ids
// to the server side in headers.
type tracedTransport struct {
	base http.RoundTripper
	rec  *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	// Whether an op is traced is decided once, when its client span
	// opens: a context that carries one is traced to the end even if the
	// recorder has been switched off meanwhile.
	ref, ok := req.Context().Value(ctxKey{}).(spanRef)
	if !ok {
		return t.base.RoundTrip(req)
	}
	id, end := t.rec.begin(layerWire, ref.id, ref.op)
	req = req.Clone(req.Context())
	req.Header.Set(headerOp, strconv.FormatUint(ref.op, 10))
	req.Header.Set(headerSpan, strconv.FormatUint(id, 10))
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		end()
		return nil, err
	}
	// The round trip ends when the body has been read, not when the
	// headers arrive: large checkouts spend most of their wire time there.
	resp.Body = &endOnClose{ReadCloser: resp.Body, end: end}
	return resp, nil
}

type endOnClose struct {
	io.ReadCloser
	end func()
}

func (e *endOnClose) Close() error {
	err := e.ReadCloser.Close()
	if e.end != nil {
		e.end()
		e.end = nil
	}
	return err
}

// tracedHandler records the handler span and registers it as running
// for the backend wrapper.
func tracedHandler(next http.Handler, rec *recorder) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, _ := strconv.ParseUint(r.Header.Get(headerOp), 10, 64)
		if op == 0 || rec == nil {
			next.ServeHTTP(w, r)
			return
		}
		parent, _ := strconv.ParseUint(r.Header.Get(headerSpan), 10, 64)
		id, end := rec.begin(layerHandler, parent, op)
		ref := spanRef{id: id, op: op}
		rec.enter(ref)
		defer func() {
			rec.leave(ref)
			end()
		}()
		next.ServeHTTP(w, r)
	})
}

// tracedBackend times and counts every object operation. It forwards
// the optional backend extensions the store looks for.
type tracedBackend struct {
	store.Backend
	rec *recorder

	gets, puts         atomic.Int64
	getBytes, putBytes atomic.Int64
}

func (b *tracedBackend) span(name string) func() {
	if b.rec == nil {
		return func() {}
	}
	ref := b.rec.sole()
	if ref == (spanRef{}) && !b.rec.enabled() {
		return func() {}
	}
	_, end := b.rec.begin(name, ref.id, ref.op)
	return end
}

func (b *tracedBackend) Get(k store.Key) ([]byte, error) {
	defer b.span(layerBackend + ".get")()
	data, err := b.Backend.Get(k)
	b.gets.Add(1)
	b.getBytes.Add(int64(len(data)))
	return data, err
}

func (b *tracedBackend) Put(k store.Key, data []byte) error {
	defer b.span(layerBackend + ".put")()
	b.puts.Add(1)
	b.putBytes.Add(int64(len(data)))
	return b.Backend.Put(k, data)
}

func (b *tracedBackend) PackStats() store.PackStats {
	if p, ok := b.Backend.(store.PackStatser); ok {
		return p.PackStats()
	}
	return store.PackStats{}
}

func (b *tracedBackend) Flush() error {
	if f, ok := b.Backend.(store.Flusher); ok {
		return f.Flush()
	}
	return nil
}

func (b *tracedBackend) Close() error {
	if c, ok := b.Backend.(store.Closer); ok {
		return c.Close()
	}
	return nil
}

// selfTimes returns, for every span, its duration minus the part of its
// interval that its children cover (overlapping children count once).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			from, to := max(k.Start, edge), min(k.End, s.End)
			if to > from {
				covered += to - from
				edge = to
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// opLayers sums, per op id, the self time of each layer's spans.
func opLayers(spans []span) map[uint64]map[string]int64 {
	self := selfTimes(spans)
	out := make(map[uint64]map[string]int64)
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		m := out[s.Op]
		if m == nil {
			m = make(map[string]int64)
			out[s.Op] = m
		}
		m[s.layer()] += self[s.ID]
	}
	return out
}
