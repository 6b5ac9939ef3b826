// Package trace is a lightweight, dependency-free request tracer for
// the dsv serving stack. A sampled request owns a trace: a tree of
// spans (ID, parent, name, start offset, duration, string attrs)
// collected in memory and handed to a bounded flight recorder when the
// root span ends. Spans propagate through context.Context, so
// instrumentation points deep in the stack (WAL fsync, store backend
// reads, tenant opens) attach to whatever request started above them
// without any plumbing through intermediate signatures.
//
// The disabled path is free: when a request is not sampled,
// StartRequest returns a nil *Span and the original context, StartSpan
// finds no span in the context and returns nil, and every method on a
// nil *Span is a no-op. None of those paths allocate, which is pinned
// by a testing.AllocsPerRun test.
//
// Distributed correlation uses two headers: a caller sends
// HeaderTrace ("X-DSV-Trace") with a trace ID (optionally
// "<id>/<parent-span>") to force sampling and join the server's spans
// to its own trace, and the server answers every traced request with
// HeaderTraceID ("X-DSV-Trace-Id") so callers can look the trace up in
// GET /tracez later.
package trace

import (
	"context"
	"math/rand/v2"
	"strconv"
	"strings"
	"sync"
	"time"
)

const (
	// HeaderTrace is the request header carrying an incoming trace ID,
	// formatted "<trace-id>" or "<trace-id>/<parent-span-id>". Its
	// presence forces the request to be traced regardless of the
	// server's sample rate.
	HeaderTrace = "X-DSV-Trace"
	// HeaderTraceID is the response header carrying the ID of the trace
	// that recorded the request, set only when the request was traced.
	HeaderTraceID = "X-DSV-Trace-Id"
)

// Options configures a Tracer.
type Options struct {
	// Sample is the fraction of requests traced when the caller did not
	// send HeaderTrace. 0 disables locally-initiated traces (forced
	// traces still record); 1 traces everything.
	Sample float64
}

// defaultMaxSpans caps spans recorded per trace; further spans are
// counted in TraceData.Dropped.
const defaultMaxSpans = 256

// Tracer decides sampling and owns the flight recorder. A nil *Tracer
// is valid and never samples.
type Tracer struct {
	sample   float64
	maxSpans int
	rec      *Recorder
}

// New builds a Tracer with its flight recorder: the last 512 traces
// plus the slowest per root name over a one-minute window.
func New(opt Options) *Tracer {
	return &Tracer{
		sample:   opt.Sample,
		maxSpans: defaultMaxSpans,
		rec:      newRecorder(defaultRecent, defaultWindow),
	}
}

// Recorder returns the tracer's flight recorder (nil for a nil tracer).
func (t *Tracer) Recorder() *Recorder {
	if t == nil {
		return nil
	}
	return t.rec
}

// ctxKey keys the current *Span in a context. The zero-size type keeps
// context lookups allocation-free.
type ctxKey struct{}

// activeTrace accumulates span data for one in-flight trace.
type activeTrace struct {
	rec      *Recorder
	maxSpans int

	id    string
	name  string
	start time.Time

	mu      sync.Mutex
	spans   []SpanData
	nextID  uint64
	dropped int
	done    bool
}

// Span is one timed region of a trace. A nil *Span is valid: every
// method no-ops, so call sites need no sampling checks.
type Span struct {
	at     *activeTrace
	id     uint64
	parent uint64
	name   string
	start  time.Time
	attrs  []Attr
}

// NewTraceID returns a fresh random trace identifier (16 hex chars).
func NewTraceID() string {
	return formatID(rand.Uint64())
}

func formatID(v uint64) string {
	var buf [16]byte
	const hex = "0123456789abcdef"
	for i := 15; i >= 0; i-- {
		buf[i] = hex[v&0xf]
		v >>= 4
	}
	return string(buf[:])
}

// StartRequest begins a new trace rooted at a request-level span, or
// returns (ctx, nil) untouched when the request is not sampled. The
// incoming value is the raw HeaderTrace header: when non-empty it
// forces sampling, adopts the caller's trace ID, and parents the root
// span under the caller's span ID.
func (t *Tracer) StartRequest(ctx context.Context, name, incoming string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if incoming == "" {
		if t.sample <= 0 || rand.Float64() >= t.sample {
			return ctx, nil
		}
	}
	id := ""
	var parent uint64
	if incoming != "" {
		id = incoming
		if i := strings.IndexByte(incoming, '/'); i >= 0 {
			id = incoming[:i]
			parent, _ = strconv.ParseUint(incoming[i+1:], 10, 64)
		}
		if id == "" || len(id) > 64 {
			id = NewTraceID()
		}
	} else {
		id = NewTraceID()
	}
	now := time.Now()
	at := &activeTrace{
		rec:      t.rec,
		maxSpans: t.maxSpans,
		id:       id,
		name:     name,
		start:    now,
		spans:    make([]SpanData, 0, 8),
		nextID:   1,
	}
	s := &Span{at: at, id: 1, parent: parent, name: name, start: now}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// StartSpan begins a child of the span carried by ctx. When ctx holds
// no span (request not sampled, or background work), it returns
// (ctx, nil) without allocating.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent, _ := ctx.Value(ctxKey{}).(*Span)
	if parent == nil {
		return ctx, nil
	}
	at := parent.at
	at.mu.Lock()
	if at.done {
		at.mu.Unlock()
		return ctx, nil
	}
	at.nextID++
	id := at.nextID
	at.mu.Unlock()
	s := &Span{at: at, id: id, parent: parent.id, name: name, start: time.Now()}
	return context.WithValue(ctx, ctxKey{}, s), s
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

// TraceID returns the ID of the trace this span belongs to ("" for nil).
func (s *Span) TraceID() string {
	if s == nil {
		return ""
	}
	return s.at.id
}

// Header renders the outgoing HeaderTrace value that joins a
// downstream server's spans to this trace: "<trace-id>/<span-id>".
func (s *Span) Header() string {
	if s == nil {
		return ""
	}
	return s.at.id + "/" + strconv.FormatUint(s.id, 10)
}

// SetAttr attaches a string attribute to the span.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
}

// SetAttrInt attaches an integer attribute to the span.
func (s *Span) SetAttrInt(key string, value int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, Attr{Key: key, Value: strconv.FormatInt(value, 10)})
}

// End finishes the span, recording it into the trace. Ending the root
// span finalizes the trace and hands it to the flight recorder; child
// spans ending after the root are dropped (counted in Dropped).
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	at := s.at
	at.mu.Lock()
	if at.done {
		at.mu.Unlock()
		return
	}
	if s.id != 1 && len(at.spans) >= at.maxSpans {
		at.dropped++
	} else {
		at.spans = append(at.spans, SpanData{
			ID:         s.id,
			Parent:     s.parent,
			Name:       s.name,
			StartUS:    float64(s.start.Sub(at.start)) / float64(time.Microsecond),
			DurationUS: float64(now.Sub(s.start)) / float64(time.Microsecond),
			Attrs:      s.attrs,
		})
	}
	if s.id != 1 {
		at.mu.Unlock()
		return
	}
	at.done = true
	td := TraceData{
		TraceID:    at.id,
		Name:       at.name,
		Start:      at.start,
		DurationUS: float64(now.Sub(at.start)) / float64(time.Microsecond),
		Spans:      at.spans,
		Dropped:    at.dropped,
	}
	at.mu.Unlock()
	if at.rec != nil {
		at.rec.add(td)
	}
}
