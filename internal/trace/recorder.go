// The flight recorder: a ring of the 512 most recently completed traces
// plus an always-retained set of tail outliers — the slowest trace per
// root name over the current and previous one-minute windows — so a
// burst of fast requests cannot flush the one slow commit an operator
// is hunting out of /tracez.
package trace

import (
	"sort"
	"sync"
	"time"
)

// Attr is one key/value annotation on a span.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanData is a completed span. StartUS is the offset from the trace
// start; durations are microseconds to match the rest of the repo's
// latency reporting.
type SpanData struct {
	ID         uint64  `json:"id"`
	Parent     uint64  `json:"parent,omitempty"`
	Name       string  `json:"name"`
	StartUS    float64 `json:"start_us"`
	DurationUS float64 `json:"duration_us"`
	Attrs      []Attr  `json:"attrs,omitempty"`
}

// TraceData is a completed trace: the root span's name and duration
// plus every recorded span (the root is span ID 1; spans appear in
// completion order).
type TraceData struct {
	TraceID    string     `json:"trace_id"`
	Name       string     `json:"name"`
	Start      time.Time  `json:"start"`
	DurationUS float64    `json:"duration_us"`
	Spans      []SpanData `json:"spans"`
	Dropped    int        `json:"dropped_spans,omitempty"`
}

// Snapshot is the JSON shape served by GET /tracez.
type Snapshot struct {
	// Recorded counts every trace handed to the recorder since start,
	// including ones the ring has since evicted.
	Recorded int64 `json:"recorded"`
	// Recent holds the ring contents, newest first.
	Recent []TraceData `json:"recent"`
	// Outliers holds the slowest trace per root name over the current
	// and previous retention windows, slowest first. A trace present in
	// Recent is not repeated here.
	Outliers []TraceData `json:"outliers,omitempty"`
}

const (
	defaultRecent  = 512
	defaultWindow  = time.Minute
	maxOutlierKeys = 64
)

// Recorder retains completed traces for /tracez and SIGQUIT dumps.
type Recorder struct {
	mu       sync.Mutex
	ring     []TraceData
	next     int
	filled   bool
	recorded int64

	window   time.Duration
	winStart time.Time
	cur      map[string]TraceData
	prev     map[string]TraceData
}

func newRecorder(recent int, window time.Duration) *Recorder {
	return &Recorder{
		ring:     make([]TraceData, recent),
		window:   window,
		winStart: time.Now(),
		cur:      make(map[string]TraceData),
	}
}

func (r *Recorder) add(td TraceData) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.recorded++
	r.ring[r.next] = td
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.filled = true
	}
	r.rollLocked(time.Now())
	if len(r.cur) < maxOutlierKeys || r.cur[td.Name].TraceID != "" {
		if cur, ok := r.cur[td.Name]; !ok || td.DurationUS > cur.DurationUS {
			r.cur[td.Name] = td
		}
	}
}

// rollLocked rotates the outlier windows when the current one expired.
func (r *Recorder) rollLocked(now time.Time) {
	if now.Sub(r.winStart) < r.window {
		return
	}
	r.prev = r.cur
	r.cur = make(map[string]TraceData)
	r.winStart = now
}

// Find returns the retained trace with the given ID, searching the
// ring and both outlier windows.
func (r *Recorder) Find(id string) (TraceData, bool) {
	if r == nil {
		return TraceData{}, false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.filled {
		n = len(r.ring)
	}
	for i := 0; i < n; i++ {
		if r.ring[i].TraceID == id {
			return r.ring[i], true
		}
	}
	for _, m := range []map[string]TraceData{r.cur, r.prev} {
		for _, td := range m {
			if td.TraceID == id {
				return td, true
			}
		}
	}
	return TraceData{}, false
}

// Snapshot copies the recorder contents. Safe for concurrent use with
// recording.
func (r *Recorder) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.rollLocked(time.Now())
	var snap Snapshot
	snap.Recorded = r.recorded
	n := r.next
	if r.filled {
		n = len(r.ring)
	}
	snap.Recent = make([]TraceData, 0, n)
	inRecent := make(map[string]bool, n)
	// Newest first: walk backwards from the slot before next.
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.ring)
		}
		snap.Recent = append(snap.Recent, r.ring[idx])
		inRecent[r.ring[idx].TraceID] = true
	}
	seen := make(map[string]bool)
	for _, m := range []map[string]TraceData{r.cur, r.prev} {
		for _, td := range m {
			if inRecent[td.TraceID] || seen[td.TraceID] {
				continue
			}
			seen[td.TraceID] = true
			snap.Outliers = append(snap.Outliers, td)
		}
	}
	sort.Slice(snap.Outliers, func(i, j int) bool {
		return snap.Outliers[i].DurationUS > snap.Outliers[j].DurationUS
	})
	return snap
}

// Recorded reports how many traces have been handed to the recorder
// since start (including ones the ring has evicted).
func (r *Recorder) Recorded() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.recorded
}
