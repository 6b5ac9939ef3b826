package trace

import (
	"context"
	"testing"
	"time"
)

// TestSpanTree pins the core lifecycle: a sampled request records a
// connected span tree with parents, attrs, and the root name, and
// hands it to the flight recorder when the root ends.
func TestSpanTree(t *testing.T) {
	tr := New(Options{Sample: 1})
	ctx, root := tr.StartRequest(context.Background(), "commit", "")
	if root == nil {
		t.Fatal("sample=1 request not sampled")
	}
	dctx, diff := StartSpan(ctx, "commit.diff")
	diff.SetAttr("kind", "forward")
	_, read := StartSpan(dctx, "store.read")
	read.SetAttrInt("deltas", 3)
	read.End()
	diff.End()
	_, fsync := StartSpan(ctx, "wal.fsync")
	fsync.End()
	root.SetAttrInt("status", 200)
	root.End()

	td, ok := tr.Recorder().Find(root.TraceID())
	if !ok {
		t.Fatalf("trace %s not in recorder", root.TraceID())
	}
	if td.Name != "commit" {
		t.Fatalf("trace name %q, want commit", td.Name)
	}
	byName := map[string]SpanData{}
	for _, sp := range td.Spans {
		byName[sp.Name] = sp
	}
	if len(byName) != 4 {
		t.Fatalf("recorded %d distinct spans, want 4: %+v", len(byName), td.Spans)
	}
	if byName["commit"].ID != 1 || byName["commit"].Parent != 0 {
		t.Fatalf("root span ids: %+v", byName["commit"])
	}
	if byName["commit.diff"].Parent != 1 {
		t.Fatalf("commit.diff parent %d, want 1 (root)", byName["commit.diff"].Parent)
	}
	if byName["store.read"].Parent != byName["commit.diff"].ID {
		t.Fatalf("store.read parent %d, want commit.diff id %d",
			byName["store.read"].Parent, byName["commit.diff"].ID)
	}
	if byName["wal.fsync"].Parent != 1 {
		t.Fatalf("wal.fsync parent %d, want 1", byName["wal.fsync"].Parent)
	}
	if got := byName["store.read"].Attrs; len(got) != 1 || got[0].Key != "deltas" || got[0].Value != "3" {
		t.Fatalf("store.read attrs %+v", got)
	}
}

// TestHeaderJoin pins the cross-process correlation contract: an
// incoming "<id>/<parent>" header forces sampling even at rate 0,
// adopts the caller's trace ID, and parents the server's root span
// under the caller's span.
func TestHeaderJoin(t *testing.T) {
	tr := New(Options{Sample: 0})
	if _, s := tr.StartRequest(context.Background(), "checkout", ""); s != nil {
		t.Fatal("sample=0 request without header was sampled")
	}
	ctx, root := tr.StartRequest(context.Background(), "checkout", "cafe0123cafe0123/7")
	if root == nil {
		t.Fatal("X-DSV-Trace header did not force sampling")
	}
	if got := root.TraceID(); got != "cafe0123cafe0123" {
		t.Fatalf("trace ID %q, want the caller's", got)
	}
	if got := root.Header(); got != "cafe0123cafe0123/1" {
		t.Fatalf("root Header() = %q", got)
	}
	_, child := StartSpan(ctx, "inner")
	child.End()
	root.End()
	td, ok := tr.Recorder().Find("cafe0123cafe0123")
	if !ok {
		t.Fatal("joined trace not recorded")
	}
	for _, sp := range td.Spans {
		if sp.ID == 1 && sp.Parent != 7 {
			t.Fatalf("root parent %d, want caller span 7", sp.Parent)
		}
	}
	// A bare ID (no slash) and a garbage parent both still trace.
	if _, s := tr.StartRequest(context.Background(), "x", "deadbeef"); s.TraceID() != "deadbeef" {
		t.Fatalf("bare header ID not adopted: %q", s.TraceID())
	}
}

// TestDisabledAllocationFree pins the package doc's promise: the
// unsampled/disabled paths allocate nothing.
func TestDisabledAllocationFree(t *testing.T) {
	ctx := context.Background()
	tr := New(Options{Sample: 0})
	var nilTracer *Tracer
	var nilSpan *Span
	cases := []struct {
		name string
		f    func()
	}{
		{"StartRequest unsampled", func() { tr.StartRequest(ctx, "op", "") }},
		{"StartRequest nil tracer", func() { nilTracer.StartRequest(ctx, "op", "") }},
		{"StartSpan no parent", func() { StartSpan(ctx, "op") }},
		{"FromContext empty", func() { FromContext(ctx) }},
		{"nil span methods", func() {
			nilSpan.SetAttr("k", "v")
			nilSpan.SetAttrInt("k", 1)
			nilSpan.End()
			_ = nilSpan.TraceID()
			_ = nilSpan.Header()
		}},
	}
	for _, tc := range cases {
		if allocs := testing.AllocsPerRun(100, tc.f); allocs != 0 {
			t.Errorf("%s: %.1f allocs/op, want 0", tc.name, allocs)
		}
	}
}

// TestMaxSpans: past the cap, child spans are counted, not stored.
func TestMaxSpans(t *testing.T) {
	tr := New(Options{Sample: 1})
	tr.maxSpans = 2
	ctx, root := tr.StartRequest(context.Background(), "r", "")
	for i := 0; i < 5; i++ {
		_, s := StartSpan(ctx, "child")
		s.End()
	}
	root.End()
	td, _ := tr.Recorder().Find(root.TraceID())
	// 2 children stored + the root (which is exempt from the cap).
	if len(td.Spans) != 3 || td.Dropped != 3 {
		t.Fatalf("spans %d dropped %d, want 3/3", len(td.Spans), td.Dropped)
	}
}

// TestEndAfterRoot: a child ending after the trace finalized must not
// mutate recorded data or panic; further root Ends are idempotent.
func TestEndAfterRoot(t *testing.T) {
	tr := New(Options{Sample: 1})
	ctx, root := tr.StartRequest(context.Background(), "r", "")
	_, late := StartSpan(ctx, "late")
	root.End()
	late.End()
	root.End()
	td, _ := tr.Recorder().Find(root.TraceID())
	if len(td.Spans) != 1 {
		t.Fatalf("late span leaked into finalized trace: %+v", td.Spans)
	}
	if _, s := StartSpan(ctx, "after"); s != nil {
		t.Fatal("StartSpan on a finalized trace returned a live span")
	}
}

// TestRecorderRing pins ring semantics: capacity bounds Recent, the
// snapshot is newest first, and Recorded counts evicted traces too.
func TestRecorderRing(t *testing.T) {
	tr := New(Options{Sample: 1})
	tr.rec = newRecorder(4, defaultWindow)
	var last string
	for i := 0; i < 10; i++ {
		_, root := tr.StartRequest(context.Background(), "op", "")
		root.End()
		last = root.TraceID()
	}
	snap := tr.Recorder().Snapshot()
	if snap.Recorded != 10 {
		t.Fatalf("Recorded = %d, want 10", snap.Recorded)
	}
	if len(snap.Recent) != 4 {
		t.Fatalf("Recent holds %d, want ring size 4", len(snap.Recent))
	}
	if snap.Recent[0].TraceID != last {
		t.Fatalf("Recent[0] = %s, want newest %s", snap.Recent[0].TraceID, last)
	}
}

// TestRecorderOutliers: the slowest trace per root name survives ring
// eviction and is findable by ID.
func TestRecorderOutliers(t *testing.T) {
	tr := New(Options{Sample: 1})
	tr.rec = newRecorder(2, time.Hour)
	_, slow := tr.StartRequest(context.Background(), "commit", "")
	time.Sleep(5 * time.Millisecond)
	slow.End()
	slowID := slow.TraceID()
	for i := 0; i < 5; i++ {
		_, fast := tr.StartRequest(context.Background(), "commit", "")
		fast.End()
	}
	snap := tr.Recorder().Snapshot()
	for _, td := range snap.Recent {
		if td.TraceID == slowID {
			t.Fatal("slow trace unexpectedly still in the ring; grow the eviction load")
		}
	}
	found := false
	for _, td := range snap.Outliers {
		if td.TraceID == slowID {
			found = true
		}
	}
	if !found {
		t.Fatalf("slow trace %s evicted without outlier retention: %+v", slowID, snap.Outliers)
	}
	if _, ok := tr.Recorder().Find(slowID); !ok {
		t.Fatal("Find missed the outlier-retained trace")
	}
}

// TestNilRecorder: nil-tracer accessors are safe.
func TestNilRecorder(t *testing.T) {
	var tr *Tracer
	if tr.Recorder() != nil {
		t.Fatal("nil tracer accessors")
	}
	var rec *Recorder
	if rec.Recorded() != 0 {
		t.Fatal("nil recorder Recorded")
	}
	if _, ok := rec.Find("x"); ok {
		t.Fatal("nil recorder Find")
	}
	if snap := rec.Snapshot(); len(snap.Recent) != 0 {
		t.Fatal("nil recorder Snapshot")
	}
}
