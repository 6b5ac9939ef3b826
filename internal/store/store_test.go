package store

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/diff"
	"repro/internal/graph"
	"repro/internal/plan"
	"repro/internal/repogen"
)

func TestBlobCodecRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{},
		{""},
		{"", "", ""},
		{"hello", "world"},
		{"line with \n newline", "tabs\tand\x00nuls", "ünïcödé — δ"},
	}
	for _, lines := range cases {
		got, err := DecodeBlob(EncodeBlob(lines))
		if err != nil {
			t.Fatalf("DecodeBlob(%q): %v", lines, err)
		}
		if len(got) != len(lines) {
			t.Fatalf("round-trip %q -> %q", lines, got)
		}
		for i := range lines {
			if got[i] != lines[i] {
				t.Fatalf("round-trip %q -> %q", lines, got)
			}
		}
	}
}

func TestDeltaCodecRoundTrip(t *testing.T) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"a", "x", "c", "y", "z"}
	d := diff.Compute(a, b)
	got, err := DecodeDelta(EncodeDelta(d))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round-trip %+v -> %+v", d, got)
	}
	applied, err := got.Apply(a)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(applied, b) {
		t.Fatalf("decoded delta applies to %q, want %q", applied, b)
	}
	if _, err := DecodeDelta(EncodeBlob([]string{"x"})); err == nil {
		t.Fatal("decodeDelta accepted a blob payload")
	}
	if _, err := DecodeBlob(EncodeDelta(d)); err == nil {
		t.Fatal("decodeBlob accepted a delta payload")
	}
	if _, err := DecodeBlob(EncodeBlob([]string{"x"})[:3]); err == nil {
		t.Fatal("decodeBlob accepted a truncated payload")
	}
}

func TestMemBackend(t *testing.T) {
	m := NewMemBackend()
	k := KeyOf([]byte("payload"))
	if _, err := m.Get(k); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get missing: %v, want ErrNotFound", err)
	}
	if err := m.Put(k, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := m.Put(k, []byte("payload")); err != nil { // idempotent
		t.Fatal(err)
	}
	got, err := m.Get(k)
	if err != nil || string(got) != "payload" {
		t.Fatalf("Get = %q, %v", got, err)
	}
	if st := m.Stats(); st.Objects != 1 || st.Bytes != 7 {
		t.Fatalf("Stats = %+v", st)
	}
	if err := m.Delete(k); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete(k); err != nil { // absent delete is a no-op
		t.Fatal(err)
	}
	if st := m.Stats(); st.Objects != 0 || st.Bytes != 0 {
		t.Fatalf("Stats after delete = %+v", st)
	}
}

// testRepo builds a content-backed repository and a content func over it.
func testRepo(t *testing.T, commits int, seed int64) (*repogen.Repo, ContentFunc) {
	t.Helper()
	r := repogen.GenerateRepo("store-test", commits, seed)
	return r, func(v graph.NodeID) ([]string, error) { return r.Contents[v], nil }
}

// checkAll asserts every version reconstructs byte for byte.
func checkAll(t *testing.T, s *Store, contents [][]string) {
	t.Helper()
	for v, want := range contents {
		got, err := s.Checkout(t.Context(), graph.NodeID(v))
		if err != nil {
			t.Fatalf("Checkout(%d): %v", v, err)
		}
		if !slices.Equal(got, want) {
			t.Fatalf("Checkout(%d) content mismatch", v)
		}
	}
}

func TestInstallCheckoutRoundTrip(t *testing.T) {
	r, content := testRepo(t, 40, 7)
	s := New(Options{})
	mst, err := core.MST(context.Background(), r.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Install(r.Graph, mst.Plan, content); err != nil {
		t.Fatal(err)
	}
	checkAll(t, s, r.Contents)
	st := s.Stats()
	if st.Blobs == 0 || st.StoredDeltas == 0 || st.Versions != r.Graph.N() {
		t.Fatalf("Stats = %+v", st)
	}
}

func TestInstallRejectsInfeasiblePlan(t *testing.T) {
	r, content := testRepo(t, 5, 3)
	s := New(Options{})
	if err := s.Install(r.Graph, plan.New(r.Graph), content); err == nil {
		t.Fatal("Install accepted a plan with no materialized versions")
	}
	empty := graph.New("other")
	if err := s.Install(empty, plan.MaterializeAll(r.Graph), content); err == nil {
		t.Fatal("Install accepted a shape-mismatched plan")
	}
}

func TestMigrationGarbageCollects(t *testing.T) {
	r, content := testRepo(t, 30, 11)
	s := New(Options{})
	mst, err := core.MST(context.Background(), r.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Install(r.Graph, mst.Plan, content); err != nil {
		t.Fatal(err)
	}
	withDeltas := s.Stats()
	if withDeltas.StoredDeltas == 0 {
		t.Fatal("MST plan stored no deltas")
	}

	// Migrate to materialize-all, feeding content from the store itself
	// (the live-migration path). All delta objects must be collected.
	if err := s.Install(r.Graph, plan.MaterializeAll(r.Graph), func(v graph.NodeID) ([]string, error) {
		return s.Checkout(t.Context(), v)
	}); err != nil {
		t.Fatal(err)
	}
	checkAll(t, s, r.Contents)
	full := s.Stats()
	if full.StoredDeltas != 0 {
		t.Fatalf("materialize-all left %d delta objects", full.StoredDeltas)
	}
	// Expected object count: replay every content through the same write
	// path (chunked or whole) and count distinct keys.
	distinct := make(map[Key]bool)
	for _, c := range r.Contents {
		if _, err := putBlobObject(c, func(payload []byte) (Key, error) {
			k := KeyOf(payload)
			distinct[k] = true
			return k, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if full.Objects != len(distinct) {
		t.Fatalf("backend holds %d objects, want %d distinct blob objects", full.Objects, len(distinct))
	}

	// And back again: blobs the MST plan does not materialize must go.
	if err := s.Install(r.Graph, mst.Plan, func(v graph.NodeID) ([]string, error) {
		return s.Checkout(t.Context(), v)
	}); err != nil {
		t.Fatal(err)
	}
	checkAll(t, s, r.Contents)
	back := s.Stats()
	if back.Blobs != withDeltas.Blobs || back.StoredDeltas != withDeltas.StoredDeltas {
		t.Fatalf("after round-trip migration Stats = %+v, want blobs/deltas %d/%d",
			back, withDeltas.Blobs, withDeltas.StoredDeltas)
	}
}

func TestContentDeduplication(t *testing.T) {
	// Two versions with identical content share one blob object.
	g := graph.New("dedup")
	lines := []string{"same", "content"}
	g.AddNode(diff.ByteSize(lines))
	g.AddNode(diff.ByteSize(lines))
	p := plan.MaterializeAll(g)
	s := New(Options{})
	if err := s.Install(g, p, func(graph.NodeID) ([]string, error) { return lines, nil }); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.Objects != 1 || st.Blobs != 2 {
		t.Fatalf("Stats = %+v, want 1 object backing 2 blobs", st)
	}
}

// TestCorruptObjectsRejectedNotPanic feeds adversarially corrupt
// payloads (huge varint counts that would overflow length math or
// preallocation) into every decoder: they must return ErrBadObject, not
// panic — a bit-rotted disk object must never crash the daemon.
func TestCorruptObjectsRejectedNotPanic(t *testing.T) {
	huge := []byte{0xfe, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01} // ~2^64-2
	cases := map[string][]byte{
		"blob-huge-count":     append([]byte{tagBlob}, huge...),
		"chunk-huge-count":    append([]byte{tagChunk}, huge...),
		"delta-huge-count":    append([]byte{tagDelta}, huge...),
		"manifest-huge-total": append([]byte{tagManifest}, huge...),
		"manifest-huge-keys":  append(append([]byte{tagManifest}, 0x01), huge...),
		"blob-varint-over-64": append([]byte{tagBlob}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02),
		"blob-varint-11-long": append([]byte{tagBlob}, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01),
		"blob-varint-cut":     {tagBlob, 0x80},
		"delta-line-cut":      {tagDelta, 0x01, byte(diff.OpInsert), 0x00, 0x01, 0x05, 'a', 'b'},
		// A keep count past MaxInt would decode to a negative N.
		"delta-keep-past-maxint": append(binary.AppendUvarint([]byte{tagDelta, 0x01, byte(diff.OpKeep)}, 1<<63+5), 0x00),
		// A padded varint decodes to an object that encodes to other bytes.
		"delta-padded-count": {tagDelta, 0x80, 0x00},
		"blob-padded-length": {tagBlob, 0x01, 0x81, 0x00, 'a'},
	}
	for name, payload := range cases {
		t.Run(name, func(t *testing.T) {
			var err error
			switch payload[0] {
			case tagBlob:
				_, err = DecodeBlob(payload)
			case tagChunk:
				_, err = appendChunk(nil, payload)
			case tagDelta:
				_, err = DecodeDelta(payload)
			case tagManifest:
				_, _, err = decodeManifest(payload)
			}
			if !errors.Is(err, ErrBadObject) {
				t.Fatalf("corrupt payload decoded to %v, want ErrBadObject", err)
			}
		})
	}
}

// TestDecodeAllocatesPerObjectNotPerLine pins the codec's read side:
// an object's lines are substrings of one string, so decoding it
// allocates the same number of objects whatever its line count.
func TestDecodeAllocatesPerObjectNotPerLine(t *testing.T) {
	for _, n := range []int{8, 128, 4000} {
		lines := bigLines(n, "alloc")
		blob, chunk := EncodeBlob(lines), encodeChunk(lines)
		delta := EncodeDelta(diff.Delta{Cmds: []diff.Cmd{{Op: diff.OpKeep, N: 3}, {Op: diff.OpInsert, Lines: lines}}})
		for name, decode := range map[string]func() error{
			"blob":  func() error { _, err := DecodeBlob(blob); return err },
			"chunk": func() error { _, err := appendChunk(nil, chunk); return err },
			"delta": func() error { _, err := DecodeDelta(delta); return err },
		} {
			got := testing.AllocsPerRun(10, func() {
				if err := decode(); err != nil {
					t.Fatal(err)
				}
			})
			// The payload's string and the []string, and a delta's commands.
			want := 2.0
			if name == "delta" {
				want = 3
			}
			if got > want {
				t.Errorf("%s of %d lines: %v allocations, want at most %v", name, n, got, want)
			}
		}
	}
}

// bigLines builds n distinct deterministic lines.
func bigLines(n int, tag string) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%s-line-%04d-padding-padding", tag, i)
	}
	return lines
}

// TestChunkedBlobRoundTrip pins the manifest+chunk write/read path for
// contents above the chunking threshold.
func TestChunkedBlobRoundTrip(t *testing.T) {
	lines := bigLines(400, "chunked")
	s := New(Options{CacheEntries: -1})
	if err := s.AddMaterialized(0, lines); err != nil {
		t.Fatal(err)
	}
	got, err := s.Checkout(t.Context(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, lines) {
		t.Fatal("chunked blob did not round-trip")
	}
	if st := s.Stats(); st.Objects < 3 {
		t.Fatalf("Stats = %+v, want a manifest plus at least two chunks", st)
	}
}

// TestChunkedBlobDedup is the chunk-level dedup property: two large
// materialized versions differing in one line share all chunk objects
// except the ones straddling the edit.
func TestChunkedBlobDedup(t *testing.T) {
	base := bigLines(400, "dedup")
	edited := append([]string(nil), base...)
	edited[200] = "edited-line"

	standalone := func(lines []string) int64 {
		s := New(Options{})
		if err := s.AddMaterialized(0, lines); err != nil {
			t.Fatal(err)
		}
		return s.Stats().StoredBytes
	}
	sum := standalone(base) + standalone(edited)

	s := New(Options{CacheEntries: -1})
	if err := s.AddMaterialized(0, base); err != nil {
		t.Fatal(err)
	}
	if err := s.AddMaterialized(1, edited); err != nil {
		t.Fatal(err)
	}
	for v, want := range [][]string{base, edited} {
		got, err := s.Checkout(t.Context(), graph.NodeID(v))
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Checkout(%d): %v", v, err)
		}
	}
	combined := s.Stats().StoredBytes
	if combined >= sum*3/4 {
		t.Fatalf("chunk dedup saved too little: %d combined vs %d standalone", combined, sum)
	}
}

// TestSweepOrphans verifies the startup sweep removes exactly the
// objects the installed plan does not reference.
func TestSweepOrphans(t *testing.T) {
	b := NewShardedMemBackend(4)
	s := New(Options{Backend: b, CacheEntries: -1})
	lines := []string{"kept", "content"}
	if err := s.AddMaterialized(0, lines); err != nil {
		t.Fatal(err)
	}
	// Strand two objects, as a crash between a migration's swap and its
	// GC sweep would.
	for _, orphan := range [][]byte{[]byte("orphan-a"), []byte("orphan-b")} {
		if err := b.Put(KeyOf(orphan), orphan); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.SweepOrphans()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 2 {
		t.Fatalf("SweepOrphans removed %d objects, want 2", removed)
	}
	got, err := s.Checkout(t.Context(), 0)
	if err != nil || !reflect.DeepEqual(got, lines) {
		t.Fatalf("referenced object swept: %v, %v", got, err)
	}
	if n := b.Len(); n != 1 {
		t.Fatalf("backend holds %d objects after sweep, want 1", n)
	}
}

func TestIncrementalAdds(t *testing.T) {
	s := New(Options{CacheEntries: -1})
	v0 := []string{"alpha", "beta"}
	v1 := []string{"alpha", "gamma"}
	v2 := []string{"alpha", "gamma", "delta"}
	if err := s.AddMaterialized(0, v0); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersion(1, 0, 0, diff.Compute(v0, v1), v1); err != nil {
		t.Fatal(err)
	}
	if err := s.AddVersion(2, 1, 2, diff.Compute(v1, v2), v2); err != nil {
		t.Fatal(err)
	}
	for i, want := range [][]string{v0, v1, v2} {
		got, err := s.Checkout(t.Context(), graph.NodeID(i))
		if err != nil {
			t.Fatalf("Checkout(%d): %v", i, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Checkout(%d) = %q, want %q", i, got, want)
		}
	}
	if err := s.AddMaterialized(5, v0); err == nil {
		t.Fatal("out-of-order AddMaterialized accepted")
	}
	if err := s.AddVersion(3, 9, 3, diff.Delta{}, nil); err == nil {
		t.Fatal("AddVersion from unknown parent accepted")
	}
	if err := s.AddVersion(3, 0, 0, diff.Delta{}, v0); err == nil {
		t.Fatal("AddVersion reusing a stored delta id accepted")
	}
}
