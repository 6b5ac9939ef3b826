package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"repro/internal/diff"
)

// FuzzDecodeDelta holds the delta codec, which stored objects and journal
// records share, to one of two outcomes for any bytes: decoding fails
// with ErrBadObject, or the bytes decode to a delta that encodes back to
// the same bytes and whose Apply to any source returns lines or
// ErrBadDelta, never a panic. The source is the second input split at
// newlines.
func FuzzDecodeDelta(f *testing.F) {
	a := []string{"a", "b", "c", "d"}
	b := []string{"a", "x", "c", "d", "e"}
	f.Add(EncodeDelta(diff.Compute(a, b)), strings.Join(a, "\n"))
	f.Add(EncodeDelta(diff.Compute(b, nil)), strings.Join(a, "\n"))
	f.Add(EncodeDelta(diff.Delta{}), "")
	// A keep count past MaxInt, which once decoded to a negative N and
	// panicked Apply.
	f.Add(append(binary.AppendUvarint([]byte{tagDelta, 0x01, byte(diff.OpKeep)}, 1<<63+5), 0x00), "a\nb")
	f.Add([]byte{tagDelta, 0x80, 0x00}, "")
	f.Fuzz(func(t *testing.T, payload []byte, source string) {
		d, err := DecodeDelta(payload)
		if err != nil {
			if !errors.Is(err, ErrBadObject) {
				t.Fatalf("DecodeDelta(%x): %v, want ErrBadObject", payload, err)
			}
			return
		}
		if got := EncodeDelta(d); !bytes.Equal(got, payload) {
			t.Fatalf("DecodeDelta(%x) re-encodes to %x", payload, got)
		}
		var src []string
		if source != "" {
			src = strings.Split(source, "\n")
		}
		if _, err := d.Apply(src); err != nil && !errors.Is(err, diff.ErrBadDelta) {
			t.Fatalf("Apply(%q) of %x: %v, want lines or ErrBadDelta", src, payload, err)
		}
	})
}
