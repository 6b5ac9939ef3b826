// Package store is the plan-executing storage runtime: it persists the
// bytes a solver plan commits to — materialized versions as full blobs,
// kept deltas as edit scripts — in a content-addressed object store, and
// reconstructs any version by walking the plan's retrieval path.
//
// This is the layer Bhattacherjee et al. [VLDB'15] frame as the live
// datastore behind the storage/recreation trade-off: the solvers in this
// repository decide *which* versions to materialize; this package makes
// that decision operational. Objects are keyed by the SHA-256 of their
// canonical encoding, so identical contents deduplicate across versions
// and plan migrations are cheap set differences of keys. Large materialized blobs are split
// into content-defined chunks behind a manifest object, so versions
// sharing long runs of lines share the chunk objects too.
//
// The Store runs on a pluggable Backend (single-mutex memory, sharded
// memory, or durable disk — see Backend) and also serves as the
// concurrent checkout engine: an LRU cache of reconstructed versions,
// singleflight deduplication of concurrent identical checkouts, and a
// bounded-worker CheckoutBatch.
package store

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"

	"repro/internal/diff"
)

// Key is the SHA-256 content address of an encoded object.
type Key [sha256.Size]byte

// String returns the hex form of k.
func (k Key) String() string { return hex.EncodeToString(k[:]) }

// KeyOf addresses an encoded object payload.
func KeyOf(payload []byte) Key { return sha256.Sum256(payload) }

// Object type tags. The tag is part of the hashed payload, so objects of
// different kinds with coincidentally equal bodies never collide.
const (
	tagBlob     = 'B' // full version content (line slice)
	tagDelta    = 'D' // diff.Delta edit script
	tagChunk    = 'C' // a run of lines from a chunked blob
	tagManifest = 'M' // ordered chunk keys reassembling a blob
)

// ErrBadObject reports a payload that does not decode as its tag claims.
var ErrBadObject = errors.New("store: malformed object")

// appendLines appends the shared line-slice body: count, then each line
// length-prefixed (lines may contain any bytes).
func appendLines(buf []byte, lines []string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(lines)))
	for _, l := range lines {
		buf = binary.AppendUvarint(buf, uint64(len(l)))
		buf = append(buf, l...)
	}
	return buf
}

// decodeLines reverses appendLines, consuming the whole payload. The
// lines are substrings of one string, the payload: one allocation per
// object, not per line, and a line kept alive keeps its object's
// payload alive, which a cache's linesSize does not count.
func decodeLines(b []byte) ([]string, error) { return appendDecodedLines(nil, b) }

// appendDecodedLines is decodeLines appending the lines to dst; a nil
// dst gets a slice of exactly the payload's line count.
func appendDecodedLines(dst []string, b []byte) ([]string, error) {
	all := string(b)
	n, b, err := readUvarint(b)
	if err != nil {
		return nil, err
	}
	// Each line costs at least its one-byte length prefix, so a count
	// beyond len(b) is corrupt — reject it instead of preallocating a
	// huge slice from a bit-rotted object.
	if n > uint64(len(b)) {
		return nil, fmt.Errorf("%w: line count %d exceeds payload", ErrBadObject, n)
	}
	if dst == nil {
		dst = make([]string, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		var l uint64
		l, b, err = readUvarint(b)
		if err != nil {
			return nil, err
		}
		if uint64(len(b)) < l {
			return nil, fmt.Errorf("%w: truncated line", ErrBadObject)
		}
		at := len(all) - len(b)
		dst = append(dst, all[at:at+int(l)])
		b = b[l:]
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadObject, len(b))
	}
	return dst, nil
}

// encodeLines serializes lines behind tag into a buffer sized once.
func encodeLines(tag byte, lines []string) []byte {
	n := 1 + binary.MaxVarintLen64
	for _, l := range lines {
		n += binary.MaxVarintLen64 + len(l)
	}
	buf := make([]byte, 0, n)
	buf = append(buf, tag)
	return appendLines(buf, lines)
}

// EncodeBlob canonically serializes full version content.
func EncodeBlob(lines []string) []byte { return encodeLines(tagBlob, lines) }

// DecodeBlob reverses EncodeBlob.
func DecodeBlob(b []byte) ([]string, error) {
	if len(b) == 0 || b[0] != tagBlob {
		return nil, fmt.Errorf("%w: not a blob", ErrBadObject)
	}
	return decodeLines(b[1:])
}

// encodeChunk serializes one run of lines from a chunked blob.
func encodeChunk(lines []string) []byte { return encodeLines(tagChunk, lines) }

// appendChunk reverses encodeChunk, appending the chunk's lines to dst.
func appendChunk(dst []string, b []byte) ([]string, error) {
	if len(b) == 0 || b[0] != tagChunk {
		return nil, fmt.Errorf("%w: not a chunk", ErrBadObject)
	}
	return appendDecodedLines(dst, b[1:])
}

// encodeManifest serializes the ordered chunk keys of a chunked blob,
// with the total line count up front so reassembly can preallocate.
func encodeManifest(totalLines int, chunks []Key) []byte {
	buf := []byte{tagManifest}
	buf = binary.AppendUvarint(buf, uint64(totalLines))
	buf = binary.AppendUvarint(buf, uint64(len(chunks)))
	for _, k := range chunks {
		buf = append(buf, k[:]...)
	}
	return buf
}

// decodeManifest reverses encodeManifest.
func decodeManifest(b []byte) (totalLines int, chunks []Key, err error) {
	if len(b) == 0 || b[0] != tagManifest {
		return 0, nil, fmt.Errorf("%w: not a manifest", ErrBadObject)
	}
	b = b[1:]
	total, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	n, b, err := readUvarint(b)
	if err != nil {
		return 0, nil, err
	}
	// Divide rather than multiply: a corrupt count near 2^64 would
	// overflow n*keySize and slip past the length check into makeslice.
	keySize := uint64(len(Key{}))
	if uint64(len(b))%keySize != 0 || uint64(len(b))/keySize != n {
		return 0, nil, fmt.Errorf("%w: manifest key block is %d bytes, want %d keys", ErrBadObject, len(b), n)
	}
	if total > uint64(len(b))*uint64(maxChunkLines) {
		return 0, nil, fmt.Errorf("%w: manifest line count %d implausible", ErrBadObject, total)
	}
	chunks = make([]Key, n)
	for i := range chunks {
		copy(chunks[i][:], b[:len(Key{})])
		b = b[len(Key{}):]
	}
	return int(total), chunks, nil
}

// Content-defined chunking parameters: a chunk boundary falls after any
// line whose FNV-1a hash has chunkMaskBits trailing zero bits (expected
// chunk length 1<<chunkMaskBits lines), clamped to [minChunkLines,
// maxChunkLines]. Blobs shorter than chunkThreshold lines stay whole —
// the manifest indirection would cost more than it deduplicates.
const (
	chunkThreshold = 64
	chunkMask      = 1<<5 - 1 // expected chunk length 32 lines
	minChunkLines  = 8
	maxChunkLines  = 128
)

// chunkLines splits lines at content-defined boundaries, so an insertion
// or deletion only reshapes the chunks around the edit while every other
// chunk keeps its identity (and therefore its object key) across
// versions.
func chunkLines(lines []string) [][]string {
	var chunks [][]string
	start := 0
	for i, l := range lines {
		n := i - start + 1
		if n < minChunkLines {
			continue
		}
		if lineHash(l)&chunkMask == 0 || n >= maxChunkLines {
			chunks = append(chunks, lines[start:i+1])
			start = i + 1
		}
	}
	if start < len(lines) {
		chunks = append(chunks, lines[start:])
	}
	return chunks
}

// lineHash is inline FNV-1a over the string bytes: it runs on every
// line of every blob written, so the boundary decision must not
// allocate (a hash.Hash32 plus a []byte copy per line would).
func lineHash(l string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(l); i++ {
		h ^= uint32(l[i])
		h *= 16777619
	}
	return h
}

// EncodeDelta canonically serializes an edit script: tag, command count,
// then per command its op, count and length-prefixed inserted lines.
func EncodeDelta(d diff.Delta) []byte {
	buf := []byte{tagDelta}
	buf = binary.AppendUvarint(buf, uint64(len(d.Cmds)))
	for _, c := range d.Cmds {
		buf = append(buf, byte(c.Op))
		buf = binary.AppendUvarint(buf, uint64(c.N))
		buf = binary.AppendUvarint(buf, uint64(len(c.Lines)))
		for _, l := range c.Lines {
			buf = binary.AppendUvarint(buf, uint64(len(l)))
			buf = append(buf, l...)
		}
	}
	return buf
}

// DecodeDelta reverses EncodeDelta; as in decodeLines, the inserted
// lines are substrings of one string, the payload.
func DecodeDelta(b []byte) (diff.Delta, error) {
	if len(b) == 0 || b[0] != tagDelta {
		return diff.Delta{}, fmt.Errorf("%w: not a delta", ErrBadObject)
	}
	all := string(b)
	b = b[1:]
	n, b, err := readUvarint(b)
	if err != nil {
		return diff.Delta{}, err
	}
	// Each command costs at least its op byte, so a count beyond len(b)
	// is corrupt — reject before preallocating.
	if n > uint64(len(b)) {
		return diff.Delta{}, fmt.Errorf("%w: command count %d exceeds payload", ErrBadObject, n)
	}
	d := diff.Delta{}
	if n > 0 {
		d.Cmds = make([]diff.Cmd, 0, n)
	}
	for i := uint64(0); i < n; i++ {
		if len(b) == 0 {
			return diff.Delta{}, fmt.Errorf("%w: truncated command", ErrBadObject)
		}
		cmd := diff.Cmd{Op: diff.Op(b[0])}
		b = b[1:]
		var cn, nl uint64
		cn, b, err = readUvarint(b)
		if err != nil {
			return diff.Delta{}, err
		}
		if cn > math.MaxInt {
			return diff.Delta{}, fmt.Errorf("%w: command count %d overflows int", ErrBadObject, cn)
		}
		cmd.N = int(cn)
		nl, b, err = readUvarint(b)
		if err != nil {
			return diff.Delta{}, err
		}
		// As with the command count: a line costs at least a byte.
		if nl > uint64(len(b)) {
			return diff.Delta{}, fmt.Errorf("%w: line count %d exceeds payload", ErrBadObject, nl)
		}
		if nl > 0 {
			cmd.Lines = make([]string, 0, nl)
		}
		for j := uint64(0); j < nl; j++ {
			var l uint64
			l, b, err = readUvarint(b)
			if err != nil {
				return diff.Delta{}, err
			}
			if uint64(len(b)) < l {
				return diff.Delta{}, fmt.Errorf("%w: truncated line", ErrBadObject)
			}
			at := len(all) - len(b)
			cmd.Lines = append(cmd.Lines, all[at:at+int(l)])
			b = b[l:]
		}
		d.Cmds = append(d.Cmds, cmd)
	}
	if len(b) != 0 {
		return diff.Delta{}, fmt.Errorf("%w: %d trailing bytes", ErrBadObject, len(b))
	}
	return d, nil
}

// readUvarint consumes one uvarint from b. Only the shortest encoding,
// the one binary.AppendUvarint writes, is accepted: a padded one (a last
// byte of zero) would decode to an object that encodes to other bytes,
// under another key.
func readUvarint(b []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(b)
	if n <= 0 || (n > 1 && b[n-1] == 0) {
		return 0, nil, fmt.Errorf("%w: bad varint", ErrBadObject)
	}
	return v, b[n:], nil
}
