// Package wire declares the dsvd HTTP messages that carry line arrays,
// once for serve and client, and encodes and decodes them without
// encoding/json on the happy path. The wire format is plain JSON, byte
// for byte what encoding/json writes and everything it reads.
//
// Encode appends the four messages with line arrays — CommitRequest,
// Checkout, a batch's []Checkout, DiffResult — into one buffer sized
// from the lines: a line with nothing to escape, found eight bytes at a
// step, is copied whole, any other goes byte by byte through
// encoding/json's escapes (HTML-safe, \u2028 and \u2029, \ufffd for
// invalid UTF-8). Other values are json.Marshal's.
//
// Decode walks the compact form that Encode writes:
// known keys, each at most once and in any order, integers, strings,
// whitespace only around the whole value. Whatever else arrives — an
// unknown, repeated or differently-cased key, null, a fraction, inner
// whitespace, trailing data, a malformed literal — is "not mine" and the
// same bytes go through encoding/json, so the accepted language, the
// decoded values and the error texts are encoding/json's.
//
// Each string is scanned once, eight bytes at a step, for its end and
// for whether it is its own decoding. Who owns the text of a decoded
// line array:
//   - A Checkout or a CommitRequest has one line array, nearly the whole
//     body, and its escape-free lines are substrings of the body itself:
//     keeping one line keeps the body alive, and the body is not copied.
//   - Every array of a batch or a diff owns a copy of its own text, so
//     that keeping one line keeps its array's text alive but never
//     another array's (one result of a batch checkout does not pin the
//     batch).
//   - A line whose escapes all stand for ASCII (\" \\ \/ \b \f \n \r \t,
//     \u0000 to \u007f: every escape Encode writes for an ASCII byte)
//     is unquoted here, into one more string per array. A line with any
//     other \u escape, or with raw non-ASCII beside an escape, is
//     unquoted on its own by encoding/json.
package wire

import (
	"encoding/json"
	"io"
	"math/bits"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

	"repro/internal/graph"
)

// CommitRequest is the body of POST /commit. Parent is the version the
// commit derives from (-1 or omitted commits a root); a non-empty
// Parents commits a multi-parent merge instead, Parents[0] the primary
// parent and each further one a candidate delta edge.
type CommitRequest struct {
	Parent  *graph.NodeID  `json:"parent,omitempty"`
	Parents []graph.NodeID `json:"parents,omitempty"`
	Lines   []string       `json:"lines"`
}

// CommitResult reports an acknowledged commit.
type CommitResult struct {
	ID       graph.NodeID `json:"id"`
	Versions int          `json:"versions"`
}

// BatchRequest is the body of POST /checkout.
type BatchRequest struct {
	IDs []graph.NodeID `json:"ids"`
}

// Checkout is the body of GET /checkout/{id} and one item of the batch
// response, where Error and Status (an HTTP-style status, omitted on
// success) report that item's failure inside the 200.
type Checkout struct {
	ID     graph.NodeID `json:"id"`
	Lines  []string     `json:"lines"`
	Error  string       `json:"error,omitempty"`
	Status int          `json:"status,omitempty"`
}

// DiffOp is one edit-script command from GET /diff/{a}/{b}: keep and
// delete carry a source line count, insert carries the inserted lines.
type DiffOp struct {
	Op    string   `json:"op"` // "keep" | "delete" | "insert"
	N     int      `json:"n,omitempty"`
	Lines []string `json:"lines,omitempty"`
}

// DiffResult is the edit script transforming version A's lines into
// version B's — applying Ops to a checkout of A reproduces B exactly —
// with summary sizes (keeps excluded).
type DiffResult struct {
	A            graph.NodeID `json:"a"`
	B            graph.NodeID `json:"b"`
	Ops          []DiffOp     `json:"ops"`
	AddedLines   int          `json:"added_lines"`
	RemovedLines int          `json:"removed_lines"`
}

// MaxBody caps dsvd request bodies.
const MaxBody = 64 << 20

// chunks are ReadBody's read buffers.
var chunks = sync.Pool{New: func() any { return new([64 << 10]byte) }}

// ReadBody reads a whole HTTP body whose Content-Length is size (-1 when
// unknown) into a string, a chunk at a time: a strings.Builder's buffer
// is not zeroed before the bytes arrive, and Decode keeps a single
// message's lines as substrings of the string it returns. At most 1 MiB
// is allocated on the peer's word; past that the body grows as its bytes
// arrive, so a stalled upload holds what it sent, not what it declared.
// A body shorter than a length up to MaxBody is an error; a longer
// length is not believed.
func ReadBody(r io.Reader, size int64) (string, error) {
	var b strings.Builder
	b.Grow(int(min(max(size, 0), 1<<20)))
	chunk := chunks.Get().(*[64 << 10]byte)
	defer chunks.Put(chunk)
	for {
		n, err := r.Read(chunk[:])
		b.Write(chunk[:n])
		switch {
		case err == io.EOF && int64(b.Len()) < size && size <= MaxBody:
			return "", io.ErrUnexpectedEOF
		case err == io.EOF:
			return b.String(), nil
		case err != nil:
			return "", err
		}
	}
}

// Decode decodes the JSON value at the start of body into v, as
// json.NewDecoder(strings.NewReader(body)).Decode(v) does;
// *CommitRequest, *Checkout, *[]Checkout and *DiffResult, the messages
// Encode writes itself, take the fast path when body allows.
func Decode(body string, v any) error {
	var ok bool
	switch v := v.(type) {
	case *CommitRequest:
		ok = fast(body, true, v, commitRequestFields.parse)
	case *Checkout:
		ok = fast(body, true, v, checkoutFields.parse)
	case *[]Checkout:
		ok = fast(body, false, v, func(d *dec, t *[]Checkout) bool { return array(d, t, checkoutFields.parse) })
	case *DiffResult:
		ok = fast(body, false, v, diffResultFields.parse)
	}
	if ok {
		return nil
	}
	return json.NewDecoder(strings.NewReader(body)).Decode(v)
}

// dec is the fast path's cursor over one body. Every method reports
// false for "not mine" and leaves the cursor anywhere.
type dec struct {
	s      string
	i      int
	shared bool   // decoded text may be substrings of s: the message has one line array
	spans  []span // lines' scratch
}

// span is one string literal's contents, s[lo:hi], and how they decode.
type span struct {
	lo, hi int
	kind   uint8
}

const (
	plain   = iota // its own decoding: no escape, no control byte, valid UTF-8
	escaped        // ASCII, with the escapes unescape decodes
	foreign        // any other literal, which encoding/json decodes
)

// decPool recycles cursors for their scratch, except one that a huge
// body grew past maxPooledSpans.
var decPool = sync.Pool{New: func() any { return new(dec) }}

const maxPooledSpans = 1 << 19

// fast runs parse over the whole of body into a zeroed *v, and puts *v
// back as it was unless all of body parsed.
func fast[T any](body string, shared bool, v *T, parse func(*dec, *T) bool) bool {
	d := decPool.Get().(*dec)
	d.s, d.i, d.shared = body, 0, shared
	old := *v
	*v = *new(T)
	d.space()
	ok := parse(d, v)
	d.space()
	if ok = ok && d.i == len(body); !ok {
		*v = old
	}
	d.s = ""
	if cap(d.spans) <= maxPooledSpans {
		decPool.Put(d)
	}
	return ok
}

func (d *dec) space() {
	for d.i < len(d.s) && (d.s[d.i] == ' ' || d.s[d.i] == '\n' || d.s[d.i] == '\t' || d.s[d.i] == '\r') {
		d.i++
	}
}

func (d *dec) eat(c byte) bool {
	if d.i < len(d.s) && d.s[d.i] == c {
		d.i++
		return true
	}
	return false
}

// fields is the shape of one message: its keys and how to parse the
// value of each into a T.
type fields[T any] []struct {
	key   string
	parse func(*dec, *T) bool
}

// parse walks {"key":value,...} into v; an unknown or repeated key is
// not mine.
func (fs fields[T]) parse(d *dec, v *T) bool {
	if !d.eat('{') {
		return false
	}
	for seen := 0; !d.eat('}'); {
		if seen != 0 && !d.eat(',') {
			return false
		}
		sp, ok := d.str()
		if !ok || sp.kind != plain {
			return false
		}
		i := 0
		for i < len(fs) && fs[i].key != d.s[sp.lo:sp.hi] {
			i++
		}
		if i == len(fs) || seen&(1<<i) != 0 || !d.eat(':') || !fs[i].parse(d, v) {
			return false
		}
		seen |= 1 << i
	}
	return true
}

// array walks [elem,...] into out, non-nil as encoding/json's is.
func array[T any](d *dec, out *[]T, elem func(*dec, *T) bool) bool {
	if !d.eat('[') {
		return false
	}
	*out = []T{}
	for n := 0; !d.eat(']'); n++ {
		if n > 0 && !d.eat(',') {
			return false
		}
		*out = append(*out, *new(T))
		if !elem(d, &(*out)[n]) {
			return false
		}
	}
	return true
}

// str scans the string literal at the cursor, in one pass, and returns
// the span of its contents. A malformed literal — a raw control byte, an
// unknown escape, no closing quote — is not mine; so the escapes of an
// escaped span are known good.
func (d *dec) str() (sp span, ok bool) {
	s := d.s
	if !d.eat('"') {
		return sp, false
	}
	sp.lo = d.i
	esc, nonASCII := false, false
	for i := d.i; ; {
		i = stop(s, i)
		if i == len(s) {
			return sp, false
		}
		switch c := s[i]; {
		case c == '"':
			switch {
			case !esc && (!nonASCII || utf8.ValidString(s[sp.lo:i])):
				sp.kind = plain
			case esc && !nonASCII:
				sp.kind = escaped
			default:
				sp.kind = foreign
			}
			sp.hi, d.i = i, i+1
			return sp, true
		case c == '\\':
			esc = true
			switch {
			case i+1 == len(s):
				return sp, false
			case unescapes[s[i+1]] != 0:
				i += 2
			case s[i+1] != 'u':
				return sp, false
			case i+6 <= len(s) && s[i+2] == '0' && s[i+3] == '0' && s[i+4]-'0' < 8 && unhex(s[i+5]) < 16:
				i += 6
			default: // a \u escape past ASCII, or a malformed one
				nonASCII = true
				i += 2
			}
		case c < ' ':
			return sp, false
		default:
			nonASCII = true
			i++
		}
	}
}

// stop returns the index of the first byte from s[i] on that a string
// scan stops at — a quote, a backslash, a control byte, a byte from 0x80
// up — or len(s), eight bytes at a step. A byte of x flags itself from
// 0x80 up; below it, x-0x20.. borrows into a byte's top bit where the
// byte is below 0x20, and (x^c..)-0x01.. where it is c. None of the three
// borrows out of a byte that does not stop the scan, so the lowest
// flagged byte is the first that does.
func stop(s string, i int) int {
	for ; i+8 <= len(s); i += 8 {
		x := word(s[i:])
		if m := (x | (x - ones*' ') | ((x ^ ones*'"') - ones) | ((x ^ ones*'\\') - ones)) & tops; m != 0 {
			return i + bits.TrailingZeros64(m)/8
		}
	}
	for ; i < len(s); i++ {
		if c := s[i]; c == '"' || c == '\\' || c < ' ' || c >= utf8.RuneSelf {
			break
		}
	}
	return i
}

// ones and tops spread a byte test over the eight bytes of a word.
const ones, tops = 0x0101010101010101, 0x8080808080808080

// word is s's first eight bytes, the first in the low byte; the compiler
// makes it one load.
func word(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// unescapes maps the letter of each two-character escape to its byte.
var unescapes = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// unhex is a hex digit's value, 16 for any other byte.
func unhex(c byte) byte {
	switch {
	case c-'0' < 10:
		return c - '0'
	case (c|0x20)-'a' < 6:
		return (c | 0x20) - 'a' + 10
	}
	return 16
}

// unescape sets *out to what sp, an escaped or foreign literal, decodes
// to: an escaped one is unquoted into u, a foreign one by encoding/json.
func (d *dec) unescape(sp span, u *strings.Builder, out *string) bool {
	if sp.kind == foreign {
		return json.Unmarshal([]byte(d.s[sp.lo-1:sp.hi+1]), out) == nil
	}
	lit := d.s[sp.lo:sp.hi]
	u.Grow(len(lit))
	at := u.Len()
	for {
		i := strings.IndexByte(lit, '\\')
		if i < 0 {
			break
		}
		u.WriteString(lit[:i])
		if lit[i+1] == 'u' {
			u.WriteByte(unhex(lit[i+4])<<4 | unhex(lit[i+5]))
			lit = lit[i+6:]
		} else {
			u.WriteByte(unescapes[lit[i+1]])
			lit = lit[i+2:]
		}
	}
	u.WriteString(lit)
	*out = u.String()[at:]
	return true
}

// text decodes one string.
func (d *dec) text(out *string) bool {
	sp, ok := d.str()
	switch {
	case !ok:
		return false
	case sp.kind != plain:
		var u strings.Builder
		return d.unescape(sp, &u, out)
	case d.shared:
		*out = d.s[sp.lo:sp.hi]
	default:
		*out = strings.Clone(d.s[sp.lo:sp.hi])
	}
	return true
}

// lines decodes an array of strings: its plain lines are substrings of
// the body or of one copy of the array's text, its escaped ones of one
// string they are unquoted into.
func (d *dec) lines(out *[]string) bool {
	if !d.eat('[') {
		return false
	}
	spans, escapedBytes := d.spans[:0], 0
	for !d.eat(']') {
		if len(spans) > 0 && !d.eat(',') {
			return false
		}
		sp, ok := d.str()
		if !ok {
			return false
		}
		if sp.kind == escaped {
			escapedBytes += sp.hi - sp.lo
		}
		spans = append(spans, sp)
	}
	d.spans = spans
	*out = make([]string, len(spans))
	if len(spans) == 0 {
		return true
	}
	text, base := d.s, 0
	if !d.shared {
		base = spans[0].lo
		text = strings.Clone(d.s[base:spans[len(spans)-1].hi])
	}
	var u strings.Builder
	u.Grow(escapedBytes) // once: no line decodes longer than it is written
	for k, sp := range spans {
		if sp.kind == plain {
			(*out)[k] = text[sp.lo-base : sp.hi-base]
		} else if !d.unescape(sp, &u, &(*out)[k]) {
			return false
		}
	}
	return true
}

// integer scans a JSON integer that fits T; a fraction, an exponent, a
// leading zero or an overflow is not mine.
func integer[T int | graph.NodeID](d *dec, v *T) bool {
	lo := d.i
	for d.i < len(d.s) && (d.s[d.i] == '-' || d.s[d.i]-'0' < 10) {
		d.i++
	}
	digits := strings.TrimPrefix(d.s[lo:d.i], "-")
	if len(digits) == 0 || len(digits) > 1 && digits[0] == '0' {
		return false
	}
	n, err := strconv.ParseInt(d.s[lo:d.i], 10, 64)
	*v = T(n)
	return err == nil && int64(*v) == n
}

var (
	commitRequestFields = fields[CommitRequest]{
		{"parent", func(d *dec, r *CommitRequest) bool { r.Parent = new(graph.NodeID); return integer(d, r.Parent) }},
		{"parents", func(d *dec, r *CommitRequest) bool { return array(d, &r.Parents, integer[graph.NodeID]) }},
		{"lines", func(d *dec, r *CommitRequest) bool { return d.lines(&r.Lines) }},
	}
	checkoutFields = fields[Checkout]{
		{"id", func(d *dec, c *Checkout) bool { return integer(d, &c.ID) }},
		{"lines", func(d *dec, c *Checkout) bool { return d.lines(&c.Lines) }},
		{"error", func(d *dec, c *Checkout) bool { return d.text(&c.Error) }},
		{"status", func(d *dec, c *Checkout) bool { return integer(d, &c.Status) }},
	}
	diffOpFields = fields[DiffOp]{
		{"op", func(d *dec, o *DiffOp) bool { return d.text(&o.Op) }},
		{"n", func(d *dec, o *DiffOp) bool { return integer(d, &o.N) }},
		{"lines", func(d *dec, o *DiffOp) bool { return d.lines(&o.Lines) }},
	}
	diffResultFields = fields[DiffResult]{
		{"a", func(d *dec, r *DiffResult) bool { return integer(d, &r.A) }},
		{"b", func(d *dec, r *DiffResult) bool { return integer(d, &r.B) }},
		{"ops", func(d *dec, r *DiffResult) bool { return array(d, &r.Ops, diffOpFields.parse) }},
		{"added_lines", func(d *dec, r *DiffResult) bool { return integer(d, &r.AddedLines) }},
		{"removed_lines", func(d *dec, r *DiffResult) bool { return integer(d, &r.RemovedLines) }},
	}
)
