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
// A decoded line array owns one string, its lines as they arrived, and
// each escape-free line is a substring of it: keeping one line keeps its
// array's text alive but never another array's (one result of a batch
// checkout does not pin the batch). A line with an escape is
// unquoted on its own by encoding/json, at encoding/json's speed.
package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"io"
	"strconv"
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

// MaxBody caps dsvd request bodies, and the buffer ReadBody allocates on
// a peer's word.
const MaxBody = 64 << 20

// ReadBody reads a whole HTTP body whose Content-Length is size in one
// right-sized read; an unknown or oversized length grows as bytes arrive.
func ReadBody(r io.Reader, size int64) ([]byte, error) {
	if size < 0 || size > MaxBody {
		return io.ReadAll(r)
	}
	b := make([]byte, size)
	_, err := io.ReadFull(r, b)
	return b, err
}

// Decode decodes the JSON value at the start of body into v, as
// json.NewDecoder(body).Decode(v) does; *CommitRequest, *Checkout,
// *[]Checkout and *DiffResult, the messages Encode writes itself, take
// the fast path when body allows.
func Decode(body []byte, v any) error {
	var ok bool
	switch v := v.(type) {
	case *CommitRequest:
		ok = fast(body, v, commitRequestFields.parse)
	case *Checkout:
		ok = fast(body, v, checkoutFields.parse)
	case *[]Checkout:
		ok = fast(body, v, func(d *dec, t *[]Checkout) bool { return array(d, t, checkoutFields.parse) })
	case *DiffResult:
		ok = fast(body, v, diffResultFields.parse)
	}
	if ok {
		return nil
	}
	return json.NewDecoder(bytes.NewReader(body)).Decode(v)
}

// dec is the fast path's cursor over one body. Every method reports
// false for "not mine" and leaves the cursor anywhere.
type dec struct {
	b    []byte
	i    int
	offs []int // lines' scratch: (start, end) per line, start complemented when the line needs unquoting
}

// decPool recycles cursors for their scratch, except one that a huge
// body grew past maxPooledOffs.
var decPool = sync.Pool{New: func() any { return new(dec) }}

const maxPooledOffs = 1 << 20

// fast runs parse over the whole of body into a zeroed *v, and puts *v
// back as it was unless all of body parsed.
func fast[T any](body []byte, v *T, parse func(*dec, *T) bool) bool {
	d := decPool.Get().(*dec)
	d.b, d.i = body, 0
	old := *v
	*v = *new(T)
	d.space()
	ok := parse(d, v)
	d.space()
	if ok = ok && d.i == len(body); !ok {
		*v = old
	}
	d.b = nil
	if cap(d.offs) <= maxPooledOffs {
		decPool.Put(d)
	}
	return ok
}

func (d *dec) space() {
	for d.i < len(d.b) && (d.b[d.i] == ' ' || d.b[d.i] == '\n' || d.b[d.i] == '\t' || d.b[d.i] == '\r') {
		d.i++
	}
}

func (d *dec) eat(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
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
		lo, hi, plain, ok := d.str()
		i := 0
		for i < len(fs) && fs[i].key != string(d.b[lo:hi]) {
			i++
		}
		if !ok || !plain || i == len(fs) || seen&(1<<i) != 0 || !d.eat(':') || !fs[i].parse(d, v) {
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

// str scans the string literal at the cursor and returns the span of its
// contents. plain reports that the contents are their own decoding: no
// escape, no control byte, valid UTF-8.
func (d *dec) str() (lo, hi int, plain, ok bool) {
	b := d.b
	if !d.eat('"') {
		return 0, 0, false, false
	}
	lo = d.i
	hi = lo + bytes.IndexByte(b[lo:], '"')
	if hi < lo {
		return 0, 0, false, false
	}
	if plain = plainASCII(b[lo:hi]) || plainUTF8(b[lo:hi]); !plain {
		// The quote found may be an escaped one: walk the escapes.
		for hi = lo; hi < len(b) && b[hi] != '"'; hi++ {
			if b[hi] == '\\' {
				hi++
			}
		}
		if hi >= len(b) {
			return 0, 0, false, false
		}
	}
	d.i = hi + 1
	return lo, hi, plain, true
}

// ones and tops spread a byte test over the eight bytes of a word.
const ones, tops = 0x0101010101010101, 0x8080808080808080

// plainASCII reports whether s is ASCII without a control byte or a
// backslash, eight bytes at a step: with no byte of x at or above 0x80,
// x-0x20.. borrows into a byte's top bit exactly where a byte is below
// 0x20, and (x^0x5c..)-0x01.. exactly where one is a backslash.
func plainASCII(s []byte) bool {
	for ; len(s) >= 8; s = s[8:] {
		x := binary.LittleEndian.Uint64(s)
		if (x|(x-ones*' ')|((x^ones*'\\')-ones))&tops != 0 {
			return false
		}
	}
	for _, c := range s {
		if c < ' ' || c == '\\' || c >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

func plainUTF8(s []byte) bool {
	return !bytes.ContainsFunc(s, func(r rune) bool { return r < ' ' || r == '\\' }) && utf8.Valid(s)
}

// text decodes one string; like a line with an escape, one that is not
// plain is unquoted by encoding/json, from its literal.
func (d *dec) text(s *string) bool {
	lo, hi, plain, ok := d.str()
	if plain {
		*s = string(d.b[lo:hi])
		return true
	}
	return ok && json.Unmarshal(d.b[lo-1:hi+1], s) == nil
}

// lines decodes an array of strings into one string and substrings of it.
func (d *dec) lines(out *[]string) bool {
	if !d.eat('[') {
		return false
	}
	offs := d.offs[:0]
	for !d.eat(']') {
		if len(offs) > 0 && !d.eat(',') {
			return false
		}
		lo, hi, plain, ok := d.str()
		if !ok {
			return false
		}
		if !plain {
			lo = ^lo
		}
		offs = append(offs, lo, hi)
	}
	d.offs = offs
	*out = make([]string, len(offs)/2)
	if len(offs) == 0 {
		return true
	}
	base := max(offs[0], ^offs[0])
	all := string(d.b[base:offs[len(offs)-1]])
	for k := range *out {
		if lo, hi := offs[2*k], offs[2*k+1]; lo >= 0 {
			(*out)[k] = all[lo-base : hi-base]
		} else if json.Unmarshal(d.b[^lo-1:hi+1], &(*out)[k]) != nil {
			return false
		}
	}
	return true
}

// integer scans a JSON integer that fits T; a fraction, an exponent, a
// leading zero or an overflow is not mine.
func integer[T int | graph.NodeID](d *dec, v *T) bool {
	lo := d.i
	for d.i < len(d.b) && (d.b[d.i] == '-' || d.b[d.i]-'0' < 10) {
		d.i++
	}
	digits := bytes.TrimPrefix(d.b[lo:d.i], []byte("-"))
	if len(digits) == 0 || len(digits) > 1 && digits[0] == '0' {
		return false
	}
	n, err := strconv.ParseInt(string(d.b[lo:d.i]), 10, 64)
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
