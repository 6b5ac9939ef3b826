package wire

import (
	"encoding/json"
	"strconv"
	"unicode/utf8"

	"repro/internal/graph"
)

// Encode returns v as json.Marshal does; Checkout, []Checkout,
// DiffResult and CommitRequest values are appended field by field into
// one buffer, everything else is json.Marshal's. The buffer is sized
// without reading a line's bytes: every line with its quotes and comma,
// a 1/64 reserve for the escapes, and one byte more, so the caller that
// adds json.Encoder's newline does not copy the body to do it. Each line
// is tested for escapes once, as it is appended; a body whose escapes
// outgrow the reserve is still encoded right, into a buffer that grows.
func Encode(v any) ([]byte, error) {
	switch v := v.(type) {
	case Checkout:
		return appendCheckout(buffer(sizeCheckout(&v)), &v), nil
	case []Checkout:
		if v == nil {
			break // null, json.Marshal's
		}
		size := 2
		for i := range v {
			size += sizeCheckout(&v[i]) + 1
		}
		b := append(buffer(size), '[')
		for i := range v {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendCheckout(b, &v[i])
		}
		return append(b, ']'), nil
	case DiffResult:
		return appendDiffResult(buffer(sizeDiffResult(&v)), &v), nil
	case CommitRequest:
		return appendCommitRequest(buffer(sizeCommitRequest(&v)), &v), nil
	}
	return json.Marshal(v)
}

// buffer is an empty buffer for a message whose size* bound is size:
// with the reserve for its escapes, and room for a newline.
func buffer(size int) []byte {
	return make([]byte, 0, size+size/64+1)
}

// The size* functions bound a message's encoding from above, but for its
// escapes: every key and punctuation byte it can have, 20 bytes for an
// integer, 11 for a version id, and its lines by sizeLines.
const (
	sizeInt = 20
	sizeID  = 11
)

// sizeLines is exact for a non-empty array without escapes: two quotes
// per line and a comma or the closing bracket after it, behind the
// opening bracket.
func sizeLines(lines []string) int {
	size := len("null")
	for _, l := range lines {
		size += len(l) + 3
	}
	return size
}

func sizeCheckout(c *Checkout) int {
	return len(`{"id":,"lines":,"error":"","status":}`) + sizeID + sizeLines(c.Lines) + len(c.Error) + sizeInt
}

func sizeDiffResult(r *DiffResult) int {
	size := len(`{"a":,"b":,"ops":null,"added_lines":,"removed_lines":}`) + 2*sizeID + 2*sizeInt
	for i := range r.Ops {
		size += len(`{"op":"","n":,"lines":},`) + len(r.Ops[i].Op) + sizeInt + sizeLines(r.Ops[i].Lines)
	}
	return size
}

func sizeCommitRequest(r *CommitRequest) int {
	return len(`{"parent":,"parents":[],"lines":}`) + sizeID + (sizeID+1)*len(r.Parents) + sizeLines(r.Lines)
}

func appendCheckout(b []byte, c *Checkout) []byte {
	b = append(b, `{"id":`...)
	b = strconv.AppendInt(b, int64(c.ID), 10)
	b = append(b, `,"lines":`...)
	b = appendLines(b, c.Lines)
	if c.Error != "" {
		b = append(b, `,"error":`...)
		b = appendString(b, c.Error)
	}
	if c.Status != 0 {
		b = append(b, `,"status":`...)
		b = strconv.AppendInt(b, int64(c.Status), 10)
	}
	return append(b, '}')
}

func appendDiffResult(b []byte, r *DiffResult) []byte {
	b = append(b, `{"a":`...)
	b = strconv.AppendInt(b, int64(r.A), 10)
	b = append(b, `,"b":`...)
	b = strconv.AppendInt(b, int64(r.B), 10)
	b = append(b, `,"ops":`...)
	if r.Ops == nil {
		b = append(b, "null"...)
	} else {
		b = append(b, '[')
		for i := range r.Ops {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendDiffOp(b, &r.Ops[i])
		}
		b = append(b, ']')
	}
	b = append(b, `,"added_lines":`...)
	b = strconv.AppendInt(b, int64(r.AddedLines), 10)
	b = append(b, `,"removed_lines":`...)
	b = strconv.AppendInt(b, int64(r.RemovedLines), 10)
	return append(b, '}')
}

func appendDiffOp(b []byte, o *DiffOp) []byte {
	b = append(b, `{"op":`...)
	b = appendString(b, o.Op)
	if o.N != 0 {
		b = append(b, `,"n":`...)
		b = strconv.AppendInt(b, int64(o.N), 10)
	}
	if len(o.Lines) > 0 {
		b = append(b, `,"lines":`...)
		b = appendLines(b, o.Lines)
	}
	return append(b, '}')
}

func appendCommitRequest(b []byte, r *CommitRequest) []byte {
	b = append(b, '{')
	if r.Parent != nil {
		b = append(b, `"parent":`...)
		b = strconv.AppendInt(b, int64(*r.Parent), 10)
		b = append(b, ',')
	}
	if len(r.Parents) > 0 {
		b = append(b, `"parents":`...)
		b = appendIDs(b, r.Parents)
		b = append(b, ',')
	}
	b = append(b, `"lines":`...)
	b = appendLines(b, r.Lines)
	return append(b, '}')
}

func appendIDs(b []byte, ids []graph.NodeID) []byte {
	b = append(b, '[')
	for i, id := range ids {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(id), 10)
	}
	return append(b, ']')
}

// appendLines appends a string array: null for a nil one, as
// encoding/json has it.
func appendLines(b []byte, lines []string) []byte {
	if lines == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, l := range lines {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendString(b, l)
	}
	return append(b, ']')
}

// appendString appends s as a JSON string literal: copied whole between
// its quotes when nothing in it needs an escape.
func appendString(b []byte, s string) []byte {
	b = append(b, '"')
	if clean(s) {
		b = append(b, s...)
	} else {
		b = appendEscaped(b, s)
	}
	return append(b, '"')
}

// clean reports whether s is its own JSON encoding under encoding/json's
// HTML-escaping encoder: ASCII with no control byte and none of " \ < >
// &. It reads eight bytes at a step. x itself flags a byte at or above
// 0x80; x-0x20.. borrows into a byte's top bit where a byte is below
// 0x20; and y-0x01.., for y the bytes of x with one bit forced and
// xor-ed with a constant, where a byte of y is zero — x|0x04 is '&' for
// '"' and '&', x|0x02 is '>' for '<' and '>'. A borrow can spill into
// the byte above a match and flag that too, never one in a word with no
// match below it, so the word is flagged exactly when a byte of it is.
func clean(s string) bool {
	for ; len(s) >= 8; s = s[8:] {
		if x := word(s); (x|(x-ones*' ')|
			(((x|ones*0x04)^ones*'&')-ones)|
			(((x|ones*0x02)^ones*'>')-ones)|
			((x^ones*'\\')-ones))&tops != 0 {
			return false
		}
	}
	for i := 0; i < len(s); i++ {
		if !cleanByte[s[i]] {
			return false
		}
	}
	return true
}

// cleanByte is clean for one byte.
var cleanByte = func() (t [256]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		t[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return t
}()

const hexDigits = "0123456789abcdef"

// appendEscaped appends s byte by byte with encoding/json's escapes: the
// two-character ones it has, \u00XX for the other control bytes and for
// < > &, U+2028 and U+2029 spelled out, and \ufffd for each byte that is
// not part of a valid UTF-8 sequence.
func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if cleanByte[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			start = i + size
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xf])
			start = i + size
		}
		i += size
	}
	return append(b, s[start:]...)
}
