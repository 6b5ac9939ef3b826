package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unicode/utf8"

	"repro/internal/graph"
)

// checkEncode requires of Encode(v) the bytes of json.Marshal(v), which
// plus a newline are json.Encoder's, and that they decode to what
// encoding/json decodes them to.
func checkEncode(t *testing.T, v any) []byte {
	t.Helper()
	want := mustMarshal(t, v)
	got, err := Encode(v)
	if err != nil || string(got) != want {
		// The bodies can be large: show them from a little before they part.
		at := 0
		for at < len(got) && at < len(want) && got[at] == want[at] {
			at++
		}
		from := max(at-20, 0)
		t.Fatalf("Encode of %T, %v: differs from json.Marshal at byte %d:\n got  %.60q\n want %.60q", v, err, at, got[from:], want[from:])
	}
	var line bytes.Buffer
	if err := json.NewEncoder(&line).Encode(v); err != nil || !bytes.Equal(append(got, '\n'), line.Bytes()) {
		t.Fatalf("json.Encoder does not write Encode's %d bytes of %T and a newline (%v)", len(got), v, err)
	}
	back, wantBack := reflect.New(reflect.TypeOf(v)), reflect.New(reflect.TypeOf(v))
	if err := Decode(string(got), back.Interface()); err != nil {
		t.Fatalf("Decode(Encode(%T)): %v", v, err)
	}
	if err := json.Unmarshal([]byte(want), wantBack.Interface()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back.Interface(), wantBack.Interface()) {
		t.Fatalf("Decode(Encode(%T)):\n got  %.200q\n want %.200q", v, fmt.Sprint(back.Elem()), fmt.Sprint(wantBack.Elem()))
	}
	return got
}

// Shape bits of messagesFrom: which arrays are nil, which empty.
const (
	shapeNilLines = 1 << iota
	shapeEmptyLines
	shapeNilRest // Ops, Parents, Parent, the batch
	shapeEmptyRest
)

// messagesFrom builds one message of each kind Encode writes itself out
// of a fuzzer's arguments: text cut at sep is the lines.
func messagesFrom(text []byte, sep byte, id, other int32, status int, errText string, shape byte) (lines []string, msgs []any) {
	switch {
	case shape&shapeNilLines != 0:
	case shape&shapeEmptyLines != 0:
		lines = []string{}
	default:
		for _, l := range bytes.Split(text, []byte{sep}) {
			lines = append(lines, string(l))
		}
	}
	co := Checkout{ID: id, Lines: lines, Error: errText, Status: status}
	commit := CommitRequest{Lines: lines}
	script := DiffResult{A: id, B: other, AddedLines: status, RemovedLines: len(text)}
	var batch []Checkout
	switch {
	case shape&shapeNilRest != 0:
	case shape&shapeEmptyRest != 0:
		commit.Parent, commit.Parents, script.Ops, batch = &other, []graph.NodeID{}, []DiffOp{}, []Checkout{}
	default:
		commit.Parents = []graph.NodeID{id, other}
		script.Ops = []DiffOp{{Op: "keep", N: status}, {Op: "insert", Lines: lines}, {Op: errText, N: int(id), Lines: lines[:len(lines)/2]}, {}}
		batch = []Checkout{co, {ID: other, Error: errText, Status: int(sep)}, {Lines: lines}}
	}
	return lines, []any{co, commit, script, batch}
}

// checkEncodeMessages is the fuzz target's body.
func checkEncodeMessages(t *testing.T, text []byte, sep byte, id, other int32, status int, errText string, shape byte) {
	lines, msgs := messagesFrom(text, sep, id, other, status, errText, shape)
	// A separator that is a byte of a rune cuts valid text into invalid
	// lines; those come back as U+FFFD, as encoding/json has it.
	valid := !slices.ContainsFunc(lines, func(l string) bool { return !utf8.ValidString(l) })
	for _, m := range msgs {
		got := checkEncode(t, m)
		if _, ok := m.(Checkout); ok && valid {
			var back Checkout
			if err := Decode(string(got), &back); err != nil || !slices.Equal(back.Lines, lines) {
				t.Fatalf("lines %q came back %q, %v", lines, back.Lines, err)
			}
		}
	}
}

func FuzzEncodeMatchesEncodingJSON(f *testing.F) {
	f.Add([]byte("a\nb c\n"), byte('\n'), int32(3), int32(-1), 404, "no such version", byte(0))
	f.Fuzz(checkEncodeMessages)
}

// TestEncodeEscapesAtEveryOffset puts each of the 256 bytes, and the
// multi-byte sequences encoding/json treats specially, at every offset
// of lines up to two words and a byte long.
func TestEncodeEscapesAtEveryOffset(t *testing.T) {
	var specials []string
	for c := 0; c < 256; c++ {
		specials = append(specials, string([]byte{byte(c)}))
	}
	specials = append(specials, "\u2028", "\u2029", "\u2027", "\u202a", "é", "日", "\U0001f600",
		"\xe2\x80", "\xe2", "\xf0\x9f\x98", "\xc0\xaf", "\xed\xa0\x80", "\xff\xfe", "\ufffd")
	for _, fill := range []byte{'a', ' ', '!', '#', '\'', '=', ']', 0x7f} {
		var lines []string
		for _, sp := range specials {
			for n := len(sp); n <= 17; n++ {
				for at := 0; at+len(sp) <= n; at++ {
					l := bytes.Repeat([]byte{fill}, n)
					copy(l[at:], sp)
					lines = append(lines, string(l))
				}
			}
		}
		checkEncode(t, Checkout{ID: 1, Lines: lines})
		for _, l := range lines {
			want := !strings.ContainsFunc(l, func(r rune) bool { return r >= utf8.RuneSelf || !cleanByte[r] })
			if clean(l) != want {
				t.Fatalf("clean(%q) = %v", l, !want)
			}
		}
	}
}

// TestEncodeShapes runs nil against empty arrays, omitted fields and the
// extremes of the integers through every message.
func TestEncodeShapes(t *testing.T) {
	for shape := byte(0); shape < 16; shape++ {
		checkEncodeMessages(t, []byte("a<b\x00plain\x00"), 0, -1<<31, 1<<31-1, -1<<63, "tab\there", shape)
		checkEncodeMessages(t, nil, 0, 0, 0, 0, "", shape)
	}
	parent := graph.NodeID(4)
	for _, v := range []any{
		Checkout{}, []Checkout(nil), DiffResult{}, CommitRequest{}, DiffOp{},
		CommitRequest{Parent: &parent}, CommitRequest{Parent: &parent, Parents: []graph.NodeID{1}, Lines: []string{}},
		// No fast path: a pointer, and messages without line arrays.
		&Checkout{ID: 2, Lines: []string{"<"}}, CommitResult{ID: 1, Versions: 2}, BatchRequest{IDs: []graph.NodeID{0, 3}},
	} {
		checkEncode(t, v)
	}
	if _, err := Encode(func() {}); err == nil {
		t.Error("Encode of a func: no error")
	}
}

// TestEncodeAllocs pins what sizing the buffer first buys: a body is
// allocated once, with room for json.Encoder's newline, beside the message
// boxed into Encode's argument.
func TestEncodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	parent := graph.NodeID(7)
	// Clean lines; a versioning manifest's shape, a NUL-led header line
	// before every 40 entries; and one line in sixteen with a quote, a tab,
	// an ampersand or an é in it: the reserve holds the escapes, they are
	// not grown into.
	shapes := []struct {
		name  string
		lines func(n int) []string
	}{
		{"clean", manifest},
		{"manifest", func(n int) []string { return withHeaders(manifest(n)) }},
		{"escaped", func(n int) []string {
			lines := manifest(n)
			for i := 0; i < n; i += 16 {
				lines[i] = lines[i][:i%40] + []string{`"`, "\t", "&", "é"}[i/16%4] + lines[i][i%40:]
			}
			return lines
		}},
	}
	for _, n := range []int{0, 30, 4000} {
		for _, shape := range shapes {
			lines := shape.lines(n)
			for _, v := range []any{
				Checkout{ID: 1, Lines: lines},
				[]Checkout{{ID: 1, Lines: lines}, {ID: 2, Error: "unknown version", Status: 404}},
				CommitRequest{Parent: &parent, Lines: lines},
				DiffResult{Ops: []DiffOp{{Op: "keep", N: 5}, {Op: "insert", Lines: lines}, {Op: "delete", N: 2}}},
			} {
				var body []byte
				if got := testing.AllocsPerRun(20, func() {
					body, _ = Encode(v)
					body = append(body, '\n')
				}); got != 1 {
					t.Errorf("%T of %d %s lines: %v allocations, want 1", v, n, shape.name, got)
				}
				if string(body[:len(body)-1]) != mustMarshal(t, v) {
					t.Errorf("%T of %d %s lines: not json.Marshal's bytes", v, n, shape.name)
				}
			}
		}
	}
}
