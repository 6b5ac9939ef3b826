package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
)

// targets are the four message types with a fast path, plus one without.
func targets() []any {
	return []any{new(CommitRequest), new(Checkout), new([]Checkout), new(DiffResult), new(CommitResult)}
}

// checkAgainstJSON decodes body into every target both ways and requires
// the same value and an error exactly when encoding/json has one.
func checkAgainstJSON(t *testing.T, body []byte) {
	t.Helper()
	for _, got := range targets() {
		want := reflect.New(reflect.TypeOf(got).Elem()).Interface()
		wantErr := json.NewDecoder(bytes.NewReader(body)).Decode(want)
		gotErr := Decode(string(body), got)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%T of %q: error %v, encoding/json has %v", got, body, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%T of %q:\n got  %+v\n want %+v", got, body, got, want)
		}
	}
}

// tookFastPath reports whether body decodes into v without encoding/json.
func tookFastPath(body string, v any) bool {
	switch v := v.(type) {
	case *CommitRequest:
		return fast(body, true, v, commitRequestFields.parse)
	case *Checkout:
		return fast(body, true, v, checkoutFields.parse)
	case *DiffResult:
		return fast(body, false, v, diffResultFields.parse)
	}
	panic("no fast path")
}

var cases = []struct {
	name, body string
	fast       bool // the Checkout fast path takes it
}{
	{"plain", `{"id":3,"lines":["a","b c",""]}`, true},
	{"encoder newline", "{\"id\":3,\"lines\":[\"a\"]}\n", true},
	{"outer whitespace", " \t\r\n{\"id\":3,\"lines\":[\"a\"]} \n\n", true},
	{"key order", `{"status":404,"error":"no such version","lines":[],"id":9}`, true},
	{"empty object", `{}`, true},
	{"empty lines", `{"id":0,"lines":[]}`, true},
	{"negative id", `{"id":-1,"lines":["x"]}`, true},
	{"escaped quote", `{"id":1,"lines":["say \"hi\"","tail"]}`, true},
	{"escaped backslash before quote", `{"id":1,"lines":["dir\\","next"]}`, true},
	{"newline escape", `{"id":1,"lines":["a\nb","\t"]}`, true},
	{"unicode escape", `{"id":1,"lines":["caf\u00e9","plain"]}`, true},
	{"raw utf8", `{"id":1,"lines":["café","日本語"]}`, true},
	{"raw U+2028", "{\"id\":1,\"lines\":[\"a\u2028b\"]}", true},
	{"escaped U+2028", `{"id":1,"lines":["a\u2028b"]}`, true},
	{"surrogate pair", `{"id":1,"lines":["\ud83d\ude00"]}`, true},
	{"lone surrogate", `{"id":1,"lines":["\ud83d","x"]}`, true},
	{"html escapes", `{"id":1,"lines":["\u003ca\u003e \u0026"]}`, true},
	{"raw html", `{"id":1,"lines":["<a> &"]}`, true},
	{"escaped solidus", `{"id":1,"lines":["a\/b"]}`, true},
	{"invalid utf8", "{\"id\":1,\"lines\":[\"a\xffb\",\"\xc3\"]}", true},
	{"escaped key", `{"\u0069d":1}`, false},
	{"inner whitespace", `{"id": 3, "lines": ["a", "b"]}`, false},
	{"duplicate key", `{"id":1,"lines":["a"],"lines":["b"]}`, false},
	{"duplicate id", `{"id":1,"id":2}`, false},
	{"mixed-case key", `{"ID":4,"Lines":["a"]}`, false},
	{"unknown key", `{"id":1,"extra":{"x":[1,2]},"lines":["a"]}`, false},
	{"null lines", `{"id":1,"lines":null}`, false},
	{"null line", `{"id":1,"lines":["a",null]}`, false},
	{"null value", `null`, false},
	{"fraction", `{"id":1.0,"lines":[]}`, false},
	{"exponent", `{"id":1e2}`, false},
	{"leading zero", `{"id":01}`, false},
	{"negative zero", `{"id":-0}`, true},
	{"id overflow", `{"id":2147483648}`, false},
	{"status overflow", `{"status":9223372036854775808}`, false},
	{"string id", `{"id":"1"}`, false},
	{"raw control byte", "{\"id\":1,\"lines\":[\"a\tb\"]}", false},
	{"bad escape", `{"id":1,"lines":["a\qb"]}`, false},
	{"short unicode escape", `{"id":1,"lines":["\u12"]}`, false},
	{"trailing comma", `{"id":1,"lines":["a",]}`, false},
	{"missing comma", `{"id":1,"lines":["a""b"]}`, false},
	{"unterminated string", `{"id":1,"lines":["a`, false},
	{"unterminated escape", `{"id":1,"lines":["a\`, false},
	{"truncated", `{"id":1,"lines":["a","b"`, false},
	{"trailing value", `{"id":1,"lines":["a"]}{"id":2}`, false},
	{"trailing garbage", `{"id":1,"lines":["a"]} x`, false},
	{"empty", ``, false},
	{"whitespace only", " \n", false},
	{"array for object", `[{"id":1,"lines":["a"]}]`, false},
	{"commit request", `{"parent":2,"lines":["a","b"]}`, false},
	{"merge request", `{"parents":[0,3],"lines":["a"]}`, false},
	{"empty parents", `{"parents":[],"lines":[]}`, false},
	{"null parent", `{"parent":null,"lines":["a"]}`, false},
	{"diff", `{"a":1,"b":2,"ops":[{"op":"keep","n":2},{"op":"delete","n":1},{"op":"insert","lines":["x\ty","z"]}],"added_lines":2,"removed_lines":1}`, false},
	{"diff no ops", `{"a":1,"b":1,"ops":[],"added_lines":0,"removed_lines":0}`, false},
	{"batch", `[{"id":0,"lines":["a"]},{"id":99,"lines":null,"error":"unknown","status":404},{"id":1,"lines":[]}]`, false},
	{"empty batch", `[]`, false},
	{"manifest header", `{"id":1,"lines":["\u0000dsv:f:40:src/pkg/a.go","src/pkg/a.go 0badc0de"]}`, true},
	{"backslashes before quote", `{"id":1,"lines":["12345678\\\\","\\\"","\\"]}`, true},
	{"latin-1 escapes", `{"id":1,"lines":["\u0080","\u00ff","\u00FF","a\u00e9\n"]}`, true},
	{"DEL escape", `{"id":1,"lines":["a\u007fb","\u007F"]}`, true},
	{"escaped commit request", `{"parent":2,"lines":["\u0000dsv:f:1:a","b\"c","d"]}`, false},
	{"escaped diff op", `{"a":1,"b":2,"ops":[{"op":"keep","n":1},{"op":"insert","lines":["\u003cx\u003e","y\\z","w"]}],"added_lines":3,"removed_lines":0}`, false},
}

// caseBody is the body of the case named name.
func caseBody(name string) string {
	for _, c := range cases {
		if c.name == name {
			return c.body
		}
	}
	panic("no case " + name)
}

// TestDecodeMatchesEncodingJSON runs the table through every target, and
// checks which cases the Checkout fast path claims.
func TestDecodeMatchesEncodingJSON(t *testing.T) {
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			checkAgainstJSON(t, []byte(c.body))
			if got := tookFastPath(c.body, new(Checkout)); got != c.fast {
				t.Fatalf("fast path took it: %v, want %v", got, c.fast)
			}
		})
	}
	for name, v := range map[string]any{
		"commit request":         new(CommitRequest),
		"merge request":          new(CommitRequest),
		"empty parents":          new(CommitRequest),
		"escaped commit request": new(CommitRequest),
		"diff":                   new(DiffResult),
		"diff no ops":            new(DiffResult),
		"escaped diff op":        new(DiffResult),
	} {
		if body := caseBody(name); !tookFastPath(body, v) {
			t.Errorf("%T fast path refused %s", v, body)
		}
	}
}

func FuzzDecodeMatchesEncodingJSON(f *testing.F) {
	for _, c := range cases {
		f.Add([]byte(c.body))
	}
	f.Fuzz(checkAgainstJSON)
}

// manifest is a body of n 48-byte lines, the benchmark's shape.
func manifest(n int) []string {
	lines := make([]string, n)
	for i := range lines {
		lines[i] = fmt.Sprintf("%-40s%08x", fmt.Sprintf("src/pkg%03d/file%05d.go", i%97, i), i*2654435761)
	}
	return lines
}

func mustMarshal(t testing.TB, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// withHeaders is lines with a versioning manifest's NUL-led header line,
// which encoding/json writes with a \u0000 escape, before every 40.
func withHeaders(lines []string) []string {
	lines = slices.Clone(lines)
	for i := 0; i < len(lines); i += 41 {
		lines[i] = fmt.Sprintf("\x00dsv:f:40:dir%03d/part%05d.bin", i%97, i)
	}
	return lines
}

// TestDecodeAllocs pins the fast path's point: the number of objects a
// decode allocates does not depend on the number of lines, nor on how
// many of them have an escape.
func TestDecodeAllocs(t *testing.T) {
	parent := int32(7)
	for _, n := range []int{30, 200, 4000} {
		lines := manifest(n)
		for _, m := range []struct {
			body string
			v    any
			want float64
		}{
			// the []string: the lines are substrings of the body
			{mustMarshal(t, Checkout{ID: 1, Lines: lines}), new(Checkout), 1},
			// and the one string the escaped lines are unquoted into
			{mustMarshal(t, Checkout{ID: 1, Lines: withHeaders(lines)}), new(Checkout), 2},
			// the []string and the parent
			{mustMarshal(t, CommitRequest{Parent: &parent, Lines: lines}), new(CommitRequest), 2},
			// two of three ops have an "op" and nothing else; one has lines
			// and their own copy of them
			{mustMarshal(t, DiffResult{Ops: []DiffOp{{Op: "keep", N: 5}, {Op: "insert", Lines: lines}, {Op: "delete", N: 2}}}), new(DiffResult), 8},
		} {
			Decode(m.body, m.v) // size the pooled scratch
			if got := testing.AllocsPerRun(20, func() {
				if err := Decode(m.body, m.v); err != nil {
					t.Fatal(err)
				}
			}); got > m.want && !raceEnabled {
				t.Errorf("%T of %d lines: %v allocations, want at most %v", m.v, n, got, m.want)
			}
		}
	}
}

// TestDecodedArraysOwnTheirText checks that keeping a line of one array
// does not keep another array of the same body alive: a caller holding
// one small result of a batch checkout must not pin the batch.
func TestDecodedArraysOwnTheirText(t *testing.T) {
	const bigBytes = 16 << 20
	keepSmall := func() string {
		body := mustMarshal(t, []Checkout{{ID: 0, Lines: []string{"small"}}, {ID: 1, Lines: []string{strings.Repeat("x", bigBytes)}}})
		var out []Checkout
		if err := Decode(body, &out); err != nil {
			t.Fatal(err)
		}
		return out[0].Lines[0]
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	small := keepSmall()
	for range 3 { // encoding/json pools its encode buffer, and a pool survives two collections
		runtime.GC()
	}
	runtime.ReadMemStats(&after)
	if after.HeapAlloc > before.HeapAlloc+bigBytes/2 {
		t.Fatalf("keeping %q keeps %d bytes alive", small, after.HeapAlloc-before.HeapAlloc)
	}
}

// TestDecodeConcurrently shares the pooled cursors between goroutines
// decoding bodies of different sizes (run it under -race).
func TestDecodeConcurrently(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := manifest(10 + 300*g)
			body := mustMarshal(t, Checkout{ID: int32(g), Lines: want})
			for i := 0; i < 50; i++ {
				var got Checkout
				if err := Decode(body, &got); err != nil || got.ID != int32(g) || !slices.Equal(got.Lines, want) {
					t.Errorf("goroutine %d: decoded %d lines of %d, id %d, %v", g, len(got.Lines), len(want), got.ID, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestReadBody(t *testing.T) {
	for _, size := range []int64{-1, 5, MaxBody + 1} {
		b, err := ReadBody(strings.NewReader("hello"), size)
		if err != nil || string(b) != "hello" {
			t.Errorf("size %d: %q, %v", size, b, err)
		}
	}
	if _, err := ReadBody(strings.NewReader("hel"), 5); err == nil {
		t.Error("a body shorter than its Content-Length read without error")
	}
}

// stalledUpload sends ten bytes of a body and then, at its next read,
// records the heap the reader holds by then.
type stalledUpload struct {
	sent bool
	heap *runtime.MemStats
}

func (s *stalledUpload) Read(p []byte) (int, error) {
	if !s.sent {
		s.sent = true
		return copy(p, "0123456789"), nil
	}
	runtime.GC()
	runtime.ReadMemStats(s.heap)
	return 0, io.ErrUnexpectedEOF
}

// TestReadBodyHoldsWhatArrived pins that a declared Content-Length is not
// an allocation: a stalled upload that declares MaxBody and sends ten
// bytes holds what it sent and a buffer of at most 1 MiB, not 64 MiB.
func TestReadBodyHoldsWhatArrived(t *testing.T) {
	var before, during runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := ReadBody(&stalledUpload{heap: &during}, MaxBody); err != io.ErrUnexpectedEOF {
		t.Fatalf("stalled upload: %v, want %v", err, io.ErrUnexpectedEOF)
	}
	if grew := int64(during.HeapAlloc) - int64(before.HeapAlloc); grew >= 2<<20 {
		t.Fatalf("a body that declared %d bytes and sent 10 held %d bytes", MaxBody, grew)
	}
}
