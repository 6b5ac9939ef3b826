package versioning

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/diff"
)

func TestManifestEncodeParseRoundTrip(t *testing.T) {
	entries := []ManifestEntry{
		{Path: "src/main.go", Lines: []string{"package main", "", "func main() {}"}},
		{Path: "README.md", Lines: []string{"# hello"}},
		{Path: "src/util/empty.go", Lines: nil},
	}
	lines := EncodeManifest(entries)
	if !IsManifest(lines) {
		t.Fatalf("encoded manifest not recognized: %q", lines[0])
	}
	got, err := ParseManifest(lines)
	if err != nil {
		t.Fatal(err)
	}
	// Parse returns path-sorted entries; nil and empty line slices are
	// equivalent.
	want := []string{"README.md", "src/main.go", "src/util/empty.go"}
	if len(got) != len(want) {
		t.Fatalf("parsed %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Path != want[i] {
			t.Fatalf("entry %d path %q, want %q", i, e.Path, want[i])
		}
	}
	if !reflect.DeepEqual(got[1].Lines, entries[0].Lines) {
		t.Fatalf("src/main.go lines drifted: %q", got[1].Lines)
	}
	if len(got[2].Lines) != 0 {
		t.Fatalf("empty file gained lines: %q", got[2].Lines)
	}
}

func TestManifestEncodeDeterministic(t *testing.T) {
	a := EncodeManifest([]ManifestEntry{{Path: "b", Lines: []string{"2"}}, {Path: "a", Lines: []string{"1"}}})
	b := EncodeManifest([]ManifestEntry{{Path: "a", Lines: []string{"1"}}, {Path: "b", Lines: []string{"2"}}})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("entry order leaked into the encoding:\n%q\n%q", a, b)
	}
}

func TestParseManifestRejectsGarbage(t *testing.T) {
	if _, err := ParseManifest([]string{"just", "plain", "content"}); err == nil {
		t.Fatal("non-manifest input parsed without error")
	}
	// Truncated: header claims more lines than remain.
	bad := []string{manifestMagic, manifestHeaderPrefix + "5:a.txt", "only one"}
	if _, err := ParseManifest(bad); err == nil {
		t.Fatal("truncated manifest parsed without error")
	}
	// A stray content line where a header is expected.
	bad = []string{manifestMagic, "not a header"}
	if _, err := ParseManifest(bad); err == nil {
		t.Fatal("headerless manifest parsed without error")
	}
}

func TestFilterManifest(t *testing.T) {
	lines := EncodeManifest([]ManifestEntry{
		{Path: "cmd/a.go", Lines: []string{"a1", "a2"}},
		{Path: "cmd/sub/b.go", Lines: []string{"b1"}},
		{Path: "cmdx/c.go", Lines: []string{"c1"}},
		{Path: "top.txt", Lines: []string{"t1"}},
	})
	paths := func(ls []string) []string {
		es, err := ParseManifest(ls)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, e := range es {
			out = append(out, e.Path)
		}
		return out
	}
	// Directory prefix: matches cmd/ but not the sibling cmdx/.
	if got := paths(FilterManifest(lines, "cmd")); !reflect.DeepEqual(got, []string{"cmd/a.go", "cmd/sub/b.go"}) {
		t.Fatalf("prefix filter got %q", got)
	}
	// A trailing slash is the same scope.
	if got := paths(FilterManifest(lines, "cmd/")); !reflect.DeepEqual(got, []string{"cmd/a.go", "cmd/sub/b.go"}) {
		t.Fatalf("trailing-slash filter got %q", got)
	}
	// Exact file path: just that entry.
	if got := paths(FilterManifest(lines, "cmd/sub/b.go")); !reflect.DeepEqual(got, []string{"cmd/sub/b.go"}) {
		t.Fatalf("exact filter got %q", got)
	}
	// No match: an empty manifest, not an error.
	if got := FilterManifest(lines, "nope"); len(got) != 1 || !IsManifest(got) {
		t.Fatalf("no-match filter got %q", got)
	}
	// Empty path: the whole manifest.
	if got := FilterManifest(lines, ""); !reflect.DeepEqual(got, lines) {
		t.Fatalf("empty-path filter narrowed: %q", got)
	}
	// Non-manifest content scopes to the empty manifest.
	if got := FilterManifest([]string{"plain"}, "cmd"); len(got) != 1 || !IsManifest(got) {
		t.Fatalf("non-manifest filter got %q", got)
	}
}

// checkTreeScript asserts that d turns a into b and has Compute's
// canonical form: no empty command and no two adjacent commands of the
// same op.
func checkTreeScript(t *testing.T, a, b []string, d diff.Delta) {
	t.Helper()
	got, err := d.Apply(a)
	if err != nil {
		t.Fatalf("script does not apply: %v\n%+v", err, d.Cmds)
	}
	if !slices.Equal(got, b) {
		t.Fatalf("script produced %q, want %q", got, b)
	}
	for k, c := range d.Cmds {
		if c.N == 0 && len(c.Lines) == 0 {
			t.Fatalf("cmd %d is empty: %+v", k, d.Cmds)
		}
		if k > 0 && d.Cmds[k-1].Op == c.Op {
			t.Fatalf("cmds %d and %d share op %d: %+v", k-1, k, c.Op, d.Cmds)
		}
	}
}

// editLines is the size of a script: the lines it deletes and inserts.
func editLines(d diff.Delta) int {
	n := 0
	for _, c := range d.Cmds {
		if c.Op == diff.OpDelete {
			n += c.N
		}
		n += len(c.Lines)
	}
	return n
}

func TestDiffManifest(t *testing.T) {
	file := func(path string, lines ...string) ManifestEntry { return ManifestEntry{Path: path, Lines: lines} }
	m := func(entries ...ManifestEntry) []string { return EncodeManifest(entries) }
	header := func(n int, path string) string { return manifestHeaderPrefix + strconv.Itoa(n) + ":" + path }
	keep := func(n int) diff.Cmd { return diff.Cmd{Op: diff.OpKeep, N: n} }
	del := func(n int) diff.Cmd { return diff.Cmd{Op: diff.OpDelete, N: n} }
	ins := func(lines ...string) diff.Cmd { return diff.Cmd{Op: diff.OpInsert, Lines: lines} }

	for _, c := range []struct {
		name string
		a, b []string
		want []diff.Cmd // nil: the script must be diff.Compute(a, b)
	}{
		{"identical versions are one keep", m(file("a", "1", "2"), file("b", "3")), m(file("a", "1", "2"), file("b", "3")),
			[]diff.Cmd{keep(6)}},
		{"empty manifests", m(), m(), []diff.Cmd{keep(1)}},
		{"file added", m(file("a", "1")), m(file("a", "1"), file("b", "2")),
			[]diff.Cmd{keep(3), ins(header(1, "b"), "2")}},
		{"file removed", m(file("a", "1"), file("b", "2")), m(file("a", "1")),
			[]diff.Cmd{keep(3), del(2)}},
		{"header count changed", m(file("a", "1")), m(file("a", "1", "2")),
			[]diff.Cmd{keep(1), del(1), ins(header(2, "a")), keep(1), ins("2")}},
		{"untouched file beside one edited in the middle", m(file("a", "1", "2", "3"), file("b", "x")), m(file("a", "1", "X", "3"), file("b", "x")),
			[]diff.Cmd{keep(3), del(1), ins("X"), keep(3)}},
		{"every kind at once",
			m(file("edit", "e1", "e2", "e3"), file("gone", "x"), file("grow", "g1"), file("same", "s1")),
			m(file("edit", "e1", "E2", "e3"), file("grow", "g1", "g2"), file("new", "n1"), file("same", "s1")),
			[]diff.Cmd{keep(3), del(1), ins("E2"), keep(1), del(3), ins(header(2, "grow")), keep(1), ins("g2", header(1, "new"), "n1"), keep(2)}},
		{"empty files", m(file("a"), file("b")), m(file("a"), file("c")),
			[]diff.Cmd{keep(2), del(1), ins(header(0, "c"))}},
		{"empty file filled", m(file("a")), m(file("a", "1")),
			[]diff.Cmd{keep(1), del(1), ins(header(1, "a"), "1")}},
		{"every file replaced", m(file("a", "1"), file("b", "2")), m(file("c", "3")),
			[]diff.Cmd{keep(1), del(4), ins(header(1, "c"), "3")}},
		{"one side not a manifest", []string{"plain", "1"}, m(file("a", "1")), nil},
		{"other side not a manifest", m(file("a", "1")), []string{"plain", "1"}, nil},
		{"malformed header", []string{manifestMagic, manifestHeaderPrefix + "x:a", "1"}, m(file("a", "1")), nil},
		{"truncated file", []string{manifestMagic, header(3, "a"), "1"}, m(file("a", "1")), nil},
		{"unsorted paths", []string{manifestMagic, header(1, "b"), "2", header(1, "a"), "1"}, m(file("a", "1"), file("b", "3")), nil},
		{"repeated path", m(file("a", "1")), []string{manifestMagic, header(1, "a"), "1", header(1, "a"), "2"}, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			got := DiffManifest(c.a, c.b)
			checkTreeScript(t, c.a, c.b, got)
			want := c.want
			if want == nil {
				want = diff.Compute(c.a, c.b).Cmds
			}
			if !reflect.DeepEqual(got.Cmds, want) {
				t.Fatalf("script\n%+v\nwant\n%+v", got.Cmds, want)
			}
		})
	}
}

// manifestHistory is steps+1 versions of a tree shaped like the
// repository benchmark's history-read corpus: 96 files of 30–50 lines,
// each step replacing, inserting or deleting 20–60 lines of at most
// three files.
func manifestHistory(rng *rand.Rand, steps int) [][]string {
	line := func() string { return fmt.Sprintf("line %016x", rng.Uint64()) }
	files := make([]ManifestEntry, 96)
	for i := range files {
		lines := make([]string, 30+rng.Intn(21))
		for k := range lines {
			lines[k] = line()
		}
		files[i] = ManifestEntry{Path: fmt.Sprintf("d%02d/f%03d.txt", i/8, i), Lines: lines}
	}
	history := [][]string{EncodeManifest(files)}
	for s := 0; s < steps; s++ {
		touched := [3]int{rng.Intn(len(files)), rng.Intn(len(files)), rng.Intn(len(files))}
		for e, n := 0, 20+rng.Intn(41); e < n; e++ {
			f := &files[touched[rng.Intn(len(touched))]]
			at := rng.Intn(len(f.Lines))
			switch p := rng.Float64(); {
			case p < 0.6:
				f.Lines[at] = line()
			case p < 0.85 || len(f.Lines) < 2:
				f.Lines = slices.Insert(f.Lines, at, line())
			default:
				f.Lines = slices.Delete(f.Lines, at, at+1)
			}
		}
		history = append(history, EncodeManifest(files)) // copies the lines
	}
	return history
}

// TestDiffManifestHistory diffs history-read-shaped pairs 1–8 steps
// apart: the script applies, is as small as Compute's, and leaves both
// inputs as they were, including the spare capacity of b.
func TestDiffManifestHistory(t *testing.T) {
	history := manifestHistory(rand.New(rand.NewSource(29)), 24)
	for v := 1; v < len(history); v++ {
		for back := 1; back <= min(v, 8); back++ {
			a, want := history[v-back], history[v]
			aCopy := slices.Clone(a)
			b := append(make([]string, 0, len(want)+8), want...)
			spare := b[len(b):cap(b)]
			for k := range spare {
				spare[k] = "spare"
			}
			d := DiffManifest(aCopy, b)
			checkTreeScript(t, a, want, d)
			if got, least := editLines(d), editLines(diff.Compute(a, want)); got != least {
				t.Fatalf("versions %d..%d: %d edit lines, Compute %d", v-back, v, got, least)
			}
			if !slices.Equal(aCopy, a) || !slices.Equal(b, want) {
				t.Fatalf("versions %d..%d: an input changed", v-back, v)
			}
			for k, l := range spare {
				if l != "spare" {
					t.Fatalf("versions %d..%d: spare capacity of b written at %d: %q", v-back, v, k, l)
				}
			}
		}
	}
}

// fuzzVersion turns one side of FuzzManifestDiff's input into a version.
// A side whose first line is "m" is a manifest: each further line
// "path=l1,l2" is a file under a header with its true count, and any
// other line goes in as it is (a stray line, a hand-written header, a
// path out of order). Any other side is plain lines.
func fuzzVersion(s string) []string {
	if s == "" {
		return nil
	}
	lines := strings.Split(s, "\n")
	if lines[0] != "m" {
		return lines
	}
	out := []string{manifestMagic}
	for _, l := range lines[1:] {
		path, body, ok := strings.Cut(l, "=")
		if !ok {
			out = append(out, l)
			continue
		}
		var file []string
		if body != "" {
			file = strings.Split(body, ",")
		}
		out = append(out, manifestHeaderPrefix+strconv.Itoa(len(file))+":"+path)
		out = append(out, file...)
	}
	return out
}

// pathsIncrease reports whether entries are strictly sorted by path.
func pathsIncrease(entries []ManifestEntry) bool {
	for k := 1; k < len(entries); k++ {
		if entries[k-1].Path >= entries[k].Path {
			return false
		}
	}
	return true
}

// FuzzManifestDiff splits its input at the first '|' into two versions
// (fuzzVersion) and checks DiffManifest on them: the script applies and
// is canonical, neither input changes, a pair that is not two well-formed
// manifests gets diff.Compute's script, and no tree diff is smaller than
// Compute's minimal one. Its seeds are under testdata/fuzz.
func FuzzManifestDiff(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		sa, sb, _ := strings.Cut(string(data), "|")
		a, b := fuzzVersion(sa), fuzzVersion(sb)
		aCopy, bCopy := slices.Clone(a), slices.Clone(b)
		d := DiffManifest(a, b)
		if !slices.Equal(a, aCopy) || !slices.Equal(b, bCopy) {
			t.Fatal("an input changed")
		}
		checkTreeScript(t, a, b, d)
		ref := diff.Compute(a, b)
		ea, errA := ParseManifest(a)
		eb, errB := ParseManifest(b)
		if errA != nil || errB != nil || !pathsIncrease(ea) || !pathsIncrease(eb) {
			if !reflect.DeepEqual(d, ref) {
				t.Fatalf("fallback script\n%+v\nwant Compute's\n%+v", d.Cmds, ref.Cmds)
			}
		} else if editLines(d) < editLines(ref) {
			t.Fatalf("tree diff of %d edit lines beats Compute's minimal %d", editLines(d), editLines(ref))
		}
	})
}
