package versioning

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/diff"
)

// Manifest-encoded versions layer a path → file-lines structure on the
// repository's flat []string content model, so a version can hold a
// whole source tree (one entry per file) while commits, diffs, the
// journal, and the store keep operating on plain line slices. The
// encoding is line-based and count-framed:
//
//	line 0:            "\x00dsv:manifest:v1"          (magic)
//	per entry:         "\x00dsv:f:<n>:<path>"         (header)
//	                   ... n content lines verbatim ...
//
// Headers start with a NUL byte, which cannot appear in text file
// content (importers skip binary blobs), so no escaping of content
// lines is ever needed and a manifest is parsed in one linear scan.
// Because entries sort by path and content rides verbatim, two
// versions that share most files produce small Myers deltas — the
// property the storage-plan solvers optimize.
//
// Path-scoped checkouts (GET /checkout/{id}?path=...) are implemented
// by FilterManifest; cmd/dsvimport and internal/gitimport produce
// manifest-encoded versions from real git histories.
//
// GET /diff/{a}/{b} is DiffManifest, a tree diff: each file is diffed
// against the file at the same path, so Myers runs only on the files
// that changed, and the script is minimal within each file rather than
// over the whole version (a line that moves between files is a delete
// and an insert). Commits, stored deltas and journal replay keep
// diff.Compute's whole-version script: edge costs and delta keys depend
// on it.

// manifestMagic is the first line of every manifest-encoded version.
const manifestMagic = "\x00dsv:manifest:v1"

// manifestHeaderPrefix starts every per-file header line.
const manifestHeaderPrefix = "\x00dsv:f:"

// ManifestEntry is one file inside a manifest-encoded version.
type ManifestEntry struct {
	Path  string
	Lines []string
}

// EncodeManifest renders entries as a manifest-encoded line slice.
// Entries are emitted sorted by path (the input is not mutated), so
// encoding is deterministic and near-identical trees diff cheaply.
// Paths must be non-empty and NUL-free; offending entries make
// EncodeManifest panic, since they indicate importer bugs rather than
// user input.
func EncodeManifest(entries []ManifestEntry) []string {
	sorted := make([]ManifestEntry, len(entries))
	copy(sorted, entries)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Path < sorted[j].Path })
	n := 1
	for _, e := range sorted {
		n += 1 + len(e.Lines)
	}
	out := make([]string, 0, n)
	out = append(out, manifestMagic)
	for _, e := range sorted {
		if e.Path == "" || strings.ContainsRune(e.Path, 0) {
			panic(fmt.Sprintf("versioning: invalid manifest path %q", e.Path))
		}
		out = append(out, manifestHeaderPrefix+strconv.Itoa(len(e.Lines))+":"+e.Path)
		out = append(out, e.Lines...)
	}
	return out
}

// IsManifest reports whether lines carry the manifest encoding.
// Plain (non-manifest) versions — e.g. the synthetic bodies repogen
// generates — simply never start with the magic line.
func IsManifest(lines []string) bool {
	return len(lines) > 0 && lines[0] == manifestMagic
}

// ParseManifest decodes a manifest-encoded version into its entries.
// It errors on non-manifest input or a malformed/truncated header, so
// callers can distinguish "not a manifest" from corruption. Returned
// Lines sub-slices alias the input.
func ParseManifest(lines []string) ([]ManifestEntry, error) {
	if !IsManifest(lines) {
		return nil, fmt.Errorf("versioning: not a manifest-encoded version")
	}
	var entries []ManifestEntry
	i := 1
	for i < len(lines) {
		n, path, err := parseManifestHeader(lines[i])
		if err != nil {
			return nil, fmt.Errorf("versioning: manifest line %d: %w", i, err)
		}
		i++
		if n < 0 || n > len(lines)-i {
			return nil, fmt.Errorf("versioning: manifest entry %q claims %d lines, %d remain", path, n, len(lines)-i)
		}
		entries = append(entries, ManifestEntry{Path: path, Lines: lines[i : i+n : i+n]})
		i += n
	}
	return entries, nil
}

// parseManifestHeader splits one "\x00dsv:f:<n>:<path>" header.
func parseManifestHeader(line string) (n int, path string, err error) {
	rest, ok := strings.CutPrefix(line, manifestHeaderPrefix)
	if !ok {
		return 0, "", fmt.Errorf("expected a file header, got %q", line)
	}
	count, path, ok := strings.Cut(rest, ":")
	if !ok || path == "" {
		return 0, "", fmt.Errorf("malformed file header %q", line)
	}
	n, err = strconv.Atoi(count)
	if err != nil {
		return 0, "", fmt.Errorf("malformed line count in header %q", line)
	}
	return n, path, nil
}

// FilterManifest returns the manifest-encoded subset of lines whose
// entries match path: the entry at exactly that path, plus every entry
// under it as a directory prefix ("cmd" matches "cmd/a.go" but not
// "cmdx/a.go"; a trailing "/" on path is ignored). An empty path
// matches everything. Inputs that are not manifests — and manifests
// with no matching entry — filter to the empty manifest (just the
// magic line), so path scoping is total: it never errors, it only
// narrows.
func FilterManifest(lines []string, path string) []string {
	path = strings.TrimSuffix(path, "/")
	out := []string{manifestMagic}
	if !IsManifest(lines) {
		return out
	}
	if path == "" {
		return lines
	}
	i := 1
	for i < len(lines) {
		n, p, err := parseManifestHeader(lines[i])
		if err != nil || n < 0 || n > len(lines)-i-1 {
			return []string{manifestMagic} // corrupt: scope to nothing rather than mis-slice
		}
		if p == path || strings.HasPrefix(p, path+"/") {
			out = append(out, lines[i:i+1+n]...)
		}
		i += 1 + n
	}
	return out
}

// DiffManifest returns an edit script from a to b. When both are
// manifests it is a tree diff: the two path lists are walked in merged
// order, a file on one side only is deleted or inserted whole with its
// header, and a file on both sides keeps its header if it is unchanged
// (else deletes and inserts it, since the header carries the line count)
// and keeps its body if that is unchanged (else takes diff.Compute of the
// two bodies). So the script is minimal within each file, not over the
// whole version. Adjacent commands of the same op are merged, as in
// Compute's scripts, and inserted lines are copied into one slice the
// script owns. Input that is not a manifest on both sides, a header that
// does not parse, or paths that are not strictly increasing get
// diff.Compute(a, b) unchanged.
func DiffManifest(a, b []string) diff.Delta {
	if !IsManifest(a) || !IsManifest(b) {
		return diff.Compute(a, b)
	}
	fa, fb := manifestFiles{lines: a, next: 1}, manifestFiles{lines: b, next: 1}
	if !fa.step() || !fb.step() {
		return diff.Compute(a, b)
	}
	var s treeScript
	s.count(diff.OpKeep, 1) // the magic line
	for !fa.end || !fb.end {
		var ok bool
		switch {
		case fb.end || !fa.end && fa.path < fb.path:
			s.count(diff.OpDelete, fa.next-fa.header)
			ok = fa.step()
		case fa.end || fb.path < fa.path:
			s.insert(b[fb.header:fb.next])
			ok = fb.step()
		default:
			if a[fa.header] == b[fb.header] {
				s.count(diff.OpKeep, 1)
			} else {
				s.count(diff.OpDelete, 1)
				s.insert(b[fb.header : fb.header+1])
			}
			if slices.Equal(fa.body, fb.body) {
				s.count(diff.OpKeep, len(fa.body))
			} else {
				for _, c := range diff.Compute(fa.body, fb.body).Cmds {
					if c.Op == diff.OpInsert {
						s.insert(c.Lines)
					} else {
						s.count(c.Op, c.N)
					}
				}
			}
			ok = fa.step() && fb.step()
		}
		if !ok {
			return diff.Compute(a, b)
		}
	}
	return s.delta()
}

// manifestFiles steps through a manifest's entries for DiffManifest,
// parsing each header as it gets there.
type manifestFiles struct {
	lines  []string
	header int      // the current entry's header line
	path   string   // its path
	body   []string // its lines, a sub-slice of lines
	next   int      // where the entry after it starts
	end    bool     // past the last entry
}

// step moves to the next entry, or sets end after the last. It reports
// false on a header that does not parse, a body that overruns lines, or a
// path that does not sort after the one before it.
func (f *manifestFiles) step() bool {
	if f.next == len(f.lines) {
		f.end = true
		return true
	}
	n, path, err := parseManifestHeader(f.lines[f.next])
	if err != nil || n < 0 || n > len(f.lines)-f.next-1 || f.header > 0 && path <= f.path {
		return false
	}
	f.header, f.path = f.next, path
	f.body = f.lines[f.header+1 : f.header+1+n]
	f.next = f.header + 1 + n
	return true
}

// treeScript assembles DiffManifest's script. A command whose op
// matches the previous one's is merged into it. Inserted lines are
// copied into ins, never appended to a slice of the caller's version;
// until delta slices them out, an insert command's N is where its lines
// start in ins.
type treeScript struct {
	cmds []diff.Cmd
	ins  []string
}

// count appends a keep or a delete of n lines.
func (s *treeScript) count(op diff.Op, n int) {
	if n == 0 {
		return
	}
	if last := len(s.cmds) - 1; last >= 0 && s.cmds[last].Op == op {
		s.cmds[last].N += n
		return
	}
	s.cmds = append(s.cmds, diff.Cmd{Op: op, N: n})
}

// insert appends an insert of lines.
func (s *treeScript) insert(lines []string) {
	if len(lines) == 0 {
		return
	}
	if last := len(s.cmds) - 1; last < 0 || s.cmds[last].Op != diff.OpInsert {
		s.cmds = append(s.cmds, diff.Cmd{Op: diff.OpInsert, N: len(s.ins)})
	}
	s.ins = append(s.ins, lines...)
}

// delta gives each insert command its lines and returns the script.
func (s *treeScript) delta() diff.Delta {
	end := len(s.ins)
	for k := len(s.cmds) - 1; k >= 0; k-- {
		if c := &s.cmds[k]; c.Op == diff.OpInsert {
			start := c.N
			c.Lines, c.N = s.ins[start:end:end], 0
			end = start
		}
	}
	return diff.Delta{Cmds: s.cmds}
}
