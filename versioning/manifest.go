package versioning

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
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
