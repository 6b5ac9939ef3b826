package gitimport

import (
	"context"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/versioning"
)

// The committed fixture (testdata/fixture.git) is a bare repo with 13
// commits: two feature branches, two merge commits, a binary blob that
// appears mid-history and is later deleted, and directory-structured
// paths for prefix filtering.
const (
	fixtureDir     = "testdata/fixture.git"
	fixtureCommits = 13
	fixtureMerges  = 2
)

func loadFixture(t *testing.T, opt Options) *History {
	t.Helper()
	if !Available() {
		t.Skip("git binary not on PATH")
	}
	h, err := Load(context.Background(), fixtureDir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestLoadFixtureShape(t *testing.T) {
	h := loadFixture(t, Options{})
	if len(h.Commits) != fixtureCommits {
		t.Fatalf("loaded %d commits, want %d", len(h.Commits), fixtureCommits)
	}
	if h.Merges() != fixtureMerges {
		t.Fatalf("found %d merges, want %d", h.Merges(), fixtureMerges)
	}
	if h.SkippedParents != 0 {
		t.Fatalf("full walk skipped %d parents", h.SkippedParents)
	}
	// Root commit has no parents; everything else points backward.
	if len(h.Commits[0].Parents) != 0 {
		t.Fatalf("root commit has parents: %v", h.Commits[0].Parents)
	}
	for i, c := range h.Commits {
		for _, p := range c.Parents {
			if p < 0 || p >= i {
				t.Fatalf("commit %d has non-topological parent %d", i, p)
			}
		}
		if !versioning.IsManifest(c.Lines) {
			t.Fatalf("commit %d content is not a manifest", i)
		}
	}
	// The binary blob must never surface as a manifest entry, and the
	// commit that introduces it must count the skip.
	sawSkip := false
	for i, c := range h.Commits {
		entries, err := versioning.ParseManifest(c.Lines)
		if err != nil {
			t.Fatalf("commit %d manifest: %v", i, err)
		}
		for _, e := range entries {
			if e.Path == "logo.bin" {
				t.Fatalf("binary blob imported at commit %d", i)
			}
		}
		if c.Skipped > 0 {
			sawSkip = true
		}
	}
	if !sawSkip {
		t.Fatal("no commit recorded a skipped binary blob")
	}
}

func TestLoadFixtureWindow(t *testing.T) {
	h := loadFixture(t, Options{MaxCommits: 5})
	if len(h.Commits) != 5 {
		t.Fatalf("windowed load kept %d commits, want 5", len(h.Commits))
	}
	// The oldest-prefix window is self-contained: no dangling parents.
	if h.SkippedParents != 0 {
		t.Fatalf("oldest-prefix window skipped %d parents", h.SkippedParents)
	}
}

// TestLoadBareRepoAtHEAD is the regression test for git ≥ 2.39 refusing
// "rev-list HEAD" inside a bare repository, whose directory holds a file
// named HEAD: the ref must reach git terminated, as a revision only.
func TestLoadBareRepoAtHEAD(t *testing.T) {
	h := loadFixture(t, Options{Ref: "HEAD"})
	if len(h.Commits) != fixtureCommits || h.Ref != "HEAD" {
		t.Fatalf("loaded %d commits at %q, want %d at HEAD", len(h.Commits), h.Ref, fixtureCommits)
	}
}

// TestLoadBesideFileNamedHEAD walks a work tree from a directory that
// holds a file named HEAD, where an unterminated "rev-list HEAD" is
// ambiguous between the revision and the path.
func TestLoadBesideFileNamedHEAD(t *testing.T) {
	if !Available() {
		t.Skip("git binary not on PATH")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "HEAD"), []byte("a file, not a ref\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	commitWorkTree(t, dir, "HEAD")
	h, err := Load(context.Background(), dir, Options{Ref: "HEAD"})
	if err != nil {
		t.Fatal(err)
	}
	if len(h.Commits) != 1 {
		t.Fatalf("loaded %d commits, want 1", len(h.Commits))
	}
}

// commitWorkTree makes dir a work tree with one commit holding file.
func commitWorkTree(t *testing.T, dir, file string) {
	t.Helper()
	for _, args := range [][]string{
		{"init", "-q"},
		{"add", file},
		{"-c", "user.name=t", "-c", "user.email=t@example.com", "commit", "-q", "-m", "one"},
	} {
		if out, err := exec.Command("git", append([]string{"-C", dir}, args...)...).CombinedOutput(); err != nil {
			t.Fatalf("git %s: %v: %s", args[0], err, out)
		}
	}
}

// TestLoadRefusesDirectoryInsideRepository: a directory that is not itself
// a repository must not import the checkout that happens to enclose it,
// which is what git's upward discovery would do.
func TestLoadRefusesDirectoryInsideRepository(t *testing.T) {
	if !Available() {
		t.Skip("git binary not on PATH")
	}
	outer := t.TempDir()
	if err := os.WriteFile(filepath.Join(outer, "file.txt"), []byte("content\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	commitWorkTree(t, outer, "file.txt")
	nested := filepath.Join(outer, "not-a-repo")
	if err := os.Mkdir(nested, 0o755); err != nil {
		t.Fatal(err)
	}
	if h, err := Load(context.Background(), nested, Options{}); err == nil || !strings.Contains(err.Error(), "not a git repository") {
		t.Fatalf("Load of an empty directory inside a work tree: %d commits, err %v; want a refusal", commitCount(h), err)
	}
	// The enclosing work tree itself, and a path to it through a symlink,
	// still load.
	link := filepath.Join(t.TempDir(), "link")
	if err := os.Symlink(outer, link); err != nil {
		t.Fatal(err)
	}
	for _, dir := range []string{outer, link} {
		h, err := Load(context.Background(), dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(h.Commits) != 1 {
			t.Fatalf("%s: loaded %d commits, want 1", dir, len(h.Commits))
		}
	}
}

func commitCount(h *History) int {
	if h == nil {
		return 0
	}
	return len(h.Commits)
}

// TestLoadRefusesOptionLikeRef: the ref comes from a command-line flag and
// must never be read by git as an option.
func TestLoadRefusesOptionLikeRef(t *testing.T) {
	for _, ref := range []string{"-n1", "--output=/tmp/owned", "-"} {
		if _, err := Load(context.Background(), fixtureDir, Options{Ref: ref}); err == nil || !strings.Contains(err.Error(), "looks like an option") {
			t.Fatalf("Load with ref %q: %v, want a refusal", ref, err)
		}
	}
}

// TestReplayRoundTrip imports the fixture into an in-memory Repository
// and checks every version's checkout parses back to the exact
// manifest the git tree produced — including across the merge commits.
func TestReplayRoundTrip(t *testing.T) {
	h := loadFixture(t, Options{})
	ctx := context.Background()
	r := versioning.NewRepository("fixture", versioning.RepositoryOptions{
		ReplanEvery:        -1,
		MaintenanceWorkers: -1,
	})
	defer r.Close()
	ids, err := h.Replay(ctx, func(ctx context.Context, parents []versioning.NodeID, lines []string) (versioning.NodeID, error) {
		if len(parents) == 0 {
			return r.Commit(ctx, versioning.NoParent, lines)
		}
		return r.CommitMerge(ctx, parents, lines)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != fixtureCommits || r.Versions() != fixtureCommits {
		t.Fatalf("replayed %d ids into %d versions, want %d", len(ids), r.Versions(), fixtureCommits)
	}
	// Merge commits contribute candidate edge pairs beyond the 2 edges
	// per plain child: 12 non-root commits x 2 + 2 merges x 2 extras.
	wantDeltas := (fixtureCommits-1)*2 + fixtureMerges*2
	if st := r.Stats(); st.Deltas != wantDeltas {
		t.Fatalf("replay built %d deltas, want %d", st.Deltas, wantDeltas)
	}
	for i, c := range h.Commits {
		got, err := r.Checkout(ctx, ids[i])
		if err != nil {
			t.Fatalf("checkout of commit %d (%s): %v", i, c.Hash, err)
		}
		wantEntries, err := versioning.ParseManifest(c.Lines)
		if err != nil {
			t.Fatal(err)
		}
		gotEntries, err := versioning.ParseManifest(got)
		if err != nil {
			t.Fatalf("checkout of commit %d is not a manifest: %v", i, err)
		}
		if len(gotEntries) != len(wantEntries) {
			t.Fatalf("commit %d: %d entries back, want %d", i, len(gotEntries), len(wantEntries))
		}
		for j := range wantEntries {
			if gotEntries[j].Path != wantEntries[j].Path {
				t.Fatalf("commit %d entry %d path %q, want %q", i, j, gotEntries[j].Path, wantEntries[j].Path)
			}
			if !equalLines(gotEntries[j].Lines, wantEntries[j].Lines) {
				t.Fatalf("commit %d file %q content drifted", i, wantEntries[j].Path)
			}
		}
	}
	// Path-scoped reads work on imported manifests: src/ narrows to the
	// source tree only.
	tip := ids[len(ids)-1]
	lines, err := r.Checkout(ctx, tip)
	if err != nil {
		t.Fatal(err)
	}
	scoped, err := versioning.ParseManifest(versioning.FilterManifest(lines, "src"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range scoped {
		if e.Path != "src/main.go" && e.Path != "src/util/math.go" && e.Path != "src/util/sub.go" {
			t.Fatalf("src scope leaked %q", e.Path)
		}
	}
	if len(scoped) != 3 {
		t.Fatalf("src scope has %d entries, want 3", len(scoped))
	}
}

func equalLines(a, b []string) bool {
	if len(a) == 0 && len(b) == 0 {
		return true
	}
	return reflect.DeepEqual(a, b)
}
