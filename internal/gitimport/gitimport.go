// Package gitimport loads a real git repository's commit history into
// the manifest-per-version content model, so the storage-plan solvers
// and the serving stack run against genuine version DAGs instead of
// synthetic repogen graphs. It shells out to the git binary (rev-list,
// ls-tree, and one long-lived cat-file --batch process per load) — no
// cgo and no third-party git implementation — which keeps the module
// dependency-free while still reading packed and loose objects alike.
//
// Load walks the history oldest-first in topological order and renders
// every commit's tree as a versioning.EncodeManifest line slice (text
// blobs only: binary and oversized blobs are skipped and counted).
// Replay then feeds the commits, with their full parent sets, to any
// CommitFunc — versioning.Repository.CommitMerge for a local import,
// or the HTTP client for importing into a live daemon — so merge
// commits become true multi-parent versions whose candidate edges
// exercise the MSR/BMR/MMR/BSR regimes.
package gitimport

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"

	"repro/versioning"
)

// Options tunes Load. The zero value imports the full history at HEAD
// with a 1 MiB per-blob cap.
type Options struct {
	// Ref is the history tip to walk (default "HEAD").
	Ref string
	// MaxCommits keeps only the oldest N commits of the walk (0 = all).
	// Taking the oldest prefix keeps the kept window self-contained:
	// every kept commit's parents are either kept too or counted in
	// History.SkippedParents.
	MaxCommits int
	// MaxBlobBytes skips file blobs larger than this (0 = 1 MiB).
	// Binary blobs (containing NUL) are always skipped: manifest
	// content is line-oriented text.
	MaxBlobBytes int64
}

// Commit is one imported commit.
type Commit struct {
	Hash string
	// Parents are indices of earlier Commits, first parent first.
	// Parents outside the imported window (shallow clones, MaxCommits
	// cuts) are dropped and counted in History.SkippedParents.
	Parents []int
	// Files counts manifest entries; Skipped counts blobs dropped for
	// being binary or over MaxBlobBytes.
	Files   int
	Skipped int
	// Lines is the manifest-encoded version content (see
	// versioning.EncodeManifest).
	Lines []string
}

// History is a loaded git history, oldest commit first.
type History struct {
	Dir     string
	Ref     string
	Commits []Commit
	// SkippedParents counts parent links pointing outside the imported
	// window; the affected commits import as roots (or with a reduced
	// parent set).
	SkippedParents int
	// UniqueBlobs is how many distinct text blobs back the manifests.
	UniqueBlobs int
}

// Merges counts commits with more than one imported parent.
func (h *History) Merges() int {
	n := 0
	for _, c := range h.Commits {
		if len(c.Parents) > 1 {
			n++
		}
	}
	return n
}

// Available reports whether a git binary is on PATH.
func Available() bool {
	_, err := exec.LookPath("git")
	return err == nil
}

// Load walks dir's git history and renders every commit as a
// manifest-encoded version.
func Load(ctx context.Context, dir string, opt Options) (*History, error) {
	if opt.Ref == "" {
		opt.Ref = "HEAD"
	}
	if opt.MaxBlobBytes <= 0 {
		opt.MaxBlobBytes = 1 << 20
	}
	if strings.HasPrefix(opt.Ref, "-") {
		return nil, fmt.Errorf("gitimport: ref %q looks like an option", opt.Ref)
	}
	gitDir, err := resolveGitDir(ctx, dir)
	if err != nil {
		return nil, err
	}
	// Unterminated, "rev-list HEAD" is ambiguous to git wherever the
	// directory holds a file named HEAD, as a bare repository's does.
	walk, err := gitOutput(ctx, gitDir, "rev-list", "--reverse", "--topo-order", "--parents", "--end-of-options", opt.Ref, "--")
	if err != nil {
		return nil, fmt.Errorf("gitimport: walking %s at %s: %w", dir, opt.Ref, err)
	}
	h := &History{Dir: dir, Ref: opt.Ref}
	index := make(map[string]int) // hash -> commit index
	type rawCommit struct {
		hash    string
		parents []string
	}
	var raw []rawCommit
	for _, line := range strings.Split(strings.TrimSpace(walk), "\n") {
		if line == "" {
			continue
		}
		fields := strings.Fields(line)
		raw = append(raw, rawCommit{hash: fields[0], parents: fields[1:]})
		if opt.MaxCommits > 0 && len(raw) == opt.MaxCommits {
			break
		}
	}
	if len(raw) == 0 {
		return nil, fmt.Errorf("gitimport: %s has no commits at %s", dir, opt.Ref)
	}

	cf, err := startCatFile(ctx, gitDir)
	if err != nil {
		return nil, err
	}
	defer cf.close()
	blobs := make(map[string][]string) // oid -> content lines
	skipped := make(map[string]bool)   // oids dropped as binary/oversized
	for _, rc := range raw {
		c := Commit{Hash: rc.hash}
		for _, p := range rc.parents {
			if pi, ok := index[p]; ok {
				c.Parents = append(c.Parents, pi)
			} else {
				h.SkippedParents++
			}
		}
		entries, nSkipped, err := treeManifest(ctx, gitDir, rc.hash, cf, blobs, skipped, opt.MaxBlobBytes)
		if err != nil {
			return nil, fmt.Errorf("gitimport: reading tree of %s: %w", rc.hash, err)
		}
		c.Files = len(entries)
		c.Skipped = nSkipped
		c.Lines = versioning.EncodeManifest(entries)
		index[rc.hash] = len(h.Commits)
		h.Commits = append(h.Commits, c)
	}
	h.UniqueBlobs = len(blobs)
	return h, nil
}

// treeManifest lists commit's full tree and resolves every text blob
// through the shared cat-file process, memoizing blobs across commits
// (most of a tree is unchanged between neighbors).
func treeManifest(ctx context.Context, gitDir, commit string, cf *catFile, blobs map[string][]string, skipped map[string]bool, maxBlob int64) ([]versioning.ManifestEntry, int, error) {
	out, err := gitOutput(ctx, gitDir, "ls-tree", "-r", "-z", "--end-of-options", commit)
	if err != nil {
		return nil, 0, err
	}
	var entries []versioning.ManifestEntry
	nSkipped := 0
	for _, rec := range strings.Split(out, "\x00") {
		if rec == "" {
			continue
		}
		// "<mode> <type> <oid>\t<path>"
		meta, path, ok := strings.Cut(rec, "\t")
		if !ok {
			return nil, 0, fmt.Errorf("unparseable ls-tree record %q", rec)
		}
		fields := strings.Fields(meta)
		if len(fields) != 3 || fields[1] != "blob" {
			continue // submodule commits, symlink modes ride as blobs; trees never appear with -r
		}
		oid := fields[2]
		if skipped[oid] {
			nSkipped++
			continue
		}
		lines, ok := blobs[oid]
		if !ok {
			content, err := cf.blob(oid)
			if err != nil {
				return nil, 0, err
			}
			if int64(len(content)) > maxBlob || bytes.IndexByte(content, 0) >= 0 {
				skipped[oid] = true
				nSkipped++
				continue
			}
			lines = splitLines(content)
			blobs[oid] = lines
		}
		entries = append(entries, versioning.ManifestEntry{Path: path, Lines: lines})
	}
	return entries, nSkipped, nil
}

// splitLines turns blob bytes into manifest content lines (a trailing
// newline does not produce a final empty line).
func splitLines(b []byte) []string {
	if len(b) == 0 {
		return nil
	}
	s := strings.TrimSuffix(string(b), "\n")
	return strings.Split(s, "\n")
}

// resolveGitDir returns the absolute git directory of the repository at
// dir, and refuses a dir that is not itself a repository: left to its
// upward discovery, git would silently import whatever checkout encloses
// dir. Every later command names the directory with --git-dir, so
// discovery runs this once and nowhere else.
func resolveGitDir(ctx context.Context, dir string) (string, error) {
	out, err := runGit(exec.CommandContext(ctx, "git", "-C", dir, "rev-parse", "--absolute-git-dir"), "rev-parse")
	if err != nil {
		return "", fmt.Errorf("gitimport: %s is not a git repository: %w", dir, err)
	}
	gitDir := strings.TrimSpace(out)
	// Both sides resolved, so a symlinked dir compares equal to the
	// physical path git reports.
	root, err := filepath.Abs(dir)
	if err == nil {
		root, err = filepath.EvalSymlinks(root)
	}
	if err != nil {
		return "", fmt.Errorf("gitimport: resolving %s: %w", dir, err)
	}
	resolved, err := filepath.EvalSymlinks(gitDir)
	if err != nil {
		return "", fmt.Errorf("gitimport: resolving %s: %w", gitDir, err)
	}
	if rel, err := filepath.Rel(root, resolved); err != nil || rel == ".." || strings.HasPrefix(rel, ".."+string(filepath.Separator)) {
		return "", fmt.Errorf("gitimport: %s is not a git repository (git found %s, outside it)", dir, gitDir)
	}
	return gitDir, nil
}

// gitOutput runs one git subcommand on the repository at gitDir and
// returns its stdout.
func gitOutput(ctx context.Context, gitDir string, args ...string) (string, error) {
	return runGit(exec.CommandContext(ctx, "git", append([]string{"--git-dir=" + gitDir}, args...)...), args[0])
}

func runGit(cmd *exec.Cmd, name string) (string, error) {
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		msg := strings.TrimSpace(stderr.String())
		if msg == "" {
			msg = err.Error()
		}
		return "", fmt.Errorf("git %s: %s", name, msg)
	}
	return string(out), nil
}

// catFile is one long-lived `git cat-file --batch` process: object
// reads cost a pipe round trip instead of a process spawn each.
type catFile struct {
	cmd *exec.Cmd
	in  io.WriteCloser
	out *bufio.Reader
}

func startCatFile(ctx context.Context, gitDir string) (*catFile, error) {
	cmd := exec.CommandContext(ctx, "git", "--git-dir="+gitDir, "cat-file", "--batch")
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("gitimport: starting git cat-file: %w", err)
	}
	return &catFile{cmd: cmd, in: in, out: bufio.NewReaderSize(out, 1<<16)}, nil
}

// blob fetches one object's bytes through the batch protocol.
func (cf *catFile) blob(oid string) ([]byte, error) {
	if _, err := io.WriteString(cf.in, oid+"\n"); err != nil {
		return nil, fmt.Errorf("gitimport: cat-file request: %w", err)
	}
	header, err := cf.out.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("gitimport: cat-file response: %w", err)
	}
	fields := strings.Fields(strings.TrimSpace(header))
	if len(fields) == 2 && fields[1] == "missing" {
		return nil, fmt.Errorf("gitimport: object %s missing", oid)
	}
	if len(fields) != 3 {
		return nil, fmt.Errorf("gitimport: unparseable cat-file header %q", header)
	}
	size, err := strconv.ParseInt(fields[2], 10, 64)
	if err != nil || size < 0 {
		return nil, fmt.Errorf("gitimport: bad object size in %q", header)
	}
	buf := make([]byte, size+1) // content + trailing newline
	if _, err := io.ReadFull(cf.out, buf); err != nil {
		return nil, fmt.Errorf("gitimport: reading object %s: %w", oid, err)
	}
	return buf[:size], nil
}

func (cf *catFile) close() {
	cf.in.Close()
	_ = cf.cmd.Wait()
}

// CommitFunc lands one imported commit somewhere: a local
// Repository.CommitMerge, or an HTTP client's merge commit against a
// live daemon.
type CommitFunc func(ctx context.Context, parents []versioning.NodeID, lines []string) (versioning.NodeID, error)

// Replay feeds the history's commits, oldest first, to commit —
// mapping git parent links to the version ids the sink assigned — and
// returns the per-commit version ids. The sink may already hold
// versions; imported ids need not start at zero.
func (h *History) Replay(ctx context.Context, commit CommitFunc) ([]versioning.NodeID, error) {
	ids := make([]versioning.NodeID, len(h.Commits))
	for i, c := range h.Commits {
		parents := make([]versioning.NodeID, len(c.Parents))
		for j, pi := range c.Parents {
			parents[j] = ids[pi]
		}
		id, err := commit(ctx, parents, c.Lines)
		if err != nil {
			return ids[:i], fmt.Errorf("gitimport: committing %s (%d/%d): %w", c.Hash, i+1, len(h.Commits), err)
		}
		ids[i] = id
	}
	return ids, nil
}
