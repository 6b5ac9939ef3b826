package main

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/client"
	"repro/internal/diff"
	"repro/internal/gitimport"
	"repro/serve"
	"repro/versioning"
)

const fixtureDir = "../../internal/gitimport/testdata/fixture.git"

func loadSummary(t *testing.T, path string) summary {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var sum summary
	if err := json.Unmarshal(data, &sum); err != nil {
		t.Fatal(err)
	}
	return sum
}

// TestRunAnalyze imports the fixture into memory and checks the plan
// summary the analyze sink reports.
func TestRunAnalyze(t *testing.T) {
	if !gitimport.Available() {
		t.Skip("git binary not on PATH")
	}
	out := filepath.Join(t.TempDir(), "sum.json")
	if err := run(config{src: fixtureDir, ref: "HEAD", maxBlob: 1 << 20, out: out, repoName: "fx"}); err != nil {
		t.Fatal(err)
	}
	sum := loadSummary(t, out)
	if sum.Commits != 13 || sum.Merges != 2 || sum.Versions != 13 {
		t.Fatalf("analyze summary %+v, want 13 commits / 2 merges / 13 versions", sum)
	}
	if sum.StorageCost <= 0 || sum.SumRetrieval <= 0 {
		t.Fatalf("analyze mode reported no plan costs: %+v", sum)
	}
}

// TestRunHTTP imports the fixture into a live single-repo daemon over
// the wire, then reads the history back through the client: every
// version, a diff from each parent of both merges, and a path-scoped
// checkout, each compared with the lines the importer built.
func TestRunHTTP(t *testing.T) {
	if !gitimport.Available() {
		t.Skip("git binary not on PATH")
	}
	repo := versioning.NewRepository("t", versioning.RepositoryOptions{
		ReplanEvery:        -1,
		MaintenanceWorkers: -1,
	})
	defer repo.Close()
	ts := httptest.NewServer(serve.New(repo, serve.Options{}))
	defer ts.Close()

	out := filepath.Join(t.TempDir(), "sum.json")
	cfg := config{src: fixtureDir, ref: "HEAD", maxBlob: 1 << 20, addr: ts.URL, replan: true, out: out}
	if err := run(cfg); err != nil {
		t.Fatal(err)
	}
	sum := loadSummary(t, out)
	if sum.Versions != 13 {
		t.Fatalf("daemon holds %d versions after import, want 13", sum.Versions)
	}
	if sum.LastVersion != 12 {
		t.Fatalf("tip mapped to version %d, want 12", sum.LastVersion)
	}
	if repo.Stats().Versions != 13 {
		t.Fatalf("server repo has %d versions", repo.Stats().Versions)
	}

	// The oracle: what run sent. The repository was empty, so commit i
	// is version i.
	ctx := context.Background()
	h, err := gitimport.Load(ctx, fixtureDir, gitimport.Options{Ref: cfg.ref, MaxBlobBytes: cfg.maxBlob})
	if err != nil {
		t.Fatal(err)
	}
	c := client.New(ts.URL, client.Options{})
	defer c.Close()
	merges := 0
	for i, commit := range h.Commits {
		id := versioning.NodeID(i)
		got, err := c.Checkout(ctx, id)
		if err != nil {
			t.Fatalf("checkout %d (%s): %v", i, commit.Hash, err)
		}
		if !slices.Equal(got, commit.Lines) {
			t.Fatalf("checkout %d (%s): %d lines differ from the %d imported", i, commit.Hash, len(got), len(commit.Lines))
		}
		if len(commit.Parents) < 2 {
			continue
		}
		merges++
		for _, pi := range commit.Parents {
			d, err := c.Diff(ctx, versioning.NodeID(pi), id)
			if err != nil {
				t.Fatalf("diff %d -> %d: %v", pi, i, err)
			}
			if got := applyOps(t, h.Commits[pi].Lines, d.Ops); !slices.Equal(got, commit.Lines) {
				t.Fatalf("diff %d -> %d applied to the parent does not give the merge", pi, i)
			}
		}
	}
	if merges != 2 {
		t.Fatalf("read back %d merges, want 2", merges)
	}
	tip := versioning.NodeID(len(h.Commits) - 1)
	scoped, err := c.CheckoutPath(ctx, tip, "src/util")
	if err != nil {
		t.Fatal(err)
	}
	want := versioning.FilterManifest(h.Commits[tip].Lines, "src/util")
	if len(want) < 3 || !slices.Equal(scoped, want) {
		t.Fatalf("checkout %d?path=src/util = %q, want %q", tip, scoped, want)
	}
}

// applyOps applies a /diff edit script to src with the store's applier,
// which refuses a script that overruns src or leaves some of it unread.
func applyOps(t *testing.T, src []string, ops []client.DiffOp) []string {
	t.Helper()
	kinds := map[string]diff.Op{"keep": diff.OpKeep, "delete": diff.OpDelete, "insert": diff.OpInsert}
	var d diff.Delta
	for _, op := range ops {
		kind, ok := kinds[op.Op]
		if !ok {
			t.Fatalf("unknown diff op %q", op.Op)
		}
		d.Cmds = append(d.Cmds, diff.Cmd{Op: kind, N: op.N, Lines: op.Lines})
	}
	out, err := d.Apply(src)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
