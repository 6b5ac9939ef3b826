// Command dsvimport ingests a real git repository's commit history
// into the dataset-versioning store, turning every commit into a
// manifest-encoded version with its true parent edges — merge commits
// become multi-parent versions whose extra edges enter the storage
// graph as candidate deltas. This is how the solver portfolio gets
// measured against genuine version DAGs instead of synthetic repogen
// graphs (the Section 7.1 "real repository" workloads).
//
// Three sinks, picked by flags:
//
//	dsvimport -src /path/to/repo -addr http://localhost:8080
//	    import into a live daemon over HTTP (add -tenant NAME for a
//	    multi-tenant daemon)
//	dsvimport -src /path/to/repo -data-dir ./data
//	    import into a local durable repository directory, no daemon
//	dsvimport -src /path/to/repo
//	    analyze only: import into memory, re-plan, and report the
//	    resulting storage-plan costs
//
// The importer shells out to the git binary (rev-list / ls-tree /
// cat-file --batch); binary and oversized blobs are skipped, so the
// manifests stay line-oriented text. A JSON summary of the run goes to
// stdout (and -out, when set).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"repro/client"
	"repro/internal/gitimport"
	"repro/versioning"
)

type config struct {
	src      string
	ref      string
	maxN     int
	maxBlob  int64
	addr     string
	tenant   string
	dataDir  string
	replan   bool
	out      string
	repoName string
}

// summary is the machine-readable import report.
type summary struct {
	Src             string  `json:"src"`
	Ref             string  `json:"ref"`
	Commits         int     `json:"commits"`
	Merges          int     `json:"merges"`
	SkippedParents  int     `json:"skipped_parents,omitempty"`
	UniqueBlobs     int     `json:"unique_blobs"`
	ImportSeconds   float64 `json:"import_seconds"`
	CommitsPerSec   float64 `json:"commits_per_sec"`
	Versions        int     `json:"versions"`
	FirstVersion    int64   `json:"first_version"`
	LastVersion     int64   `json:"last_version"`
	StorageCost     float64 `json:"storage_cost,omitempty"`
	SumRetrieval    float64 `json:"sum_retrieval_cost,omitempty"`
	MaxRetrieval    float64 `json:"max_retrieval_cost,omitempty"`
	MaterializedPct float64 `json:"materialized_pct,omitempty"`
}

func main() {
	var cfg config
	flag.StringVar(&cfg.src, "src", ".", "git repository (work tree or bare) to import")
	flag.StringVar(&cfg.ref, "ref", "HEAD", "history tip to walk")
	flag.IntVar(&cfg.maxN, "max-commits", 0, "import only the oldest N commits (0 = all)")
	flag.Int64Var(&cfg.maxBlob, "max-blob-bytes", 1<<20, "skip blobs larger than this")
	flag.StringVar(&cfg.addr, "addr", "", "import into the dsvd daemon at this base URL")
	flag.StringVar(&cfg.tenant, "tenant", "", "tenant namespace on a multi-tenant daemon (with -addr)")
	flag.StringVar(&cfg.dataDir, "data-dir", "", "import into a local durable repository directory (no daemon)")
	flag.BoolVar(&cfg.replan, "replan", false, "force a storage re-plan after the import")
	flag.StringVar(&cfg.out, "out", "", "also write the JSON summary to this path")
	flag.StringVar(&cfg.repoName, "name", "imported", "repository name with -data-dir or in analyze mode")
	flag.Parse()
	if cfg.addr != "" && cfg.dataDir != "" {
		fmt.Fprintln(os.Stderr, "dsvimport: -addr and -data-dir are mutually exclusive")
		os.Exit(1)
	}
	if !gitimport.Available() {
		fmt.Fprintln(os.Stderr, "dsvimport: no git binary on PATH")
		os.Exit(1)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "dsvimport: %v\n", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	ctx := context.Background()
	h, err := gitimport.Load(ctx, cfg.src, gitimport.Options{
		Ref:          cfg.ref,
		MaxCommits:   cfg.maxN,
		MaxBlobBytes: cfg.maxBlob,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "dsvimport: loaded %d commits (%d merges, %d unique blobs) from %s\n",
		len(h.Commits), h.Merges(), h.UniqueBlobs, cfg.src)

	sum := summary{
		Src:            cfg.src,
		Ref:            h.Ref,
		Commits:        len(h.Commits),
		Merges:         h.Merges(),
		SkippedParents: h.SkippedParents,
		UniqueBlobs:    h.UniqueBlobs,
	}
	start := time.Now()
	switch {
	case cfg.addr != "":
		err = importHTTP(ctx, cfg, h, &sum)
	default:
		err = importLocal(ctx, cfg, h, &sum)
	}
	if err != nil {
		return err
	}
	sum.ImportSeconds = time.Since(start).Seconds()
	if sum.ImportSeconds > 0 {
		sum.CommitsPerSec = float64(sum.Commits) / sum.ImportSeconds
	}

	buf, err := json.MarshalIndent(sum, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	os.Stdout.Write(buf)
	if cfg.out != "" {
		if err := os.WriteFile(cfg.out, buf, 0o644); err != nil {
			return fmt.Errorf("writing %s: %w", cfg.out, err)
		}
	}
	return nil
}

// importHTTP replays the history into a live daemon through the typed
// client — the same wire path real tooling would use.
func importHTTP(ctx context.Context, cfg config, h *gitimport.History, sum *summary) error {
	c := client.New(cfg.addr, client.Options{}).Tenant(cfg.tenant) // "" = the root repository
	defer c.Close()
	ids, err := h.Replay(ctx, func(ctx context.Context, parents []versioning.NodeID, lines []string) (versioning.NodeID, error) {
		var cr client.CommitResult
		var err error
		switch len(parents) {
		case 0:
			cr, err = c.Commit(ctx, versioning.NoParent, lines)
		case 1:
			cr, err = c.Commit(ctx, parents[0], lines)
		default:
			cr, err = c.CommitMerge(ctx, parents, lines)
		}
		return cr.ID, err
	})
	if err != nil {
		return err
	}
	recordIDs(sum, ids)
	if cfg.replan {
		if _, err := c.Replan(ctx); err != nil {
			return fmt.Errorf("re-plan after import: %w", err)
		}
	}
	st, err := c.Stats(ctx)
	if err != nil {
		return err
	}
	sum.Versions = st.Versions
	recordPlan(sum, st)
	return nil
}

// importLocal replays the history into a repository in this process: a
// durable one under -data-dir, or an in-memory analyze-only one.
func importLocal(ctx context.Context, cfg config, h *gitimport.History, sum *summary) error {
	opt := versioning.RepositoryOptions{DataDir: cfg.dataDir}
	var r *versioning.Repository
	var err error
	if cfg.dataDir != "" {
		r, err = versioning.Open(cfg.repoName, opt)
		if err != nil {
			return err
		}
	} else {
		r = versioning.NewRepository(cfg.repoName, opt)
		cfg.replan = true // analyze mode exists to report plan costs
	}
	defer r.Close()
	ids, err := h.Replay(ctx, func(ctx context.Context, parents []versioning.NodeID, lines []string) (versioning.NodeID, error) {
		if len(parents) == 0 {
			return r.Commit(ctx, versioning.NoParent, lines)
		}
		return r.CommitMerge(ctx, parents, lines)
	})
	if err != nil {
		return err
	}
	recordIDs(sum, ids)
	if cfg.replan {
		if err := r.Replan(ctx); err != nil {
			return fmt.Errorf("re-plan after import: %w", err)
		}
	}
	st := r.Stats()
	sum.Versions = st.Versions
	recordPlan(sum, st)
	return nil
}

func recordIDs(sum *summary, ids []versioning.NodeID) {
	if len(ids) > 0 {
		sum.FirstVersion = int64(ids[0])
		sum.LastVersion = int64(ids[len(ids)-1])
	}
}

func recordPlan(sum *summary, st versioning.RepositoryStats) {
	sum.StorageCost = float64(st.Storage)
	sum.SumRetrieval = float64(st.SumRetrieval)
	sum.MaxRetrieval = float64(st.MaxRetrieval)
	if st.Versions > 0 {
		sum.MaterializedPct = 100 * float64(st.Blobs) / float64(st.Versions)
	}
}
