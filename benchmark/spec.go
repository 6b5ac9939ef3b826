package main

// A spec is one workload: the corpus the daemon is loaded with, the
// flags it runs under, and the traffic the closed-loop clients send.
// Every workload sends all four operations, because the benchmark
// contract wants every end-to-end metric from every run; what differs
// is which layer the bulk of the traffic lands on (see README.md).
type spec struct {
	name string
	why  string // one line, copied into BENCHMARK.json

	// Corpus, generated from the seed and committed during set-up by one
	// client, so version ids are the generator's own indices.
	tenants  int // 0 = one repository; else dsvd -multi with this many
	versions int // per repository
	doc      docShape
	branch   float64 // share of commits whose parent is not the head
	merge    float64 // share of commits with a second parent (CommitMerge)

	// Daemon configuration, rendered as dsvd flags by the untraced run
	// and as RepositoryOptions/serve.Options by the in-process stack.
	durable        bool // -data-dir / -tenants-dir on the run directory
	fsync          bool
	replanEvery    int
	cacheEntries   int   // -cache (0 = daemon default 256, <0 off)
	cacheBytes     int64 // -cache-bytes (0 = daemon default 64 MiB)
	respCacheBytes int64 // -resp-cache (0 = daemon default 64 MiB, <0 off)
	maxOpen        int   // -max-open (multi only)

	// Traffic of the measured window.
	mix        mix     // each op's kind is drawn with these shares, unless:
	sessions   bool    // ops come three at a time, as a pipeline job sends them: commit a child of a version of one tenant, check the version out, diff it against an ancestor
	zipf       float64 // version picks: 0 = uniform, else zipf exponent favouring recent ids
	tenantZipf float64 // tenant picks, same convention
	diffBack   int     // diff(v, k-th first-parent ancestor of v), k taking turns through 1..diffBack
	listOps    int     // ops generated per client; the list is cycled if a client outruns it
	warmOps    int     // leading ops of each list whose reads the set-up sends to warm the caches
	warmAll    bool    // first check every version out once: for a corpus meant to sit in the caches whole

	// Plan phase, run by one client before the window so that the graph
	// the solvers see, and hence plan_sum_retrieval and storage_ratio,
	// does not depend on how many ops the window fits: replanRounds
	// times {commit replanCommits versions, POST /replan}. In multi mode
	// round i goes to tenant i, and the plan's cost is summed over the
	// tenants that got a round.
	replanRounds  int
	replanCommits int

	// Guards against measuring the wrong thing (0 = not checked).
	minRespHit    float64 // response-cache hit ratio must reach this
	maxRespHit    float64 // ... and must stay below this
	maxStoreHit   float64 // store content-cache hit ratio must stay below this
	wantEvictions bool    // tenant LRU must have evicted
}

// mix is the share of each operation in the window; shares sum to 1.
type mix struct{ checkout, path, diff, commit float64 }

// docShape sizes one version's content. files == 0 is a plain document
// of lines[0]..lines[1] lines; otherwise the version is a manifest
// (versioning.EncodeManifest) of that many files, each that long.
type docShape struct {
	files int
	lines [2]int
	edits [2]int // lines touched per commit
}

const (
	kib = 1 << 10
	mib = 1 << 20
)

// workloads is the benchmark. Sizes are trimmed from ISSUE.md's so that
// 4+22×4 runs fit the driver's 3420 s: where the issue grew the corpus
// past the 64 MiB / 256-entry caches, history-read shrinks the caches
// below the corpus instead (the ratios are in README.md).
var workloads = []spec{
	{
		name: "hot-read",
		why:  "zipf reads of small versions that all fit the response cache: client, HTTP and serve cache hits do the work; store, diff and solver changes must not show",

		versions: 256, doc: docShape{lines: [2]int{30, 30}, edits: [2]int{1, 3}}, branch: 0.2,
		replanEvery: -1,
		mix:         mix{checkout: 0.965, diff: 0.03, commit: 0.005}, zipf: 1.2, diffBack: 2, listOps: 120000, warmOps: 1000, warmAll: true,
		replanRounds: 6, replanCommits: 8,
		minRespHit: 0.95,
	},
	{
		name: "history-read",
		why:  "uniform reads and ancestor diffs of 175 KB manifests, 2.7x the caches: store reconstruction, Myers diff and JSON of big bodies do the work",

		versions: 64, doc: docShape{files: 96, lines: [2]int{30, 50}, edits: [2]int{20, 60}}, branch: 0.2,
		durable: true, replanEvery: -1,
		cacheEntries: 16, cacheBytes: 4 * mib, respCacheBytes: 4 * mib,
		mix: mix{checkout: 0.55, path: 0.1, diff: 0.2, commit: 0.15}, diffBack: 8, listOps: 6000, warmOps: 100,
		replanRounds: 3, replanCommits: 2,
		maxRespHit: 0.6, maxStoreHit: 0.6,
	},
	{
		name: "fleet-write",
		why:  "24 tenants under -max-open 8 with -fsync, commits beside reads: Myers delta, WAL fsync, tenant eviction and reopen, background re-plans competing with requests",

		tenants: 24, versions: 8, doc: docShape{lines: [2]int{200, 200}, edits: [2]int{1, 10}}, branch: 0.2,
		durable: true, fsync: true, replanEvery: 8, maxOpen: 8,
		sessions: true, zipf: 1.2, tenantZipf: 1.5, diffBack: 4, listOps: 20000, warmOps: 200,
		replanRounds: 24, replanCommits: 5,
		wantEvictions: true,
	},
	{
		name: "replan-scale",
		why:  "800 small versions in a branching, merging graph with every cache off: the solver race and migration set replan_s, and reads pay the installed plan's retrieval depth",

		versions: 800, doc: docShape{lines: [2]int{30, 30}, edits: [2]int{1, 3}}, branch: 0.2, merge: 0.05,
		replanEvery: -1, cacheEntries: -1, respCacheBytes: -1,
		mix: mix{checkout: 0.8, diff: 0.1, commit: 0.1}, diffBack: 8, listOps: 60000, warmOps: 500,
		replanRounds: 3, replanCommits: 50,
	},
}

func findSpec(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
