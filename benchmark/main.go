// Command benchmark is the repository's benchmark: it loads a dsvd
// daemon with a corpus generated from a seed, drives it from closed-loop
// clients through package client, checks every answer against the
// generator, and prints one JSON object of metrics. README.md says why
// each workload and metric is there; BENCHMARK.json, at the repository
// root, is the contract the driver reads.
//
//	--trace 0  end-to-end metrics, against a dsvd process (--dsvd)
//	--trace 1  per-layer metrics, against the same stack in-process
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload name (see BENCHMARK.json)")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 10, "length of the measured window")
		traced  = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from the traced in-process run")
		dsvd    = flag.String("dsvd", "", "built cmd/dsvd binary (needed with --trace 0)")
		workdir = flag.String("workdir", ".bench_build", "scratch directory; run data is made and removed under it")
	)
	flag.Parse()
	s, ok := findSpec(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q\n", *name)
		os.Exit(2)
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(2)
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: pinning to one CPU: %v\n", err)
		os.Exit(2)
	}
	// The generator keeps a large, long-lived heap (corpus, op lists,
	// oracle); collecting it as eagerly as a server would only adds
	// jitter to the client side of every latency. (The untraced run goes
	// further: see runUntraced.)
	debug.SetGCPercent(400)
	cfg := config{
		spec: s, seed: *seed, window: time.Duration(*seconds) * time.Second,
		clients: 1, workdir: *workdir, outDir: filepath.Join("benchmark", "out"), minTail: 10,
		logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...) },
	}
	var res result
	var err error
	if *traced != 0 {
		res, err = runTraced(context.Background(), cfg)
	} else {
		res, err = runUntraced(context.Background(), cfg, *dsvd)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}
