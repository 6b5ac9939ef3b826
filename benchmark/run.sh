#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds cmd/dsvd and the benchmark
# from source into .bench_build/ (a no-op when they are up to date) and
# runs the benchmark with the driver's arguments. Run from the root of
# a checkout. Everything the build writes, the Go build and module
# caches included, stays inside the checkout.
set -euo pipefail

root=$PWD
build=$root/.bench_build
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache GOTMPDIR=$build/tmp
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go build -o "$build/bin/dsvd" ./cmd/dsvd
go build -C benchmark -o "$build/bin/benchmark" .

exec "$build/bin/benchmark" --dsvd "$build/bin/dsvd" --workdir "$build" "$@"
