GO ?= go

.PHONY: all build vet lint test benchmark-test race bench fuzz cover serve serve-durable load

all: vet build test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Lint: gofmt must be clean, vet must pass, and staticcheck runs when
# installed (CI installs it; locally it is optional).
lint: vet
	@fmt_out=$$(gofmt -l .); if [ -n "$$fmt_out" ]; then \
		echo "gofmt needed on:"; echo "$$fmt_out"; exit 1; fi
	@if command -v staticcheck >/dev/null 2>&1; then staticcheck ./...; \
		else echo "staticcheck not installed; skipping"; fi

test:
	$(GO) test ./...

# The repository benchmark is a nested module (benchmark/go.mod), which
# ./... does not reach.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzJSONRoundTrip -fuzztime=30s ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=30s ./versioning
	$(GO) test -run='^$$' -fuzz=FuzzTenantName -fuzztime=30s ./tenant
	$(GO) test -run='^$$' -fuzz=FuzzComputeMatchesReference -fuzztime=30s ./internal/diff
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMatchesEncodingJSON -fuzztime=30s -fuzzminimizetime=2s ./internal/wire

# Coverage for the storage + versioning + tenant core with the CI floor
# applied.
cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./internal/store/...,./versioning/...,./tenant/... ./internal/store/... ./versioning/... ./tenant/...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "combined store+versioning+tenant coverage: $$total%"; \
	awk -v t="$$total" 'BEGIN { exit (t+0 >= 70.0 ? 0 : 1) }' || \
		{ echo "coverage $$total% is below the 70% floor"; exit 1; }

# Run the dsvd serving daemon with a small preloaded demo history.
serve:
	$(GO) run ./cmd/dsvd -addr :8080 -demo 40

# Run dsvd on the durable disk backend: kill it, run again, and the
# committed history survives.
serve-durable:
	$(GO) run ./cmd/dsvd -addr :8080 -demo 40 -data-dir ./dsvd-data

# Load smoke: boot a durable dsvd, drive a 10s zipf checkout mix (the
# hot-version pattern the encoded-response cache exists for) plus a 10s
# mixed workload through dsvload, fail on any operation error, and
# leave BENCH_load.json behind; then boot a multi-tenant dsvd with
# -max-open far below the tenant count and drive a zipf-skewed
# 100-tenant mixed workload, so
# LRU eviction + transparent reopen are exercised with zero failures
# (BENCH_load_multi.json). Both daemons trace 1% of requests
# (-trace-sample), both dsvload runs sample traces for the per-phase
# breakdown in the reports, and the multi daemon's /metricsz is linted
# with benchgate -metrics before shutdown so a malformed Prometheus
# exposition fails the run. Each phase also smoke-checks the plan
# observatory with benchgate -planz (the multi phase through the hot
# head tenant t000): the run fails unless the daemon recorded at least
# one completed maintenance pass with a solver-race report and a
# non-empty heat top-k. CI runs all of it as the load-smoke job.
#
# A third phase exercises the real-history path: a fresh daemon is
# preloaded by dsvimport with the committed fixture history plus this
# repository's own git history (-src .; shallow checkouts just import
# fewer commits), then dsvload drives a checkout+diff read mix over the
# imported versions and leaves BENCH_import.json behind. benchgate
# gates it against the committed baseline with -allow-missing-base, so
# the PR that first creates the baseline still passes.
LOAD_ADDR ?= 127.0.0.1:8321
LOAD_TENANTS ?= 100
LOAD_MAX_OPEN ?= 16
load:
	@set -e; tmp=$$(mktemp -d); trap 'kill $$pid 2>/dev/null || true; rm -rf $$tmp' EXIT; \
	$(GO) build -o $$tmp/dsvd ./cmd/dsvd; \
	$(GO) build -o $$tmp/dsvload ./cmd/dsvload; \
	$(GO) build -o $$tmp/benchgate ./cmd/benchgate; \
	$$tmp/dsvd -addr $(LOAD_ADDR) -data-dir $$tmp/data -trace-sample 0.01 & pid=$$!; \
	ok=""; for i in $$(seq 1 50); do \
		if $$tmp/dsvload -addr http://$(LOAD_ADDR) -mix checkout -duration 0s -preload 1 -out - >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; done; \
	[ -n "$$ok" ] || { echo "dsvd did not become healthy"; exit 1; }; \
	$$tmp/dsvload -addr http://$(LOAD_ADDR) -mix checkout,mixed -duration 10s -concurrency 8 \
		-preload 32 -trace-sample 0.01 -out BENCH_load.json -fail-on-error; \
	$$tmp/benchgate -metrics http://$(LOAD_ADDR)/metricsz; \
	$$tmp/benchgate -planz http://$(LOAD_ADDR)/planz; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	$$tmp/dsvd -addr $(LOAD_ADDR) -multi -tenants-dir $$tmp/tenants -max-open $(LOAD_MAX_OPEN) -trace-sample 0.01 & pid=$$!; \
	ok=""; for i in $$(seq 1 50); do \
		if $$tmp/dsvload -addr http://$(LOAD_ADDR) -mix checkout -duration 0s -preload 1 -tenants 1 -out - >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; done; \
	[ -n "$$ok" ] || { echo "dsvd -multi did not become healthy"; exit 1; }; \
	$$tmp/dsvload -addr http://$(LOAD_ADDR) -mix mixed -duration 8s -concurrency 8 \
		-tenants $(LOAD_TENANTS) -tenant-dist zipf -preload $(LOAD_TENANTS) \
		-trace-sample 0.01 -out BENCH_load_multi.json -fail-on-error; \
	$$tmp/benchgate -metrics http://$(LOAD_ADDR)/metricsz; \
	$$tmp/benchgate -planz http://$(LOAD_ADDR)/t/t000/planz; \
	kill $$pid; wait $$pid 2>/dev/null || true; \
	$(GO) build -o $$tmp/dsvimport ./cmd/dsvimport; \
	$$tmp/dsvd -addr $(LOAD_ADDR) -data-dir $$tmp/import-data -trace-sample 0.01 & pid=$$!; \
	ok=""; for i in $$(seq 1 50); do \
		if $$tmp/dsvload -addr http://$(LOAD_ADDR) -mix checkout -duration 0s -preload 1 -out - >/dev/null 2>&1; then ok=1; break; fi; \
		sleep 0.2; done; \
	[ -n "$$ok" ] || { echo "dsvd (import phase) did not become healthy"; exit 1; }; \
	$$tmp/dsvimport -src internal/gitimport/testdata/fixture.git -addr http://$(LOAD_ADDR); \
	$$tmp/dsvimport -src . -max-commits 300 -addr http://$(LOAD_ADDR) -replan; \
	$$tmp/dsvload -addr http://$(LOAD_ADDR) -mix checkout,diff -duration 8s -concurrency 8 \
		-preload 1 -trace-sample 0.01 -out BENCH_import.json -fail-on-error; \
	$$tmp/benchgate -metrics http://$(LOAD_ADDR)/metricsz; \
	kill $$pid; wait $$pid 2>/dev/null || true
