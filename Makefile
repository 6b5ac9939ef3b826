GO ?= go

.PHONY: all build vet lint size test examples benchmark-test benchmark-smoke race bench fuzz fuzz-check cover serve serve-durable

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

# Size: the two figures a simplicity PR is accepted on (ROADMAP item 6),
# non-test Go lines outside benchmark/ and dsvd's flag count. The figures
# gate nothing; what fails is a flag that `dsvd -h` prints and README's
# flag tables do not list, or the reverse.
size:
	@echo "non-test Go lines outside benchmark/: $$(find . -name '*.go' -not -name '*_test.go' -not -path './.bench_build/*' -not -path './benchmark/*' | xargs cat | wc -l)"
	@have=$$($(GO) run ./cmd/dsvd -h 2>&1 | sed -n 's/^  \(-[a-z-]*\).*/\1/p'); \
	doc=$$(grep '^| `-' README.md | cut -d'|' -f2 | grep -o '`-[a-z-]*`' | tr -d '`'); \
	echo "dsvd flags: $$(echo "$$have" | wc -l)"; \
	for f in $$have; do echo "$$doc" | grep -qx -- "$$f" || { echo "  $$f: in dsvd -h, not in README's flag tables"; bad=1; }; done; \
	for f in $$doc; do echo "$$have" | grep -qx -- "$$f" || { echo "  $$f: in README's flag tables, not in dsvd -h"; bad=1; }; done; \
	[ -z "$$bad" ]

test:
	$(GO) test ./...

# Examples: run each one once; an example exits non-zero when a step
# fails. gitrepo's second act imports a git checkout, which -import-src ""
# skips.
examples:
	@set -e; for ex in quickstart mlpipeline datalake serving; do \
		echo "== examples/$$ex"; $(GO) run ./examples/$$ex; \
	done; \
	echo "== examples/gitrepo"; $(GO) run ./examples/gitrepo -import-src ""

# The repository benchmark is a nested module (benchmark/go.mod), which
# ./... does not reach.
benchmark-test:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -run='^$$' -bench=. -benchmem ./...

# Fuzz smoke: every fuzz target for FUZZTIME each (CI runs it at 20s).
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run='^$$' -fuzz=FuzzJSONRoundTrip -fuzztime=$(FUZZTIME) ./internal/graph
	$(GO) test -run='^$$' -fuzz=FuzzWALReplay -fuzztime=$(FUZZTIME) ./versioning
	$(GO) test -run='^$$' -fuzz=FuzzManifestDiff -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./versioning
	$(GO) test -run='^$$' -fuzz=FuzzTenantName -fuzztime=$(FUZZTIME) ./tenant
	$(GO) test -run='^$$' -fuzz=FuzzComputeMatchesReference -fuzztime=$(FUZZTIME) ./internal/diff
	$(GO) test -run='^$$' -fuzz=FuzzApplyToMatchesApply -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/diff
	$(GO) test -run='^$$' -fuzz=FuzzDecodeDelta -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/store
	$(GO) test -run='^$$' -fuzz=FuzzDecodeMatchesEncodingJSON -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzEncodeMatchesEncodingJSON -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/wire
	$(GO) test -run='^$$' -fuzz=FuzzMergeKernelMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/dptree
	$(GO) test -run='^$$' -fuzz=FuzzBMRMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/dptree
	$(GO) test -run='^$$' -fuzz=FuzzLMGAllMatchesReference -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/lmg

# Fuzz lists: the fuzz target above and nightly's matrix each name every
# func Fuzz* in a _test.go file, and no other (CI's lint job runs it).
fuzz-check:
	@have=$$(grep -rhoE --include='*_test.go' --exclude-dir=.bench_build '^func Fuzz[A-Za-z0-9_]+' . | sed 's/^func //' | sort -u); \
	for list in Makefile .github/workflows/nightly.yml; do \
		named=$$(grep -oE '(-fuzz=|- target: )Fuzz[A-Za-z0-9_]+' $$list | sed 's/.*Fuzz/Fuzz/' | sort -u); \
		for f in $$have; do echo "$$named" | grep -qx -- "$$f" || { echo "  $$f: a fuzz test, not in $$list"; bad=1; }; done; \
		for f in $$named; do echo "$$have" | grep -qx -- "$$f" || { echo "  $$f: in $$list, no such fuzz test"; bad=1; }; done; \
	done; \
	echo "fuzz targets: $$(echo "$$have" | wc -l)"; \
	[ -z "$$bad" ]

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

# Benchmark smoke: one short run of each BENCHMARK.json workload through
# the repository benchmark's own runner, which boots the real dsvd
# (-fsync, -multi -max-open, SIGKILL and restart), checks every answer
# against its generator and exits 1 on "correct": false. It judges
# nothing about speed; benchmark/README.md says how a claim is paired.
benchmark-smoke:
	@set -e; for w in hot-read history-read fleet-write replan-scale; do \
		bash benchmark/run.sh --workload $$w --seed 1 --seconds 6 --trace 0; \
	done
