# Development targets; CI runs the same commands (.github/workflows/ci.yml).

# bash + pipefail: the bench targets pipe `go test` through tee, and a
# failing benchmark run must fail the target instead of archiving a
# truncated BENCH_<sha>.json as if it succeeded.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go
BENCH_SHA ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo dev)

# Packages that define benchmarks, derived from the sources so a new
# benchmark file lands in the series by existing: hardcoding the list
# here once silently dropped whole packages from BENCH_<sha>.json.
BENCH_PKGS = $(shell grep -rl --include='*_test.go' 'func Benchmark' . | xargs -n1 dirname | sort -u)

# The hot-path series tracked across PRs (bench-hotpath, bench-json,
# and the committed BENCH_baseline.json regression gate).
BENCH_HOTPATH_RE = BenchmarkSamplingEstimatePlan|BenchmarkHashJoinKeys|BenchmarkSamplingValidation|BenchmarkReoptimizeOTT|BenchmarkSessionReoptimizeOTT|BenchmarkReoptimizeMultiSeed|BenchmarkWorkloadCache|BenchmarkSessionWorkloadParallel|BenchmarkWorkloadScheduler|BenchmarkExecutorJoinRows|BenchmarkShardedValidation|BenchmarkReoptdHTTP|BenchmarkTemplateWorkload|BenchmarkCatalogBuild

.PHONY: all vet build test race check lint chaos examples serve-smoke bench bench-smoke bench-hotpath bench-json bench-compare bench-baseline

all: check

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# race runs the suite under the race detector — the gate for the
# partitioned-parallel skeleton engine (workers share bitmaps by
# disjoint word ranges; the detector proves the disjointness claims).
race:
	$(GO) test -race ./...

# examples builds the example programs and the cmds as an explicit,
# separately reported CI step: `go build ./...` in `check` covers them
# too, but a dedicated step makes example drift against the public API
# fail visibly under its own name instead of inside the module build.
examples:
	$(GO) build ./examples/... ./cmd/...

# check is the tier-1 gate: vet, build, full test suite.
check: vet build test

# lint is the contract gate: go vet plus the repo's own analyzer suite
# (cmd/reoptvet; DESIGN.md §8). reoptvet enforces the written
# contracts — deterministic map iteration, goroutine panic
# containment, cache hygiene on error paths, budget-vs-ctx discipline,
# and the sentinel error taxonomy — and fails on any finding or bare
# //reoptvet:ignore.
lint: vet
	$(GO) run ./cmd/reoptvet ./...

# chaos runs the failure-isolation suite under the race detector at
# constrained parallelism (the CI shape): the fault-injection harness,
# the executor/core budget-and-panic tests, the Session chaos tests
# — injected panics, starvation memory budgets, admission shedding and
# close-under-load against one shared Session — and the reoptd daemon
# chaos tests (cross-tenant fault isolation, handler-boundary panics,
# kill-and-restart recovery), all with in-test goroutine-leak
# assertions.
chaos: vet
	GOMAXPROCS=2 $(GO) test -race -count=1 ./internal/faultinject
	GOMAXPROCS=2 $(GO) test -race -count=1 \
		-run 'TestChaos|TestPanic|TestMemoryBudget|TestMemBudget|TestRunSpans' \
		. ./internal/executor ./internal/core ./internal/server

# serve-smoke builds cmd/reoptd and drives a real daemon process across
# its lifecycle: readiness, one reoptimize, an over-quota burst that
# must shed at least one 429 with a Retry-After hint, then SIGTERM and
# a clean (exit 0) drain within the grace period.
serve-smoke:
	mkdir -p bin
	$(GO) build -o bin/reoptd ./cmd/reoptd
	$(GO) run ./cmd/servesmoke -bin bin/reoptd

# bench-smoke runs every benchmark for a single iteration — a cheap
# compile-and-execute pass that CI uses to keep the harness green.
bench-smoke:
	$(GO) test -run xxx -bench . -benchtime 1x $(BENCH_PKGS)

# bench-hotpath measures the re-optimization hot path with allocation
# counts (the series tracked across PRs), over the same derived package
# list as bench-json so no series benchmark can silently drop out.
bench-hotpath:
	$(GO) test -run xxx -bench '$(BENCH_HOTPATH_RE)' -benchtime 2s -benchmem $(BENCH_PKGS)

# bench runs everything and archives the numbers as machine-readable
# JSON (ns/op, B/op, allocs/op per benchmark) named after the commit,
# so the perf trajectory is diffable across PRs.
bench:
	$(GO) test -run xxx -bench . -benchmem ./... | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -sha $(BENCH_SHA) -out BENCH_$(BENCH_SHA).json

# bench-json is the CI variant: the hot-path series only (fast enough
# for every push), over the derived benchmark packages, archived as
# BENCH_<sha>.json and uploaded as a workflow artifact. 2s benchtime:
# the regression gate compares these numbers against the committed
# baseline, and 1s runs carry too much scheduler/turbo noise.
bench-json:
	$(GO) test -run xxx -bench '$(BENCH_HOTPATH_RE)' -benchtime 2s -benchmem $(BENCH_PKGS) | tee bench.out
	$(GO) run ./cmd/benchjson -in bench.out -sha $(BENCH_SHA) -out BENCH_$(BENCH_SHA).json

# bench-compare regenerates the hot-path series and fails on a >25%
# ns/op or B/op regression against the committed baseline (or on a
# benchmark silently dropping out of the series). CI runs it with
# GOMAXPROCS>=2; the verdict lines land in BENCH_compare.txt for the
# artifact upload.
bench-compare: bench-json
	$(GO) run ./cmd/benchjson -baseline BENCH_baseline.json -against BENCH_$(BENCH_SHA).json -max-regress 25 | tee BENCH_compare.txt

# bench-baseline refreshes the committed baseline from a fresh run.
# Regenerate (on the CI runner class, GOMAXPROCS>=2) whenever the
# series changes shape or the runner hardware shifts, and commit the
# result.
bench-baseline: bench-json
	cp BENCH_$(BENCH_SHA).json BENCH_baseline.json
	@echo "bench-baseline: wrote BENCH_baseline.json — commit it"
