# Tier-1 verification gate (see ROADMAP.md): everything must build, vet
# clean, and pass tests; the concurrency-sensitive packages additionally
# run under the race detector.

GO ?= go

.PHONY: all check race bench bench-check perf-ab

all: check

check:
	$(GO) build ./...
	$(GO) vet ./...
	$(GO) test ./...
	$(MAKE) race

race:
	$(GO) test -race ./internal/telemetry ./internal/trace ./internal/metrics ./internal/fleet ./internal/rollout ./internal/tsdb ./internal/slo ./internal/twin ./internal/place ./internal/backend

# Reproducible perf baseline: runs the root figure benchmarks once each plus
# the hot-path microbenchmarks at fixed iteration counts, and writes the
# parsed results to BENCH_core.json. Override the budgets with
# BENCH_FLAGS="-figures 3x -micro 100000x" or shrink for CI with
# BENCH_FLAGS=-skip-figures.
bench:
	$(GO) run ./cmd/benchjson -out BENCH_core.json $(BENCH_FLAGS)

# Perf regression gate: rerun the benchmark suites into a scratch file and
# diff against the committed baseline — figure benchmarks fail on a >10%
# ns/op regression, every benchmark fails on any allocs/op growth.
bench-check:
	$(GO) run ./cmd/benchjson -out /tmp/BENCH_fresh.json -compare BENCH_core.json -tolerance 0.10 $(BENCH_FLAGS)

# Interleaved A/B timing of the repository benchmark (scripts/perf-ab.sh):
# AB_REF against the working tree on AB_WORKLOAD, one alternating pair per
# seed, AB_SECONDS of wall time per run. The defaults are a held-out claim
# run against the last commit.
AB_REF ?= HEAD
AB_WORKLOAD ?= host-steady
AB_SECONDS ?= 25
AB_SEEDS ?= 141 142 143 144 145 146 147 148 149 150

perf-ab:
	bash scripts/perf-ab.sh $(AB_REF) $(AB_WORKLOAD) $(AB_SECONDS) $(AB_SEEDS)
