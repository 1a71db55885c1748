# Local targets mirror the CI gate (.github/workflows/ci.yml) exactly:
# a green `make ci` means a green pipeline.

GO ?= go

.PHONY: all build test race repeat vet fmt lint staticcheck cross bench bench-json bench-gate bench-baseline bench-pair memprofile trace chaos chaos-service fuzz serve-smoke cluster-smoke load-gate perfbench-check cover ci tidy-check unreachable

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# repeat mirrors the CI repeat job: the packages it names must pass 20
# runs in a row, one package at a time.
repeat:
	$(GO) test -count=20 -p 1 ./internal/cluster ./internal/core ./internal/service ./internal/gateway ./internal/vecmath ./internal/resilience ./cmd/hmeansd ./cmd/hmeansgw

vet:
	$(GO) vet ./...

# cross mirrors the CI cross job: internal/som's weight update is
# amd64 assembly with a Go fallback, so every other GOARCH must vet,
# build, and compile the SOM tests without the assembly.
cross:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/som
	GOARCH=386 $(GO) build ./...

# fmt rewrites; lint (used by CI) only checks.
fmt:
	gofmt -w .

lint: vet staticcheck
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "files need gofmt:" >&2; echo "$$out" >&2; exit 1; \
	fi

# staticcheck runs when the binary is on PATH and degrades to a
# skip-with-notice otherwise, so `make lint` works on machines that
# never installed it. CI always runs it (the staticcheck job installs
# the pinned version below with `go install`).
STATICCHECK_VERSION := 2025.1.1
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI pins $(STATICCHECK_VERSION))" >&2; \
	fi

# Every benchmark runs exactly once (the CI bench-smoke job); use
# `go test -bench=... -benchtime=...` directly for real measurements.
bench:
	$(GO) test -bench=. -benchtime=1x ./... | tee bench.txt

# trace mirrors the CI obs-trace job: run the case-study pipeline
# with tracing on, validate the trace and render the stage timings.
trace:
	$(GO) run ./cmd/benchsim -emit sar > sar.csv
	$(GO) run ./cmd/benchsim -emit speedups > speedups.csv
	$(GO) run ./cmd/hmeans -scores speedups.csv -chars sar.csv -k 6 \
		-obs.trace trace.jsonl
	$(GO) run ./cmd/report -validate-trace trace.jsonl
	$(GO) run ./cmd/report -timings trace.jsonl

# The benchmark-regression gate measures a fixed set of kernel
# benchmarks (stable, single-process) with min-of-5 sampling and
# -benchmem, then compares the result against the committed baseline:
# ns/op within a 20% noise budget, allocs/op with zero tolerance
# (allocation counts are deterministic, so any increase is real). To
# refresh the baseline after an intentional performance change:
# `make bench-baseline` on the reference hardware and commit
# BENCH_BASELINE.json (see README "Benchmark regression gate").
BENCH_PATTERN := ^(BenchmarkHGM|BenchmarkHAM|BenchmarkHHM|BenchmarkPlainGM|BenchmarkBMU|BenchmarkQuantizationError|BenchmarkCutK|BenchmarkSilhouette|BenchmarkQualitySweep|BenchmarkSweep|BenchmarkRecommendK|BenchmarkTrainSequentialCaseStudy|BenchmarkTrainSequentialSuite500|BenchmarkTrainSequentialSuiteScale|BenchmarkNewDendrogramSuiteScale|BenchmarkNewDendrogramLarge|BenchmarkServiceScoreDark|BenchmarkServiceScoreLogged|BenchmarkServiceScoreDecoded|BenchmarkServiceScoreCaseStudy|BenchmarkServiceScoreMiss|BenchmarkCacheKeyCaseStudy|BenchmarkKernelSchedule|BenchmarkUpdateKernel|BenchmarkBMUSeeded)$$

bench-json:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -benchtime 50ms -count 5 -run '^$$' ./... | tee bench-raw.txt
	$(GO) run ./cmd/benchdiff -parse bench-raw.txt -o BENCH_PR.json

bench-gate: bench-json
	$(GO) run ./cmd/benchdiff -baseline BENCH_BASELINE.json -current BENCH_PR.json -max-regress 20

bench-baseline:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -benchtime 50ms -count 5 -run '^$$' ./... | tee bench-raw.txt
	$(GO) run ./cmd/benchdiff -parse bench-raw.txt -o BENCH_BASELINE.json

# bench-pair times one package's benchmarks at a base revision and in
# the working tree, in alternating order, and prints both sides' ns/op
# per round, medians, quartiles and wins (scripts/benchpair.sh). It
# changes neither bench-gate nor the baseline. Usage:
#   make bench-pair BASE=<rev> PKG=<pkg> BENCH='<regexp>' ROUNDS=10
bench-pair:
	BASE='$(BASE)' PKG='$(PKG)' BENCH='$(value BENCH)' ROUNDS='$(ROUNDS)' bash scripts/benchpair.sh

# memprofile captures heap profiles of the hot-kernel benchmarks for
# `go tool pprof`. All artifacts (*.prof, *.test) are gitignored.
memprofile:
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -benchtime 50ms -run '^$$' \
		-memprofile mem-core.prof -o core.test ./internal/core
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -benchtime 50ms -run '^$$' \
		-memprofile mem-som.prof -o som.test ./internal/som
	$(GO) test -bench '$(BENCH_PATTERN)' -benchmem -benchtime 50ms -run '^$$' \
		-memprofile mem-cluster.prof -o cluster.test ./internal/cluster
	@echo "inspect with: $(GO) tool pprof -sample_index=alloc_objects <pkg>.test mem-<pkg>.prof"

# serve-smoke mirrors the CI serve-smoke job: boot hmeansd, score the
# case study through hmeansctl, require line-identical output to the
# batch CLI, byte-identical cache hits, and a valid request trace.
serve-smoke:
	sh scripts/serve_smoke.sh

# cluster-smoke mirrors the CI cluster-smoke job: two hmeansd replicas
# behind an hmeansgw gateway — byte identity through the routing hop,
# cross-replica singleflight (one fleet-wide compute for a concurrent
# burst), 2-hop request-ID correlation, and a mid-load replica SIGTERM
# that must surface zero untyped 5xx.
cluster-smoke:
	sh scripts/cluster_smoke.sh

# load-gate mirrors the CI load-slo job: drive the paper's
# 13-workload case study through a self-managed hmeansd with the load
# harness (open loop, bursty pareto arrivals, the default
# hit/miss/invalid mix) and gate the run on the committed slo.json —
# p99 tail latency and error rate, not means. The rate (30 rps) was
# sized with the harness itself so a 1-CPU runner sustains it with
# ~5x p99 headroom; see EXPERIMENTS.md "Sizing the scoring daemon".
# The run is seeded, so the request sequence is identical everywhere.
load-gate:
	$(GO) run ./cmd/benchsim -emit sar > sar.csv
	$(GO) run ./cmd/benchsim -emit speedups > speedups.csv
	$(GO) run ./cmd/hmeansload -scores speedups.csv -chars sar.csv \
		-n 240 -rps 30 -dist pareto -seed 2007 \
		-o load-report.json -check slo.json

# perfbench-check mirrors the CI perfbench-check job. perfbench/ (the
# repo's benchmark) is a nested module, so the root build, vet, lint
# and test targets never compile it; vet and test it in place so an
# internal API change cannot silently break `bash perfbench/run.sh`.
perfbench-check:
	cd perfbench && $(GO) vet ./... && $(GO) test -count=1 .

# cover fails when total line coverage drops below the committed
# baseline (the seed repo's figure; ratchet it up, never down).
COVER_BASELINE := 86.8
cover:
	$(GO) test -count=1 -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (baseline $(COVER_BASELINE)%)"; \
	awk -v t="$$total" -v b="$(COVER_BASELINE)" 'BEGIN { exit (t+0 < b+0) ? 1 : 0 }' \
		|| { echo "coverage fell below the $(COVER_BASELINE)% baseline" >&2; exit 1; }

# tidy-check mirrors the CI vet-job drift check: go.mod must already
# be tidy (the module is dependency-free, so there is no go.sum).
tidy-check:
	$(GO) mod tidy
	git diff --exit-code -- go.mod

# chaos mirrors the CI chaos job: the deterministic fault-injection
# suite (internal/faultinject) under the race detector.
chaos:
	$(GO) test -race -run Chaos ./...

# chaos-service mirrors the CI chaos-service job: the network-level
# chaos suite — a seeded TCP chaos proxy (drops, stalls, truncated and
# corrupted responses) in front of a live scoring service — under the
# race detector. Every fault must surface as a typed client error, a
# successful retry, or a breaker-open; on failure the test log carries
# the proxy's seeded fault schedule, which replays the run exactly.
chaos-service:
	$(GO) test -race -count=1 -run ChaosService ./internal/faultinject/

# fuzz smoke-runs every fuzz target (the CI fuzz-smoke job): the
# serialization loaders, the agglomeration loop against its scan
# oracle, the means sweep against its pointwise oracle, the SOM's AVX2
# weight update against its Go loop, and the PCA against its d × d
# Jacobi oracle. Go
# permits one -fuzz pattern per invocation, so one line per target;
# raise FUZZTIME for a real fuzzing session.
FUZZTIME ?= 20s
fuzz:
	$(GO) test -fuzz FuzzReadScores -fuzztime $(FUZZTIME) ./internal/dataio
	$(GO) test -fuzz FuzzReadMatrix -fuzztime $(FUZZTIME) ./internal/dataio
	$(GO) test -fuzz FuzzReadClusters -fuzztime $(FUZZTIME) ./internal/dataio
	$(GO) test -fuzz FuzzLoadMap -fuzztime $(FUZZTIME) ./internal/som
	$(GO) test -fuzz FuzzUpdateKernel -fuzztime $(FUZZTIME) ./internal/som
	$(GO) test -fuzz FuzzBMUKernel -fuzztime $(FUZZTIME) ./internal/som
	$(GO) test -fuzz FuzzFit -fuzztime $(FUZZTIME) ./internal/pca
	$(GO) test -fuzz FuzzLoadDendrogram -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -fuzz FuzzAgglomerate -fuzztime $(FUZZTIME) ./internal/cluster
	$(GO) test -fuzz FuzzSweep -fuzztime $(FUZZTIME) ./internal/core
	$(GO) test -fuzz FuzzRestoreSnapshot -fuzztime $(FUZZTIME) ./internal/service
	$(GO) test -fuzz FuzzDecodeRequest -fuzztime $(FUZZTIME) ./internal/service

# unreachable lists each library function that no cmd/, examples/ or
# perfbench/ binary links: every main is built with inlining off for
# the module's packages, so a function a binary reaches keeps its own
# symbol in `go tool nm`. Not a gate: a function only tests call shows
# up too, so read the list as leads for deletion.
unreachable:
	sh scripts/unreachable.sh

ci: build lint cross tidy-check test race repeat chaos chaos-service fuzz bench trace bench-gate serve-smoke cluster-smoke load-gate perfbench-check cover
