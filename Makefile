# Targets mirror .github/workflows/ci.yml so local runs and CI stay in
# lockstep.

GO ?= go

# The committed machine-readable benchmark record for this PR generation
# (bench-json writes it; bench-regress compares a fresh run against it).
BENCH_JSON ?= BENCH_10.json

# The benchmarks the regression guard watches: the batch-compilation cold
# path, the single-large-circuit slice-miss path, the SMT bisection,
# the eq. 4 evaluator (memo cold and warm), and the flat-core hot spots
# they are built on (crosstalk construction,
# circuit analysis, frontier drain, layout/routing). Keep the pattern and
# the package list in lockstep with .github/workflows/ci.yml's
# bench-regression job.
BENCH_GUARD_PATTERN = BenchmarkBatchCompile|BenchmarkLargeCircuitCompile|BenchmarkSMTSolve|BenchmarkXtalkBuild|BenchmarkCircuitAnalysis|BenchmarkFrontier|BenchmarkRoute|BenchmarkEvaluate
BENCH_GUARD_PKGS = ./internal/bench/ ./internal/smt/ ./internal/xtalk/ ./internal/circuit/ ./internal/compile/ ./internal/noise/

.PHONY: all build test fastscbench-test lint lint-smoke fastscvet fuzz bench bench-json bench-regress warm-cache-check daemon daemon-smoke chaos-smoke

all: lint build test

build:
	$(GO) build ./...

test: fastscbench-test
	$(GO) test -race ./...

# fastscbench-test vets and tests cmd/fastscbench, a module of its own that
# the root ./... patterns never reach, although it imports the compile/core
# API directly. In lockstep with ci.yml's test job.
fastscbench-test:
	cd cmd/fastscbench && $(GO) vet ./... && $(GO) test ./...

# fastscvet builds the repo's own analyzer suite (internal/lint, five
# analyzers: maporder, hotalloc, poolpair, keyfields, ctxflow) as a
# go vet -vettool binary. docs/architecture.md ("Invariants &
# enforcement") maps each analyzer to the invariant it guards.
fastscvet:
	$(GO) build -o bin/fastscvet ./cmd/fastscvet

# lint = gofmt + go vet + fastscvet, in lockstep with ci.yml. Running
# fastscvet through go vet's -vettool protocol (rather than standalone)
# covers _test.go files too. CI's lint job additionally runs staticcheck
# and govulncheck, which need network to install and so do not run here.
lint: fastscvet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:" >&2; echo "$$unformatted" >&2; exit 1; \
	fi
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath bin/fastscvet) ./...

# lint-smoke proves the lint gate can actually fail: fastscvet over the
# deliberately-violating fixture package (which wildcard builds never
# see — it lives under testdata) must exit nonzero, or the wiring is
# decorative.
lint-smoke: fastscvet
	@if $(GO) vet -vettool=$(abspath bin/fastscvet) ./internal/lint/testdata/src/lintsmoke >/dev/null 2>&1; then \
		echo "lint-smoke: fastscvet passed the seeded-violation fixture; the lint gate is not wired" >&2; exit 1; \
	else \
		echo "lint-smoke: fastscvet correctly failed the seeded-violation fixture"; \
	fi

# fuzz runs the snapshot-decoder fuzz target, then the QASM parser's, each
# for a short, fixed time; a crasher either finds is written under its
# package's testdata/fuzz and belongs in the repo as a regression seed. In
# lockstep with ci.yml's fuzz job.
fuzz:
	$(GO) test -run='^$$' -fuzz='^FuzzDecodeSnapshot$$' -fuzztime=20s ./internal/compile/
	$(GO) test -run='^$$' -fuzz='^FuzzParse$$' -fuzztime=20s ./internal/qasm/

bench:
	$(GO) test -bench=. -benchmem -benchtime=1x -run='^$$' ./... | tee bench-results.txt

# bench-json runs the full benchmark suite and writes both the raw text
# (bench-results.txt) and the machine-readable $(BENCH_JSON) map of
# benchmark -> {ns/op, B/op, allocs/op, custom metrics}. CI uploads both
# as artifacts so the perf trajectory is tracked across PRs. -count=3 lets
# cmd/benchjson min-fold the samples (the committed record is the
# least-noise estimate, not one lucky or unlucky draw). The two steps are
# separate commands (not a pipeline) so a failing benchmark run fails the
# target instead of being masked by the parser's exit status.
bench-json:
	$(GO) test -bench=. -benchmem -benchtime=1x -count=3 -run='^$$' ./... > bench-results.txt
	$(GO) run ./cmd/benchjson < bench-results.txt > $(BENCH_JSON)
	@echo "wrote $(BENCH_JSON)"

# bench-regress re-runs the guarded benchmarks (batch compilation, xtalk
# build, circuit analysis, frontier drain) and fails when any regressed
# >30% in ns/op against the committed $(BENCH_JSON). The local threshold
# is looser than CI's 20%: the committed record min-folds samples, so the
# microsecond-scale benchmarks sit at their observed floor and an honest
# re-run can land 20–25% above it on a loaded machine. CI's regression job
# benches base and head on the same runner with the same methodology,
# which removes that bias; this target is only the local smoke check.
bench-regress:
	$(GO) test -bench='$(BENCH_GUARD_PATTERN)' -benchmem -benchtime=10x -count=6 -run='^$$' $(BENCH_GUARD_PKGS) > /tmp/bench-head.txt
	$(GO) run ./cmd/benchjson < /tmp/bench-head.txt > /tmp/bench-head.json
	$(GO) run ./cmd/benchcmp -baseline $(BENCH_JSON) -new /tmp/bench-head.json \
		-pattern '$(BENCH_GUARD_PATTERN)' -max-regress 30 -require-overlap

# Run the compile daemon locally (docs/api.md documents the endpoints).
daemon:
	$(GO) run ./cmd/fastscd

# Mirrors the CI daemon-smoke job: build fastscd, start it on an absent
# snapshot file and assert it logs a cold start, submit a batch over
# HTTP, assert valid schedules, a >90% cache hit rate on a repeat
# submission, nonzero /metrics hit counters, a single deep circuit with
# workers > 1 reporting into the batch-duration histogram, a clean
# SIGTERM drain that persists a snapshot, a warm restart from it, and a
# restart on the snapshot cut to 200 bytes that must log the degrade
# before it listens, count one corrupt load and still compile.
daemon-smoke:
	./scripts/daemon-smoke.sh

# Mirrors the CI chaos-smoke job: run fastscd with fault points armed
# (injected job panic, slow solves) and a durable batch store, drive it
# with cmd/fastscload, kill -9 mid-batch, restart, and assert the store
# recovered (epoch 2, finished batches intact, the mid-flight batch
# "interrupted", no acked id lost) and the periodic cache snapshot left a
# warm start behind.
chaos-smoke:
	./scripts/chaos-smoke.sh

# Mirrors the CI warm-cache job: a second Fig 9 sweep against the same
# cache snapshot must report a total hit rate above 95% and a slice hit
# rate above 99% — the snapshot carries every slice solution the sweep
# needs, so a warm rerun solves no slice afresh. The recipe is one shell
# line under `set -e`, so a failed sweep or either threshold fails it.
warm-cache-check:
	@set -e; snap=$$(mktemp -u)/fastsc-cache.snap; mkdir -p $$(dirname $$snap); \
	$(GO) run ./cmd/experiments -cache-file "$$snap" -cache-stats fig9 > /dev/null; \
	$(GO) run ./cmd/experiments -cache-file "$$snap" -cache-stats fig9 | tee warm-run.txt; \
	rate=$$(awk '/^total / {gsub(/%/,"",$$NF); rate=$$NF} END {print rate}' warm-run.txt); \
	slice=$$(awk '/^slice / {gsub(/%/,"",$$NF); rate=$$NF} END {print rate}' warm-run.txt); \
	echo "warm-run hit rate: total $$rate%, slice $$slice%"; \
	awk -v r="$$rate" 'BEGIN { if (r == "" || r <= 95) { print "warm hit rate " r "% is not > 95%"; exit 1 } }'; \
	awk -v r="$$slice" 'BEGIN { if (r == "" || r <= 99) { print "warm slice hit rate " r "% is not > 99%"; exit 1 } }'
