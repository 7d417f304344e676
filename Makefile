# distjoin — build, test, and experiment targets.

GO ?= go

# Export GOFLAGS into every recipe, so `make sim-smoke GOFLAGS=-count=1`
# (make-variable form, which make does NOT export by default) reaches
# the go tool exactly like the environment-variable form. In particular
# -count=1 keeps cached test results from masking a flaky seed.
export GOFLAGS

# Lint-tool versions — the single source of truth shared by local runs
# and CI (.github/workflows/ci.yml installs exactly these via
# `make lint-tools`), so the two can never disagree about what "clean"
# means.
STATICCHECK_VERSION ?= 2024.1.1
GOVULNCHECK_VERSION ?= v1.1.4
ACTIONLINT_VERSION ?= v1.7.7

.PHONY: all build vet vet-sarif allow-report lint lint-tools test test-short alloc-pins race race-memo cover cover-check sim-smoke sim-soak fuzz fuzz-smoke bench bench-smoke bench-json bench-diff bench-baseline bench-repo-test experiments examples ci clean

# Coverage floor for the cover-check gate: the suite sits above 80%,
# so the floor guards against untested subsystems landing, with a
# little margin for statement-count drift.
COVER_FLOOR ?= 78.0

# Simulation-harness knobs (cmd/distjoin-sim): smoke runs in default
# CI, soak runs nightly; SIM_POINTS samples fault-injection points per
# (algorithm, target), 0 = exhaustive.
SIM_SMOKE_DURATION ?= 30s
SIM_SOAK_DURATION ?= 5m
SIM_POINTS ?= 4

# Continuous-benchmark knobs: the committed baseline was produced with
# these values, so candidates must use the same ones to be comparable.
BENCH_SCALE ?= 0.02
BENCH_BASELINE ?= BENCH_34.json
BENCH_NEW ?= bench-new.json
BENCH_THRESHOLD ?= 0.25

all: build vet test

build:
	$(GO) build ./...

# The project lint suite (internal/analysis, docs/static-analysis.md)
# runs through go vet's -vettool protocol so its per-package results
# land in go's build cache alongside the standard vet checks. The
# binary itself is a file target keyed on every .go source under the
# command and the analysis package (found at recipe-expansion time, so
# files added after the Makefile was parsed still count; testdata
# fixtures are excluded — they are inputs to the analysis tests, not
# to the tool), and go's build cache makes even a triggered rebuild
# incremental.
VETTOOL := bin/distjoin-vet
VETTOOL_SRC := $(shell find cmd/distjoin-vet internal/analysis -name '*.go' -not -path '*/testdata/*')

$(VETTOOL): $(VETTOOL_SRC) go.mod
	$(GO) build -o $(VETTOOL) ./cmd/distjoin-vet

vet: $(VETTOOL)
	$(GO) vet ./...
	$(GO) vet -vettool=$(abspath $(VETTOOL)) ./...

# Emit the analyzer findings as SARIF 2.1.0 (bin/distjoin-vet.sarif)
# and structurally validate the artifact — the same two commands the
# CI lint job runs before uploading to code scanning. Exits non-zero
# when findings exist, after writing and validating the file.
vet-sarif: $(VETTOOL)
	@rc=0; $(VETTOOL) -sarif bin/distjoin-vet.sarif ./... || rc=$$?; \
	if [ "$$rc" -ne 0 ] && [ "$$rc" -ne 2 ]; then exit "$$rc"; fi; \
	$(VETTOOL) -check-sarif bin/distjoin-vet.sarif; \
	exit "$$rc"

# Audit every //lint:allow suppression in the tree: prints file:line,
# analyzer, and the stated reason; fails when any suppression is
# reasonless or names an unknown analyzer.
allow-report: $(VETTOOL)
	$(VETTOOL) -allow-report ./...

# Install the pinned lint toolchain (staticcheck, govulncheck,
# actionlint). CI runs this before `make lint`; locally it is optional —
# lint degrades missing binaries to notes.
lint-tools:
	$(GO) install honnef.co/go/tools/cmd/staticcheck@$(STATICCHECK_VERSION)
	$(GO) install golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION)
	$(GO) install github.com/rhysd/actionlint/cmd/actionlint@$(ACTIONLINT_VERSION)

# Fail if any file needs gofmt; run staticcheck, govulncheck and
# actionlint when available (CI installs the pinned versions via
# lint-tools — so a missing local binary degrades to a note instead of
# a hard dependency).
lint: vet
	@out="$$(gofmt -l .)"; \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "note: staticcheck not installed, skipping (make lint-tools)"; \
	fi
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "note: govulncheck not installed, skipping (make lint-tools)"; \
	fi
	@if command -v actionlint >/dev/null 2>&1; then \
		actionlint; \
	else \
		echo "note: actionlint not installed, skipping (make lint-tools)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# The allocation pins (every test named *Allocs*) twenty times over. What
# several of them count depends on sync.Pool state that other tests in
# the package leave behind, so a pin that passes once can still fail
# one run in two; repetition is what surfaces that.
alloc-pins:
	$(GO) test -count=20 -run 'Allocs' . ./internal/geom ./internal/hybridq ./internal/pqueue ./internal/rtree ./internal/serving ./internal/storage ./internal/sweep ./internal/join

race:
	$(GO) test -race ./...

# The sweep-order memo's shared decoded nodes and the buffer pool's
# recycled frames under the race detector, without -short and repeated:
# racing first-touch publication, several queries sweeping one node in
# place, the before/after digests that show no engine path writes
# through sweepRun.L/R, pinned frames evicted under their readers, and
# concurrent joins on file-backed indexes whose misses reuse frames.
race-memo:
	$(GO) test -race -count=3 -run 'SweepOrderMemo|SharedNodes|OrderedDecode|DecodedNodeRoom|ResizeBuffer|ConcurrentFirstTouch|PinnedFrame|ConcurrentPinnedReads|ConcurrentFileIndex' ./internal/storage ./internal/rtree ./internal/join .

cover:
	$(GO) test -cover ./...

# Coverage floor gate: fails when total statement coverage drops below
# COVER_FLOOR percent. Reuses coverage.out when the ci target already
# produced it.
cover-check:
	@[ -f coverage.out ] || $(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	@total="$$($(GO) tool cover -func=coverage.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}')"; \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% below floor $(COVER_FLOOR)%" >&2; exit 1; }

# Time-boxed deterministic-simulation run (internal/simtest): seed
# sweep with sampled fault-schedule exploration. The smoke tier gates
# every PR; the soak tier is the nightly long haul under -race, with
# the failing-seed repro line written where CI can upload it.
sim-smoke:
	$(GO) run ./cmd/distjoin-sim -duration $(SIM_SMOKE_DURATION) -faults -points $(SIM_POINTS)

sim-soak:
	$(GO) run -race ./cmd/distjoin-sim -duration $(SIM_SOAK_DURATION) -faults -points $(SIM_POINTS) -out sim-failures.txt

# Run every fuzz target for FUZZTIME each: 20s by hand, 10s in CI
# (fuzz-smoke), 2m in the nightly workflow. FuzzEndpoint drives a live
# server, whose coverage depends on the clock and on earlier requests:
# left at the default minute per input, the fuzzer spends most of its
# time failing to minimise inputs whose coverage does not reproduce.
FUZZTIME ?= 20s

fuzz:
	$(GO) test -fuzz=FuzzReadFrom -fuzztime=$(FUZZTIME) ./internal/datagen
	$(GO) test -fuzz=FuzzDecodeNode -fuzztime=$(FUZZTIME) ./internal/rtree
	$(GO) test -fuzz=FuzzPairRoundTrip -fuzztime=$(FUZZTIME) ./internal/hybridq
	$(GO) test -fuzz=FuzzBatchKernels -fuzztime=$(FUZZTIME) ./internal/geom
	$(GO) test -fuzz=FuzzIndex -fuzztime=$(FUZZTIME) ./internal/sweep
	$(GO) test -fuzz=FuzzRestrict -fuzztime=$(FUZZTIME) ./internal/join
	$(GO) test -fuzz=FuzzDistanceQueue -fuzztime=$(FUZZTIME) ./internal/pqueue
	$(GO) test -fuzz=FuzzScenario -fuzztime=$(FUZZTIME) ./internal/simtest
	$(GO) test -fuzz=FuzzEndpoint -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/serving
	$(GO) test -fuzz=FuzzAppendJSON -fuzztime=$(FUZZTIME) ./internal/serving

fuzz-smoke:
	$(MAKE) fuzz FUZZTIME=10s

bench:
	$(GO) test -bench=. -benchmem ./...

# Run every Go benchmark for one iteration, tests excluded: a benchmark
# that stopped compiling, panics or fails its own checks breaks CI
# here, not when someone next needs its numbers. The package list is
# found, not kept: every package with a Benchmark function, except the
# repository benchmark's module.
BENCH_PKGS = $(shell grep -rl --include='*_test.go' '^func Benchmark' . | grep -v '^\./benchmark/' | xargs -n1 dirname | sort -u)

bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x $(BENCH_PKGS)

# Write a schema-versioned perf record for the regression gate.
bench-json:
	$(GO) run ./cmd/distjoin-bench -bench-json $(BENCH_NEW) -scale $(BENCH_SCALE)

# Gate a candidate record against the committed baseline; fails when a
# deterministic cost counter regresses past BENCH_THRESHOLD. On a fresh
# clone (or after changing BENCH_BASELINE) the baseline may not exist
# yet — say exactly how to create it instead of letting benchdiff die
# on a missing file.
bench-diff: bench-json
	@if [ ! -f "$(BENCH_BASELINE)" ]; then \
		echo "bench-diff: baseline $(BENCH_BASELINE) not found." >&2; \
		echo "bench-diff: record one first with: make bench-baseline" >&2; \
		echo "bench-diff: (the record holds deterministic counters only, so any host will do)" >&2; \
		exit 1; \
	fi
	$(GO) run ./cmd/benchdiff -old $(BENCH_BASELINE) -new $(BENCH_NEW) -threshold $(BENCH_THRESHOLD)

# Refresh the committed baseline (after a justified counter shift).
bench-baseline:
	$(GO) run ./cmd/distjoin-bench -bench-json $(BENCH_BASELINE) -scale $(BENCH_SCALE)

# The repository benchmark (benchmark/, BENCHMARK.json) is a module of
# its own, so `go build ./... && go test ./...` never compiles it, yet it
# imports internal APIs of this one. Vet and test it here, so a change to
# those breaks CI and not the benchmark driver. About 20 s: it includes
# a quick pass over all five workloads. What it compiles against, and a
# PR outside benchmark/ therefore cannot rename or retype:
#   rtree:   Open, Item, NewBuilderForPageSize, Builder.Pack, Tree.Walk
#            (callback spelled func(storage.PageID, *rtree.Node) error,
#            so the alias `type Node = NodeSoA` stays until a [benchmark]
#            PR respells it), Tree.ReadNodeSoA, Tree.Pool, Tree.NumNodes,
#            NodeSoA with its exported fields and Rect/Len
#   sweep:   SoASorter.Sort, Plan, Direction, Forward, Backward
#   geom:    MinDistSqBatch
#   hybridq: New, Config, Pair, Queue.Push, RecordSize, FaultOp,
#            FaultSpill
#   join:    AMKDJ, Result, Options.QueueMemBytes/QueueStore/Metrics/
#            Estimator/Trace/QueueFaultHook
#   and what benchmark/*.go uses of the facade, datagen, estimate,
#   metrics, pqueue, storage and trace (grep its imports).
bench-repo-test:
	$(GO) vet -C benchmark .
	$(GO) test -C benchmark .

# Regenerate the paper's evaluation (tables to stdout, figures to ./figures).
experiments:
	$(GO) run ./cmd/distjoin-bench -exp all -svg figures

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/incremental -n 5000 -batch 200 -batches 3
	$(GO) run ./examples/tigerscale -n 10000
	$(GO) run ./examples/analytics -customers 5000
	$(GO) run ./examples/serving -duration 3s

# Everything the CI workflow (.github/workflows/ci.yml) runs, locally:
# lint gate, build, tests with coverage (the server smoke,
# TestServeSmoke, among them) + floor gate, repeated
# allocation pins, race detector
# (short suite, then the sweep-order memo's tests unshortened),
# simulation smoke, fuzz smoke, one-iteration benchmark
# smoke, bench regression gate, repository-benchmark module check.
ci: lint build
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	$(MAKE) cover-check
	$(MAKE) alloc-pins
	$(GO) test -race -short ./...
	$(MAKE) race-memo
	$(MAKE) sim-smoke
	$(MAKE) fuzz-smoke
	$(MAKE) bench-smoke
	$(MAKE) bench-diff
	$(MAKE) bench-repo-test

clean:
	$(GO) clean ./...
	rm -rf figures coverage.out bin $(BENCH_NEW)
