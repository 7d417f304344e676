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

.PHONY: all build cross-build vet vet-sarif allow-report inline-check lint lint-tools test test-short alloc-pins race race-memo cover cover-check sim-smoke sim-soak fuzz fuzz-smoke bench bench-smoke bench-json bench-diff bench-baseline bench-repo-test experiments examples ci clean

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
BENCH_BASELINE ?= BENCH_39.json
BENCH_NEW ?= bench-new.json
BENCH_THRESHOLD ?= 0.25

all: build vet test

build:
	$(GO) build ./...

# Builds for an OS without mmap (opened index files read into memory,
# internal/storage/mmap_other.go) and for another unix, so code only
# the Linux build compiles cannot break either.
cross-build:
	GOOS=windows $(GO) build ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...

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

# The main queue's order must inline where it is hot: keyLess at the
# three comparison sites of the heap's sifts (heap.go: siftUp's one,
# siftDown's child pick and its test) and in the split sort's Less
# (pool.go), with the comparison body it shares with PairLess, ordered,
# inlined at each of them. A change that pushes either past the
# inliner's budget turns every comparison into a call and the heap
# slows down without failing a test; this target fails instead. Sites
# are counted once each, however often the compiler inlines the sift
# around them. INLINE_PINS names more calls that must inline into the
# body of their caller, as file:caller:callee: the distance queue's
# Cutoff into the cutoff tracker's, which a sweep reads after every
# delivery; the spill route's table lookup into the queue's spill; the
# restriction's per-entry test, beyond, into the survivor-span scan and
# the compaction loop; the clip of a pair's rectangles to the
# restriction region, sweep.Clip, into restrictRegion; the lookup of a
# page's occupancy grid, PinnedNode.Grid, into the expansion's lookGrid
# (the grid's own test, Occupancy.Misses, is twice the inliner's budget
# and stays a call, one per tested side); the gap test that skips an
# anchor with an empty window, gapBeyond, into the merge; and the read
# of a page's header, PinnedNode.Header, into PinNode, whose level check
# every node access of a descent or a join passes through. A callee
# written !name is a call that must not appear in the caller's body at
# all: sweepAnchor computes its window's distances inline, in one loop
# with the filter and the delivery, and calls no geom.MinDistBatch.
INLINE_SITES := heap.go:3 pool.go:1
INLINE_PINS := \
	internal/join/cutoff.go:'func (t *cutoffTracker) Cutoff()':'pqueue.(*DistanceQueue).Cutoff' \
	internal/hybridq/queue.go:'func (q *Queue) spill(':'(*Queue).routed' \
	internal/join/planesweep.go:'func survivorSpan(':'beyond' \
	internal/join/planesweep.go:'func restrictInto(':'beyond' \
	internal/join/planesweep.go:'func restrictRegion(':'sweep.Clip' \
	internal/join/planesweep.go:'func (sd *pairSide) lookGrid(':'rtree.PinnedNode.Grid' \
	internal/join/planesweep.go:'func (s *sweepRun) merge(':'gapBeyond' \
	internal/join/planesweep.go:'func (s *sweepRun) sweepAnchor(':'!geom.MinDistBatch' \
	internal/rtree/order.go:'func (t *Tree) PinNode(':'PinnedNode.Header'

inline-check:
	@out="$$($(GO) build -gcflags=-m ./internal/hybridq ./internal/join ./internal/rtree 2>&1)" || { printf '%s\n' "$$out" >&2; exit 1; }; \
	sites() { printf '%s\n' "$$out" | grep "hybridq/$$1:[0-9]*:[0-9]*: inlining call to $$2\$$" | cut -d' ' -f1 | sort -u; }; \
	rc=0; \
	for want in $(INLINE_SITES); do \
		file=$${want%:*}; n=$${want#*:}; \
		got=$$(sites $$file keyLess | wc -l); \
		if [ "$$got" -ne "$$n" ]; then \
			echo "inline-check: keyLess inlines at $$got sites of internal/hybridq/$$file, want $$n" >&2; rc=1; \
		fi; \
		for pos in $$(sites $$file keyLess); do \
			sites $$file ordered | grep -qxF "$$pos" || { echo "inline-check: ordered is not inlined into keyLess at $$pos" >&2; rc=1; }; \
		done; \
	done; \
	pin() { \
		span=$$(awk -v f="$$2" 'index($$0, f) == 1 { s = NR } s && /^}/ { print s, NR; exit }' "$$1"); \
		[ -n "$$span" ] || { echo "inline-check: no $$2 in $$1" >&2; return 1; }; \
		case "$$3" in !*) \
			awk -v span="$$span" -v call="$${3#!}(" 'BEGIN { split(span, b, " ") } NR >= b[1] && NR <= b[2] && index($$0, call) { hit = 1 } END { exit hit }' "$$1" \
				|| { echo "inline-check: $${3#!} is called in the body of $$2 ... } in $$1" >&2; return 1; }; \
			return 0;; \
		esac; \
		printf '%s\n' "$$out" | awk -v file="$$1" -v call="inlining call to $$3" -v span="$$span" \
			'BEGIN { split(span, b, " ") } { n = split($$0, f, ":") } \
			n >= 4 && f[1] == file && f[2] >= b[1] && f[2] <= b[2] && substr($$0, length($$0) - length(call) + 1) == call { hit = 1 } \
			END { exit !hit }' \
			|| { echo "inline-check: $$3 is not inlined into the body of $$2 ... } in $$1" >&2; return 1; }; \
	}; \
	for p in $(INLINE_PINS); do \
		file=$${p%%:*}; rest=$${p#*:}; caller=$${rest%%:*}; callee=$${rest#*:}; \
		pin "$$file" "$$caller" "$$callee" || rc=1; \
	done; \
	if [ "$$rc" -eq 0 ]; then echo "inline-check: keyLess and ordered inline at every sift and split-sort comparison; the pinned calls inline into their callers, and the barred ones are absent"; fi; \
	exit "$$rc"

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
# through a run's sides, pinned frames evicted under their readers, and
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
# (fuzz-smoke), 2m in the nightly workflow. Every target bounds the
# minimisation of a new input to a second: left at the default
# minute per input, the fuzzer spends most of its budget minimising and
# reports 0 execs/sec meanwhile. FuzzEndpoint drives a live server,
# whose coverage depends on the clock and on earlier requests, and gets
# a little longer.
FUZZTIME ?= 20s

fuzz:
	$(GO) test -fuzz=FuzzReadFrom -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/datagen
	$(GO) test -fuzz=FuzzDecodeNode -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/rtree
	$(GO) test -fuzz=FuzzOccupancy -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/rtree
	$(GO) test -fuzz=FuzzPairRoundTrip -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/hybridq
	$(GO) test -fuzz=FuzzBatchKernels -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/geom
	$(GO) test -fuzz=FuzzIndex -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/sweep
	$(GO) test -fuzz=FuzzRestrict -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/join
	$(GO) test -fuzz=FuzzDistanceQueue -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/pqueue
	$(GO) test -fuzz=FuzzScenario -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/simtest
	$(GO) test -fuzz=FuzzEndpoint -fuzztime=$(FUZZTIME) -fuzzminimizetime=2s ./internal/serving
	$(GO) test -fuzz=FuzzAppendJSON -fuzztime=$(FUZZTIME) -fuzzminimizetime=1s ./internal/serving

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
# lint gate, build, cross-builds (windows, darwin/arm64), tests with
# coverage (the server smoke, TestServeSmoke, among them) + floor gate,
# repeated
# allocation pins, the examples, race detector
# (short suite, then the sweep-order memo's tests unshortened),
# simulation smoke, fuzz smoke, one-iteration benchmark
# smoke, bench regression gate, repository-benchmark module check.
ci: lint inline-check build cross-build
	$(GO) test -coverprofile=coverage.out -covermode=atomic ./...
	$(GO) tool cover -func=coverage.out | tail -n 1
	$(MAKE) cover-check
	$(MAKE) alloc-pins
	$(MAKE) examples
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
