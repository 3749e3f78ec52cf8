GO ?= go

.PHONY: build test race vet loc inline-check bench-vet bench-test microbench microbench-ab microbench-compare microbench-compare-check cache-check daemon-check search-check serve-smoke fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# loc prints the Go line counts tracked next to ns/op: production
# (non-test .go files outside bench/) and test (_test.go files outside
# bench/).
loc:
	@printf 'production %d\n' $$(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)
	@printf 'test %d\n' $$(find . -name '*_test.go' ! -path './bench/*' -exec cat {} + | wc -l)

# inline-check fails unless the compiler reports the hot-loop helpers
# of Phase B and the reservation-table scheduler inlinable:
# one pushed over the inliner's budget costs a call per access.
INLINE_HELPERS = nomTransfer latBucket dmaStall '(*Scheduler).Grant' '(*Scheduler).GrantRun' '(*Scheduler).issueRun'
inline-check:
	@inl=$$($(GO) build -gcflags=-m ./internal/sim/ ./internal/rtable/ 2>&1 | awk '$$2 == "can" && $$3 == "inline" { print $$4 }'); \
	for f in $(INLINE_HELPERS); do \
		printf '%s\n' "$$inl" | grep -qxF "$$f" || { echo "inline-check: $$f is not inlinable"; exit 1; }; \
	done

# bench-vet compiles and vets the benchmark module (bench/ has its own
# go.mod, so ./... at the root skips it). It uses vet, not build, so no
# binary lands in the tree.
bench-vet:
	cd bench && $(GO) vet ./...

# bench-test runs the benchmark module's own tests, which replay two
# ops each of pruned-cold, full-space and search-heuristic against
# bench/golden/seed-1.json, so a change to the explorations' results
# (a GA/SA tuning value, say) fails here.
bench-test:
	cd bench && $(GO) test ./...

# microbench runs the layer microbenchmarks six times each — Phase B
# replay (K=1, a prefetch-free batch, a contended batch, a K=2 batch
# on a sampled capture and the full-space batches of the Table 2
# sweep's architectures), Phase A
# capture (full and sampled), APEX's sim.MemOnly, profile.Analyze, the
# trace cache's encode + decode, ConEx's engine dispatch (Figure 4: the
# Quick preset's pruned compress run, captures and replays of every
# architecture sharing the worker slots), and the engine's dispatch
# path on a memo hit (claim, wait and account; with and without an
# observer) — and prints every metric's median and min–max over the six
# runs. The raw output stays in microbench.out, an OLD or NEW for
# microbench-compare.
MICROBENCH_ROOT = ^Benchmark(SimulatorReplay|CaptureBehavior|MemOnly|ProfileAnalyze|BTCacheRoundTrip|Figure4)
MICROBENCH_ENGINE = ^BenchmarkEvaluateObserver$$
microbench:
	$(GO) test -run '^$$' -bench '$(MICROBENCH_ROOT)' -benchmem -count 6 . | tee microbench.out
	$(GO) test -run '^$$' -bench '$(MICROBENCH_ENGINE)' -benchmem -count 6 ./internal/engine/ | tee -a microbench.out
	@awk -f scripts/microbench.awk -f scripts/microbench-summary.awk microbench.out

# microbench-ab is the A/B form of microbench: given BASE, another
# checkout (say, a git archive copy of the parent commit), it builds
# the test binaries of BASE and of this tree once each and runs the
# same benchmarks in 6 rounds of one pass per side, alternating which
# side goes first, so that machine drift falls on both sides alike. It
# writes microbench-base.out and microbench.out and runs
# microbench-compare on them.
BASE ?=
microbench-ab:
	@[ -n "$(BASE)" ] || { echo "usage: make microbench-ab BASE=<checkout>"; exit 2; }
	GO=$(GO) sh scripts/microbench-ab.sh '$(BASE)' '$(MICROBENCH_ROOT)' '$(MICROBENCH_ENGINE)'
	@$(MAKE) --no-print-directory microbench-compare OLD=microbench-base.out NEW=microbench.out

# microbench-compare is the performance regression gate: it compares
# two microbench outputs, OLD (say, one saved from a run of the parent
# commit) and NEW, and fails when a benchmark's B/op median rose more
# than 10%, or its ns/op median rose more than 10% with the two runs'
# min–max ranges apart. NEW defaults to microbench.out; OLD must be
# given.
OLD ?=
NEW ?= microbench.out
microbench-compare:
	@awk -f scripts/microbench.awk -f scripts/microbench-compare.awk $(OLD) $(NEW)

# microbench-compare-check pins microbench-compare's verdicts on the
# sample outputs in scripts/testdata.
microbench-compare-check:
	sh scripts/microbench-compare-test.sh

# cache-check runs the persistent behavior-trace cache suite under the
# race detector: the btcache codec/fault-injection/concurrency tests,
# the engine disk-cache layering tests, and the end-to-end Explorer
# warm-start test.
cache-check:
	$(GO) test -race ./internal/btcache/
	$(GO) test -race -run 'TestDisk|TestBehaviorFingerprint' ./internal/engine/
	$(GO) test -race -run 'TestExplorerWarmStart' .

# daemon-check runs the service-layer suite under the race detector:
# the memorexd end-to-end tests (dedup, admission control, cancel,
# drain, per-job event routing), the event-router unit tests, the
# engine test that no evaluated trace outlives its callers, and the
# ExploreRequest / Explorer.Do / Close contract tests.
daemon-check:
	$(GO) test -race ./cmd/memorexd/
	$(GO) test -race -run 'TestRouter|TestObserver' ./internal/obs/
	$(GO) test -race -run 'TestEvaluateRetainsNoTrace' ./internal/engine/
	$(GO) test -race -run 'TestExploreRequest|TestExplorerDoRequest|TestExplorerCloseIdempotent' .

# search-check runs the heuristic-search suite: the coverage quality
# gate (GA and SA must recover ≥90% of the Full ground-truth front at
# ≤25% of its simulations), the seeded-determinism and budget tests
# under the race detector, the request fuzz seed corpus, and the
# heuristic request-path contract tests.
search-check:
	$(GO) test -run 'TestSearchCoverageQualityGate' ./internal/explore/
	$(GO) test -race -run 'TestSearchSeededDeterminism|TestSearchDifferentSeedsDiffer|TestSearchBudgetRespected|TestSearchInvalidConfig|TestParseStrategy' ./internal/explore/
	$(GO) test -race -run 'FuzzExploreRequestJSON|TestExplorerDoHeuristicStrategy' .
	$(GO) test -race -run 'TestDaemonHeuristicJob' ./cmd/memorexd/

# serve-smoke boots a real memorexd process, submits a tiny job through
# memorexctl, asserts a completed report comes back, and checks the
# daemon drains cleanly on SIGTERM.
serve-smoke:
	sh scripts/serve-smoke.sh

# fuzz runs each native fuzz target for 30 seconds: the MTR1/MTR2 trace
# decoder, the behavior-trace cache decoder, the profiler against its
# map-based reference, the request wire format, the connectivity
# library loader and the architecture description parser. Inputs that fail
# land in the package's testdata/fuzz and then run in every go test.
# check runs only the seed corpora, through go test -race ./....
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzTraceRead$$' -fuzztime 30s ./internal/trace/
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime 30s ./internal/btcache/
	$(GO) test -run '^$$' -fuzz '^FuzzAnalyze$$' -fuzztime 30s ./internal/profile/
	$(GO) test -run '^$$' -fuzz '^FuzzExploreRequestJSON$$' -fuzztime 30s .
	$(GO) test -run '^$$' -fuzz '^FuzzReadLibrary$$' -fuzztime 30s ./internal/connect/
	$(GO) test -run '^$$' -fuzz '^FuzzParse$$' -fuzztime 30s ./internal/adl/

# check is the gate a change must pass before review: formatting is
# clean, vet finds nothing in either module, the hot-loop helpers
# inline, the benchmark module's tests pass, the whole suite passes
# under the race detector, the trace-cache, daemon and heuristic-search
# suites hold, and the microbenchmark gate gives its pinned verdicts.
check: vet inline-check bench-vet bench-test cache-check daemon-check search-check microbench-compare-check
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) test -race ./...
