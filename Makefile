GO ?= go

.PHONY: build test race vet bench bench-compare cache-check daemon-check search-check serve-smoke fuzz check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...

# bench runs the benchmark suite (3 fixed iterations, matching how
# the baselines were measured) and writes the parsed domain metrics —
# including the eval-latency histogram quantiles, the batched-replay
# counters reported by BenchmarkInstrumentedExploration, and the
# heuristic-search coverage metrics of BenchmarkSearchGA/SA —
# plus the speedup over the PR 4 report to BENCH_PR10.json.
bench:
	$(GO) test -bench=. -benchmem -benchtime 3x -run '^$$' . | tee bench.out
	$(GO) run ./cmd/benchjson -baseline BENCH_PR4.json -out BENCH_PR10.json < bench.out
	@rm -f bench.out

# bench-compare diffs two benchjson reports (override OLD/NEW to pick
# others) and fails when any benchmark's ns/op or B/op regressed by
# more than 10% — the perf gate for CI. It also tabulates the
# heuristic-search metrics.
OLD ?= BENCH_PR9.json
NEW ?= BENCH_PR10.json
bench-compare:
	$(GO) run ./cmd/benchjson -compare $(OLD) $(NEW)

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
# drain, per-job event routing), the event-router unit tests, and the
# ExploreRequest / Explorer.Do / Close contract tests.
daemon-check:
	$(GO) test -race ./cmd/memorexd/
	$(GO) test -race -run 'TestRouter|TestObserver' ./internal/obs/
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
# clean, vet finds nothing, the whole suite passes under the race
# detector, and the trace-cache, daemon and heuristic-search suites
# hold.
check: vet cache-check daemon-check search-check
	@fmt=$$(gofmt -l .); if [ -n "$$fmt" ]; then echo "gofmt needed:"; echo "$$fmt"; exit 1; fi
	$(GO) test -race ./...
