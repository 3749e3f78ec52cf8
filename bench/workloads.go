package main

import (
	"fmt"

	"memorex"
	"memorex/internal/apex"
	"memorex/internal/core"
	"memorex/internal/sampling"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// Workload names, as passed to --workload.
const (
	wPrunedCold      = "pruned-cold"
	wFullSpace       = "full-space"
	wSearchHeuristic = "search-heuristic"
	wDaemonJobs      = "daemon-jobs"
)

var workloadNames = []string{wPrunedCold, wFullSpace, wSearchHeuristic, wDaemonJobs}

// The design-space bounds below are fixed here, not borrowed from the
// experiment presets, so that a change to a preset cannot silently
// change what the benchmark measures.
var (
	// quickAPEX is the Quick preset's memory-modules sweep (up to 24
	// architectures, 5 selected).
	quickAPEX = apex.Config{
		CacheSizes:  []int{2 << 10, 8 << 10, 32 << 10},
		CacheAssocs: []int{1, 2},
		CacheLines:  []int{32},
		MaxCustom:   2,
		SRAMLimit:   80 << 10,
		MaxSelected: 5,
	}
	// table2APEX is the Quick preset's Table 2 sweep: 4 memory
	// architectures, small enough to simulate exhaustively.
	table2APEX = apex.Config{
		CacheSizes:  []int{2 << 10, 32 << 10},
		CacheAssocs: []int{2},
		CacheLines:  []int{32},
		MaxCustom:   1,
		SRAMLimit:   80 << 10,
		MaxSelected: 2,
	}
	// daemonAPEX is the Quick sweep keeping one memory architecture. The
	// daemon's engine keeps every job's behavior traces, one set per
	// kept architecture, so this holds a distinct full-length job to
	// about 9.5 MB of heap.
	daemonAPEX = apex.Config{
		CacheSizes:  []int{2 << 10, 8 << 10, 32 << 10},
		CacheAssocs: []int{1, 2},
		CacheLines:  []int{32},
		MaxCustom:   2,
		SRAMLimit:   80 << 10,
		MaxSelected: 1,
	}
	// The power, cost and performance caps cut into the fronts of all
	// three benchmarks (energy 1–40 nJ, cost 4e4–5e5 gates, latency
	// 2–40 cycles per access), so each selection does real filtering.
	allConstraints = []memorex.Constraint{
		{Scenario: memorex.ScenarioPower, Limit: 20},
		{Scenario: memorex.ScenarioCost, Limit: 100_000},
		{Scenario: memorex.ScenarioPerf, Limit: 10},
	}
)

// poolSize is the number of distinct requests an in-process workload
// cycles through; sliceLen is the length of each trace slice.
const (
	poolSize = 12
	sliceLen = 60_000
)

// spec is one distinct exploration request. Either trace is set (the
// in-process workloads hand Explorer.Do a generated slice) or the trace
// is generated from bench and wl (the daemon jobs, which name a
// benchmark over the wire).
type spec struct {
	key         string // identity of the request in output checks and goldens
	bench       string
	wl          workload.Config
	trace       *trace.Trace
	strategy    string // "" is the paper's pruned driver
	apex        apex.Config
	sampling    sampling.Config
	keep        int
	assignCap   int
	search      *core.SearchConfig
	constraints []memorex.Constraint
}

// request is the spec as the public entry point takes it.
func (s *spec) request() memorex.ExploreRequest {
	apexCfg, smp, capN := s.apex, s.sampling, s.assignCap
	req := memorex.ExploreRequest{
		Trace:             s.trace,
		APEX:              &apexCfg,
		Sampling:          &smp,
		KeepPerArch:       s.keep,
		MaxAssignPerLevel: &capN,
		Strategy:          s.strategy,
		Search:            s.search,
		Constraints:       s.constraints,
	}
	if s.trace == nil {
		wl := s.wl
		req.Benchmark = s.bench
		req.Workload = &wl
	}
	return req
}

// inprocSpec returns pool entry k of an in-process workload: the three
// benchmarks in rotation, each on its own seeded trace, so every run
// sees the same benchmark mix and the median lands inside one
// benchmark's latency cluster rather than between two.
func inprocSpec(name string, seed int64, k int, t *trace.Trace) spec {
	s := spec{
		bench:       t.Name,
		trace:       t,
		sampling:    sampling.Config{OnWindow: 1000, OffRatio: 9},
		keep:        6,
		constraints: allConstraints,
	}
	switch name {
	case wPrunedCold:
		s.apex, s.assignCap = quickAPEX, 48
	case wFullSpace:
		s.strategy, s.apex, s.assignCap = "full", table2APEX, 12
	case wSearchHeuristic:
		s.strategy = []string{"ga", "sa"}[k%2]
		s.apex, s.assignCap = quickAPEX, 0
		s.search = &core.SearchConfig{Seed: derive(seed, 2, int64(k)), Budget: 300, Population: 16}
	}
	s.key = specKey(k, t.Name, s.strategy)
	return s
}

// specKey names pool entry k; it is unique within one workload and seed.
func specKey(k int, bench, strategy string) string {
	if strategy == "" {
		strategy = "pruned"
	}
	return fmt.Sprintf("%02d/%s/%s", k, bench, strategy)
}

var inprocBenches = []string{"compress", "li", "vocoder"}

// genSlice generates a benchmark trace and copies its first sliceLen
// accesses, so the full trace is not kept alive by the slice.
func genSlice(bench string, wseed int64) (*trace.Trace, error) {
	full, err := memorex.GenerateTrace(bench, workload.Config{Scale: 1, Seed: wseed})
	if err != nil {
		return nil, err
	}
	sl := full.Slice(0, sliceLen)
	return &trace.Trace{Name: sl.Name, Accesses: append([]trace.Access(nil), sl.Accesses...), DS: sl.DS}, nil
}

// derive mixes the benchmark seed with a site tag and an index into an
// independent positive seed (splitmix64 finalizer), so pool entries,
// search seeds and the daemon schedule never share a random stream.
func derive(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x += 0x9E3779B97F4A7C15 + uint64(p)
		x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
		x = (x ^ (x >> 27)) * 0x94D049BB133111EB
		x ^= x >> 31
	}
	v := int64(x >> 1)
	if v == 0 {
		v = 1
	}
	return v
}
