// Package memorex is the public entry point of the MemorEx memory-system
// exploration environment, a reproduction of "Memory System Connectivity
// Exploration" (Grun, Dutt, Nicolau — DATE 2002).
//
// The pipeline mirrors the paper's Figure 1:
//
//  1. A benchmark application (compress, li, vocoder — or your own
//     trace) is profiled into per-data-structure access patterns.
//  2. APEX explores memory-modules architectures (caches + pattern-
//     matched SRAMs, stream buffers, and self-indirect DMA modules) and
//     selects the most promising cost/miss-ratio designs.
//  3. ConEx explores, for each selected memory architecture, the mapping
//     of its communication channels onto components of a connectivity IP
//     library (AMBA AHB/ASB/APB, MUX-based and dedicated links, off-chip
//     busses), estimating candidates with time-sampled simulation and
//     fully simulating only the most promising designs.
//
// The result is a set of memory+connectivity design points with their
// cost (gates), performance (average memory latency) and power (energy
// per access), plus the pareto fronts and constrained-scenario
// selections the designer trades off.
package memorex

import (
	"fmt"

	"memorex/internal/apex"
	"memorex/internal/connect"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/explore"
	"memorex/internal/mem"
	"memorex/internal/pareto"
	"memorex/internal/profile"
	"memorex/internal/sampling"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// Re-exported types: the stable public surface over the internal
// packages.
type (
	// Trace is a memory-access trace (see the trace package for the
	// builder and binary codec).
	Trace = trace.Trace
	// Profile holds per-data-structure access-pattern statistics.
	Profile = profile.Profile
	// APEXConfig bounds the memory-modules design space.
	APEXConfig = apex.Config
	// APEXResult is the memory-modules exploration outcome.
	APEXResult = apex.Result
	// ConExConfig parameterizes the connectivity exploration.
	ConExConfig = core.Config
	// ConExResult is the connectivity exploration outcome.
	ConExResult = core.Result
	// DesignPoint is one evaluated memory+connectivity design.
	DesignPoint = core.DesignPoint
	// Point is a design point in the (cost, latency, energy) space.
	Point = pareto.Point
	// MemArchitecture is a memory-modules architecture.
	MemArchitecture = mem.Architecture
	// ConnComponent is one connectivity IP library entry.
	ConnComponent = connect.Component
	// ConnArch is a connectivity architecture (clusters + assignment).
	ConnArch = connect.Arch
	// SamplingConfig controls the time-sampling estimator.
	SamplingConfig = sampling.Config
	// SearchConfig tunes the heuristic exploration drivers (GA and SA):
	// seed, evaluation budget, population size and move rates.
	SearchConfig = core.SearchConfig
	// SearchInfo records the heuristic-search provenance of a run:
	// strategy, seed, budget and the evaluations actually issued.
	SearchInfo = explore.SearchProvenance
	// WorkloadConfig controls benchmark trace generation.
	WorkloadConfig = workload.Config
	// Engine is the shared design-point evaluation engine: a bounded
	// worker pool with a memoization cache and statistics. Put one in
	// Options.ConEx.Engine to share the cache across runs.
	Engine = engine.Engine
	// EngineStats is a snapshot of the engine counters (simulations,
	// cache hits, sampled/full accesses, per-phase wall time).
	EngineStats = engine.Stats
)

// NewEngine returns an evaluation engine bounded to the given worker
// count (0 = all CPUs).
func NewEngine(workers int) *Engine { return engine.New(workers) }

// Options configures a full exploration run.
type Options struct {
	// Workload selects the benchmark ("compress", "li", "vocoder").
	Workload string
	// WorkloadConfig scales the benchmark (DefaultOptions uses the
	// paper-reproduction defaults).
	WorkloadConfig workload.Config
	// APEX bounds the memory-modules exploration.
	APEX apex.Config
	// ConEx parameterizes the connectivity exploration.
	ConEx core.Config
}

// DefaultOptions returns the configuration the paper-reproduction
// experiments use for the given benchmark.
func DefaultOptions(benchmark string) Options {
	return Options{
		Workload:       benchmark,
		WorkloadConfig: workload.DefaultConfig(),
		APEX:           apex.DefaultConfig(),
		ConEx:          core.DefaultConfig(),
	}
}

// Benchmarks returns the available benchmark names.
func Benchmarks() []string { return workload.Names() }

// Report is the outcome of a full exploration run.
type Report struct {
	Options Options
	Trace   *trace.Trace
	Profile *profile.Profile
	APEX    *apex.Result
	ConEx   *core.Result
	// Selections holds the constrained-selection outcomes of the
	// request's Constraints, in request order (see ExploreRequest).
	Selections []Selection
	// Search is the heuristic-search provenance when the run used the
	// "ga" or "sa" strategy (nil for the enumeration strategies): the
	// strategy name, seed, budget and evaluations issued, so a reported
	// front is reproducible from the report alone.
	Search *SearchInfo
	// Metrics is the exploration metrics snapshot taken when the run
	// finished (cumulative over the Explorer's lifetime when runs share
	// an Explorer). Empty for runs without a metrics registry.
	Metrics MetricsSnapshot
}

// GenerateTrace runs the named benchmark and returns its memory trace.
// The zero WorkloadConfig selects the paper-reproduction defaults; an
// explicitly invalid config (e.g. a negative or partial Scale) is an
// error rather than being silently replaced.
func GenerateTrace(benchmark string, cfg workload.Config) (*trace.Trace, error) {
	w, err := workload.ByName(benchmark)
	if err != nil {
		return nil, err
	}
	cfg, err = cfg.Normalize()
	if err != nil {
		return nil, fmt.Errorf("memorex: generating %q trace: %w", benchmark, err)
	}
	return w.Generate(cfg), nil
}

// benchmarkLabel picks the run label for a trace-level exploration:
// the explicit benchmark name when set, else the trace's own name.
func benchmarkLabel(workloadName string, t *trace.Trace) string {
	if workloadName != "" {
		return workloadName
	}
	return t.Name
}

// EngineStats returns the evaluation-engine statistics of the
// exploration that produced this report.
func (r *Report) EngineStats() EngineStats { return r.ConEx.Stats }

// The paper's three constrained-selection scenarios over a report's
// fully simulated designs.

// PowerConstrained returns the cost/latency front under an energy cap.
func (r *Report) PowerConstrained(maxEnergyNJ float64) []Point {
	return pareto.PowerConstrained(r.ConEx.Points(), maxEnergyNJ)
}

// CostConstrained returns the latency/energy front under a gate cap.
func (r *Report) CostConstrained(maxGates float64) []Point {
	return pareto.CostConstrained(r.ConEx.Points(), maxGates)
}

// PerformanceConstrained returns the cost/energy front under a latency
// cap.
func (r *Report) PerformanceConstrained(maxLatency float64) []Point {
	return pareto.PerformanceConstrained(r.ConEx.Points(), maxLatency)
}
