// Package obs is the exploration observability subsystem of MemorEx:
// a structured event stream plus a lightweight metrics registry.
//
// The event stream makes the exploration watchable. Every layer that
// does interesting work — the evaluation engine, the ConEx phases, the
// top-level Explorer — emits typed events (run and phase boundaries,
// trace generation, APEX selection, every design-point evaluation,
// pruning decisions with survivor counts, sampling-estimator error when
// Phase II contradicts a Phase I estimate) through an Observer, which
// fans them out to pluggable sinks: a JSONL writer for offline
// analysis, an in-memory ring for tests, a terminal progress line for
// humans.
//
// The metrics registry aggregates what the event stream itemizes:
// counters (evaluations, cache hits, scheduler conflicts, sampling
// windows), gauges, and log-bucketed latency histograms with
// p50/p95/p99 snapshots. Registry snapshots land in the exploration
// Report, the -json output, and the expvar endpoint of -debug-addr.
//
// The event stream is built to cost nothing when unused: a nil
// *Observer is the disabled observer, every Observer method is safe on
// it and returns immediately, so instrumented hot paths pay one nil
// check and zero allocations with no observer attached. The registry
// is always present where it is used; its instruments never allocate.
package obs

import "time"

// Kind discriminates the event types of the stream.
type Kind string

// Event kinds.
const (
	// KindRunStart / KindRunEnd bracket one full exploration run.
	KindRunStart Kind = "run-start"
	KindRunEnd   Kind = "run-end"
	// KindPhaseStart / KindPhaseEnd bracket one named engine phase
	// (conex/estimate, conex/full-sim, explore/full-space, ...).
	KindPhaseStart Kind = "phase-start"
	KindPhaseEnd   Kind = "phase-end"
	// KindTrace reports a generated (or loaded) benchmark trace.
	KindTrace Kind = "trace"
	// KindAPEX reports the memory-modules selection handed to ConEx.
	KindAPEX Kind = "apex"
	// KindEval reports one design-point evaluation: labels, metrics,
	// estimated-vs-full, cache hit, wall time.
	KindEval Kind = "eval"
	// KindPrune reports a pruning decision with survivor counts.
	KindPrune Kind = "prune"
	// KindEstimatorError reports the Phase I estimation error observed
	// when Phase II fully simulates a design estimated earlier.
	KindEstimatorError Kind = "estimator-error"
)

// Event is one entry of the stream. It is a single flat struct rather
// than an interface hierarchy so a JSONL stream round-trips through one
// type; fields irrelevant to a kind are zero and omitted from the JSON.
type Event struct {
	// Seq is the observer-assigned sequence number (1-based, dense).
	Seq uint64 `json:"seq"`
	// Time is the wall-clock emission time.
	Time time.Time `json:"time"`
	// Kind discriminates the event type.
	Kind Kind `json:"kind"`
	// Job identifies the exploration job the event belongs to, for
	// multi-job services that route one shared stream per submitter
	// (see Observer.ForJob and Router). Empty for unscoped events —
	// shared-engine work that may be serving any number of jobs at
	// once under single-flight deduplication.
	Job string `json:"job,omitempty"`

	// Benchmark names the workload (run, trace events).
	Benchmark string `json:"benchmark,omitempty"`
	// Phase names the engine phase (phase and eval events).
	Phase string `json:"phase,omitempty"`
	// Stage names the pruning stage (prune events).
	Stage string `json:"stage,omitempty"`
	// Mem and Conn label the design point (eval, prune,
	// estimator-error events).
	Mem  string `json:"mem,omitempty"`
	Conn string `json:"conn,omitempty"`

	// Accesses is the trace length (run, trace events).
	Accesses int64 `json:"accesses,omitempty"`
	// DataStructures counts the trace's data structures (trace events).
	DataStructures int `json:"data_structures,omitempty"`

	// Evaluated and Selected carry candidate and survivor counts
	// (apex, prune events).
	Evaluated int `json:"evaluated,omitempty"`
	Selected  int `json:"selected,omitempty"`
	// Dropped counts candidates never evaluated because an enumeration
	// cap cut them (prune events).
	Dropped int64 `json:"dropped,omitempty"`

	// Cost, Latency and Energy are the design-point metrics (eval
	// events; Latency also on run-end as the best front latency).
	Cost    float64 `json:"cost_gates,omitempty"`
	Latency float64 `json:"latency_cycles,omitempty"`
	Energy  float64 `json:"energy_nj,omitempty"`
	// Estimated is true for Phase I (sampled) figures.
	Estimated bool `json:"estimated,omitempty"`
	// CacheHit is true when the evaluation was served from the
	// engine's memoization cache.
	CacheHit bool `json:"cache_hit,omitempty"`
	// Work is the number of trace accesses actually simulated.
	Work int64 `json:"work_accesses,omitempty"`
	// WallNS is the measured wall time in nanoseconds (eval, phase-end
	// and run-end events).
	WallNS int64 `json:"wall_ns,omitempty"`

	// EstLatency/FullLatency/RelErrPct quantify the sampling
	// estimator's error (estimator-error events).
	EstLatency  float64 `json:"est_latency_cycles,omitempty"`
	FullLatency float64 `json:"full_latency_cycles,omitempty"`
	RelErrPct   float64 `json:"rel_err_pct,omitempty"`

	// Err carries the failure of an unsuccessful run (run-end events).
	Err string `json:"err,omitempty"`
}
