package memorex

import (
	"fmt"

	"memorex/internal/connect"
	"memorex/internal/explore"
	"memorex/internal/pareto"
	"memorex/internal/workload"
)

// ExploreRequest is the job-oriented description of one exploration:
// a trace or workload source plus the APEX, ConEx and sampling
// configuration and optional constrained-selection scenarios. It is
// the single argument of Explorer.Do — the code path behind every
// public entry point — and its JSON encoding is exactly the body of a
// memorexd POST /v1/jobs submission, so a request runs identically
// in-process and over the wire.
//
// Every configuration field is optional: a nil config block (or zero
// numeric field) means the paper defaults, so the request
// {"benchmark":"compress"} runs the paper's configuration; memorexd
// -lib supplies the library of a job that names none. A present block
// is validated by Validate and replaces the default whole.
type ExploreRequest struct {
	// Benchmark names the built-in workload to trace ("compress",
	// "li", "vocoder"). Required unless Trace is set, in which case it
	// only relabels the run.
	Benchmark string `json:"benchmark,omitempty"`

	// Trace, when non-nil, is an in-process trace to explore instead
	// of generating Benchmark. Not part of the wire format: remote
	// submitters name a benchmark and configure Workload.
	Trace *Trace `json:"-"`

	// JobID, when set, stamps every run-level event of this request
	// (obs.Event.Job), so a Router sink can stream the run's events to
	// the submitter. memorexd overwrites it with the job id it assigns.
	JobID string `json:"job_id,omitempty"`

	// Workload scales the benchmark (nil = the default scale and seed).
	Workload *WorkloadConfig `json:"workload,omitempty"`
	// APEX bounds the memory-modules sweep (nil = the paper's sweep).
	APEX *APEXConfig `json:"apex,omitempty"`
	// Sampling sets the Phase I time-sampling plan (nil = the paper's
	// 1:9 plan).
	Sampling *SamplingConfig `json:"sampling,omitempty"`
	// Library is the connectivity IP library (nil = the built-in
	// library). Uses the same encoding as library files.
	Library []ConnComponent `json:"library,omitempty"`
	// KeepPerArch sets how many locally promising designs each memory
	// architecture sends to Phase II (0 = the default).
	KeepPerArch int `json:"keep_per_arch,omitempty"`
	// MaxAssignPerLevel caps the assignments enumerated per clustering
	// level; 0 means exhaustive, nil means the default.
	MaxAssignPerLevel *int `json:"max_assign_per_level,omitempty"`

	// Strategy selects the exploration driver: "pruned" (the paper's
	// two-phase algorithm, the default), "full" (exhaustive ground
	// truth), "neighborhood", or the heuristic drivers "ga" and "sa".
	// Empty inherits the default.
	Strategy string `json:"strategy,omitempty"`
	// Search tunes the heuristic drivers (seed, evaluation budget,
	// population); nil and zero fields mean the defaults.
	// Ignored by the enumeration strategies.
	Search *SearchConfig `json:"search,omitempty"`

	// Constraints asks for the paper's constrained selections over the
	// fully simulated designs; each entry yields one Report.Selections
	// element.
	Constraints []Constraint `json:"constraints,omitempty"`
}

// Constraint is one constrained-selection scenario: the paper's
// power-, cost- or performance-capped pareto cuts.
type Constraint struct {
	// Scenario is "power" (energy cap, nJ/access), "cost" (gate cap)
	// or "perf" (latency cap, cycles/access).
	Scenario string `json:"scenario"`
	// Limit is the cap value in the scenario's unit; must be positive.
	Limit float64 `json:"limit"`
}

// Selection is the outcome of one requested Constraint: the
// constrained pareto front over the report's fully simulated designs.
type Selection struct {
	Scenario string  `json:"scenario"`
	Limit    float64 `json:"limit"`
	Points   []Point `json:"points"`
}

// Scenario names accepted in Constraint.Scenario.
const (
	ScenarioPower = "power"
	ScenarioCost  = "cost"
	ScenarioPerf  = "perf"
)

// Validate checks the request without resolving it: the trace source
// must exist, every present configuration
// block must be valid on its own, and the constraints must name known
// scenarios with positive limits. It is the daemon's admission check —
// a request that validates here is runnable by any Explorer.
func (r ExploreRequest) Validate() error {
	if r.Trace == nil {
		if r.Benchmark == "" {
			return fmt.Errorf("memorex: request needs a benchmark or a trace")
		}
		if _, err := workload.ByName(r.Benchmark); err != nil {
			return fmt.Errorf("memorex: %w", err)
		}
	}
	if r.Workload != nil {
		if _, err := r.Workload.Normalize(); err != nil {
			return fmt.Errorf("memorex: request workload: %w", err)
		}
	}
	if r.APEX != nil {
		if _, err := r.APEX.Normalize(); err != nil {
			return fmt.Errorf("memorex: request apex: %w", err)
		}
	}
	if r.Sampling != nil {
		if _, err := r.Sampling.Normalize(); err != nil {
			return fmt.Errorf("memorex: request sampling: %w", err)
		}
	}
	if r.Library != nil {
		if err := connect.ValidateLibrary(r.Library); err != nil {
			return fmt.Errorf("memorex: request library: %w", err)
		}
	}
	if r.KeepPerArch < 0 {
		return fmt.Errorf("memorex: request KeepPerArch must be non-negative")
	}
	if r.MaxAssignPerLevel != nil && *r.MaxAssignPerLevel < 0 {
		return fmt.Errorf("memorex: request MaxAssignPerLevel must be non-negative")
	}
	if r.Strategy != "" {
		if _, err := explore.ParseStrategy(r.Strategy); err != nil {
			return fmt.Errorf("memorex: request strategy: %w", err)
		}
	}
	if r.Search != nil {
		if err := r.Search.Validate(); err != nil {
			return fmt.Errorf("memorex: request search: %w", err)
		}
	}
	for i, c := range r.Constraints {
		switch c.Scenario {
		case ScenarioPower, ScenarioCost, ScenarioPerf:
		default:
			return fmt.Errorf("memorex: constraint %d: unknown scenario %q (want power, cost or perf)", i, c.Scenario)
		}
		if !(c.Limit > 0) {
			return fmt.Errorf("memorex: constraint %d (%s): limit must be positive, got %g", i, c.Scenario, c.Limit)
		}
	}
	return nil
}

// apply computes one constraint's selection over the report.
func (c Constraint) apply(r *Report) Selection {
	var pts []pareto.Point
	switch c.Scenario {
	case ScenarioPower:
		pts = r.PowerConstrained(c.Limit)
	case ScenarioCost:
		pts = r.CostConstrained(c.Limit)
	case ScenarioPerf:
		pts = r.PerformanceConstrained(c.Limit)
	}
	return Selection{Scenario: c.Scenario, Limit: c.Limit, Points: pts}
}
