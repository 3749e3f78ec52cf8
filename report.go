package memorex

import (
	"encoding/json"
	"fmt"
	"io"

	"memorex/internal/core"
)

// DesignJSON is the serialized form of one explored design point, the
// interchange format for downstream tooling (spreadsheets, plotting).
type DesignJSON struct {
	Memory       string  `json:"memory"`
	Connectivity string  `json:"connectivity"`
	CostGates    float64 `json:"cost_gates"`
	LatencyCyc   float64 `json:"latency_cycles_per_access"`
	EnergyNJ     float64 `json:"energy_nj_per_access"`
	OnFront      bool    `json:"on_cost_perf_front"`
}

// EngineJSON is the serialized form of the evaluation-engine
// statistics of an exploration run.
type EngineJSON struct {
	Evaluations     int64           `json:"evaluations"`
	Simulations     int64           `json:"simulations"`
	CacheHits       int64           `json:"cache_hits"`
	SampledAccesses int64           `json:"sampled_accesses"`
	FullAccesses    int64           `json:"full_accesses"`
	Phases          []PhaseWallJSON `json:"phases,omitempty"`
}

// PhaseWallJSON is one per-phase wall-time entry.
type PhaseWallJSON struct {
	Name   string `json:"name"`
	WallMS int64  `json:"wall_ms"`
	Evals  int64  `json:"evaluations"`
	Sims   int64  `json:"simulations"`
}

// SelectionJSON is the serialized form of one constrained selection.
type SelectionJSON struct {
	Scenario string           `json:"scenario"`
	Limit    float64          `json:"limit"`
	Points   []SelectionPoint `json:"points"`
}

// SelectionPoint is one design of a constrained selection.
type SelectionPoint struct {
	Label      string  `json:"label"`
	CostGates  float64 `json:"cost_gates"`
	LatencyCyc float64 `json:"latency_cycles_per_access"`
	EnergyNJ   float64 `json:"energy_nj_per_access"`
}

// ReportJSON is the serialized form of an exploration report.
type ReportJSON struct {
	Benchmark string `json:"benchmark"`
	Accesses  int    `json:"trace_accesses"`
	// Search records the heuristic-search provenance (strategy, seed,
	// budget, evaluations issued) of runs driven by the "ga" or "sa"
	// strategy; absent for the enumeration strategies.
	Search     *SearchInfo      `json:"search,omitempty"`
	Engine     *EngineJSON      `json:"engine,omitempty"`
	Metrics    *MetricsSnapshot `json:"metrics,omitempty"`
	Designs    []DesignJSON     `json:"designs"`
	Selections []SelectionJSON  `json:"selections,omitempty"`
}

// WriteJSON serializes the fully simulated design points of the report
// plus the evaluation-engine statistics of the run.
func (r *Report) WriteJSON(w io.Writer) error {
	st := r.EngineStats()
	ej := &EngineJSON{
		Evaluations:     st.Requests,
		Simulations:     st.Simulations,
		CacheHits:       st.CacheHits,
		SampledAccesses: st.SampledAccesses,
		FullAccesses:    st.FullAccesses,
	}
	for _, p := range st.Phases {
		ej.Phases = append(ej.Phases, PhaseWallJSON{
			Name:   p.Name,
			WallMS: p.Wall.Milliseconds(),
			Evals:  p.Requests,
			Sims:   p.Simulations,
		})
	}
	out := ReportJSON{
		Benchmark: r.Options.Workload,
		Accesses:  r.Trace.NumAccesses(),
		Search:    r.Search,
		Engine:    ej,
	}
	if len(r.Metrics.Counters)+len(r.Metrics.Gauges)+len(r.Metrics.Histograms) > 0 {
		m := r.Metrics
		out.Metrics = &m
	}
	onFront := map[*core.DesignPoint]bool{}
	for i := range r.ConEx.CostPerfFront {
		for j := range r.ConEx.Combined {
			c := &r.ConEx.Combined[j]
			if c.Cost == r.ConEx.CostPerfFront[i].Cost &&
				c.Latency == r.ConEx.CostPerfFront[i].Latency &&
				c.Energy == r.ConEx.CostPerfFront[i].Energy {
				onFront[c] = true
			}
		}
	}
	for i := range r.ConEx.Combined {
		dp := &r.ConEx.Combined[i]
		out.Designs = append(out.Designs, DesignJSON{
			Memory:       dp.MemArch.Describe(r.Trace),
			Connectivity: dp.Conn.Describe(dp.MemArch),
			CostGates:    dp.Cost,
			LatencyCyc:   dp.Latency,
			EnergyNJ:     dp.Energy,
			OnFront:      onFront[dp],
		})
	}
	for _, sel := range r.Selections {
		sj := SelectionJSON{Scenario: sel.Scenario, Limit: sel.Limit, Points: []SelectionPoint{}}
		for _, p := range sel.Points {
			sj.Points = append(sj.Points, SelectionPoint{
				Label: p.Label, CostGates: p.Cost, LatencyCyc: p.Latency, EnergyNJ: p.Energy,
			})
		}
		out.Selections = append(out.Selections, sj)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// ReadReportJSON parses a report previously written with WriteJSON.
func ReadReportJSON(r io.Reader) (*ReportJSON, error) {
	var out ReportJSON
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&out); err != nil {
		return nil, fmt.Errorf("memorex: parsing report: %w", err)
	}
	return &out, nil
}
