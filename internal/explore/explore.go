// Package explore provides the three exploration drivers compared in
// Table 2 of the paper:
//
//   - Full: brute force — every memory-modules candidate architecture is
//     combined with every connectivity clustering level and assignment,
//     and every combination is fully simulated. This determines the true
//     pareto curve (and is what the paper calls infeasible for li).
//   - Pruned: the paper's approach — only APEX's most promising memory
//     architectures enter the connectivity exploration, candidates are
//     estimated with time sampling, and only locally promising designs
//     are fully simulated (ConEx Phase I + II).
//   - Neighborhood: Pruned, widened — the memory architectures
//     neighbouring the selected ones on the cost axis are included, and
//     each architecture contributes more locally promising designs.
//
// All three drivers evaluate design points through one shared
// engine.Engine per Run call (or the caller's, via Config.Engine), so
// parallelism, memoization and cancellation behave identically across
// strategies.
//
// The package also computes Table 2's coverage and average-distance
// metrics of each strategy against the Full truth.
package explore

import (
	"context"
	"fmt"
	"time"

	"memorex/internal/apex"
	"memorex/internal/connect"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/mem"
	"memorex/internal/pareto"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// Strategy selects an exploration driver.
type Strategy int

// Exploration strategies.
const (
	Full Strategy = iota
	Pruned
	Neighborhood
	// GA is the generational genetic-algorithm driver: per-memory-
	// architecture islands evolve (clustering level, per-cluster
	// component) genomes under sampled-estimate fitness, promoting
	// near-front candidates to full simulation (see search.go).
	GA
	// SA is the simulated-annealing driver: parallel Metropolis chains
	// over the same genome space with a geometric cooling schedule.
	SA
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case Full:
		return "full"
	case Pruned:
		return "pruned"
	case Neighborhood:
		return "neighborhood"
	case GA:
		return "ga"
	case SA:
		return "sa"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// ParseStrategy maps a strategy name (the String form) back to its
// Strategy value.
func ParseStrategy(name string) (Strategy, error) {
	switch name {
	case "full":
		return Full, nil
	case "pruned":
		return Pruned, nil
	case "neighborhood":
		return Neighborhood, nil
	case "ga":
		return GA, nil
	case "sa":
		return SA, nil
	default:
		return 0, fmt.Errorf("explore: unknown strategy %q (want full, pruned, neighborhood, ga or sa)", name)
	}
}

// Space is the combined memory+connectivity design space the drivers
// walk. Build it from an APEX result with BuildSpace.
type Space struct {
	// AllMem is every memory-modules candidate (the Full space).
	AllMem []*mem.Architecture
	// SelectedMem is APEX's pareto selection (the Pruned entry set).
	SelectedMem []*mem.Architecture
	// NeighborMem adds the cost-axis neighbours of every selected
	// architecture (the Neighborhood entry set).
	NeighborMem []*mem.Architecture

	// memOnly holds the memory-only result APEX scored each candidate
	// with on trace, so the drivers build BRGs from it instead of
	// simulating the candidate again.
	trace   *trace.Trace
	memOnly map[*mem.Architecture]*sim.MemOnlyResult
}

// BuildSpace derives the three entry sets from an APEX exploration
// result. Neighbours are the candidates adjacent in gate cost to each
// selected design.
func BuildSpace(res *apex.Result) *Space {
	sp := &Space{trace: res.Trace, memOnly: map[*mem.Architecture]*sim.MemOnlyResult{}}
	for _, dp := range res.All {
		if dp.MemOnly != nil {
			sp.memOnly[dp.Arch] = dp.MemOnly
		}
	}
	// Candidates sorted by cost (APEX reports them in sweep order; we
	// need the cost axis for neighbourhoods).
	sorted := append([]apex.DesignPoint(nil), res.All...)
	for i := 1; i < len(sorted); i++ {
		for j := i; j > 0 && sorted[j].Gates < sorted[j-1].Gates; j-- {
			sorted[j], sorted[j-1] = sorted[j-1], sorted[j]
		}
	}
	for _, dp := range sorted {
		sp.AllMem = append(sp.AllMem, dp.Arch)
	}
	selected := map[*mem.Architecture]bool{}
	for _, dp := range res.Selected {
		sp.SelectedMem = append(sp.SelectedMem, dp.Arch)
		selected[dp.Arch] = true
	}
	inNbhd := map[*mem.Architecture]bool{}
	add := func(a *mem.Architecture) {
		if !inNbhd[a] {
			inNbhd[a] = true
			sp.NeighborMem = append(sp.NeighborMem, a)
		}
	}
	for i, dp := range sorted {
		if !selected[dp.Arch] {
			continue
		}
		if i > 0 {
			add(sorted[i-1].Arch)
		}
		add(dp.Arch)
		if i+1 < len(sorted) {
			add(sorted[i+1].Arch)
		}
	}
	return sp
}

// brgs returns the BRGs of archs on trace t. Candidates APEX already
// profiled on t reuse its result; the rest are profiled in one batch.
func (sp *Space) brgs(ctx context.Context, t *trace.Trace, archs []*mem.Architecture, workers int) ([]*core.BRG, error) {
	out := make([]*core.BRG, len(archs))
	var missing []*mem.Architecture
	var at []int
	for i, a := range archs {
		if r := sp.memOnly[a]; r != nil && sp.trace == t {
			out[i] = core.NewBRG(a, r)
			continue
		}
		missing = append(missing, a)
		at = append(at, i)
	}
	if len(missing) > 0 {
		built, err := core.BuildBRGs(ctx, t, missing, workers)
		if err != nil {
			return nil, err
		}
		for k, i := range at {
			out[i] = built[k]
		}
	}
	return out, nil
}

// Outcome is the result of one exploration strategy.
type Outcome struct {
	Strategy Strategy
	// Points is every fully simulated design the strategy produced.
	Points []core.DesignPoint
	// Front is the strategy's cost/latency pareto front.
	Front []pareto.Point
	// WorkAccesses counts all simulated accesses (estimation + full)
	// actually performed; cache-hit evaluations contribute nothing.
	WorkAccesses int64
	// Wall is the measured wall-clock time of the strategy.
	Wall time.Duration
	// Stats snapshots the evaluation engine when the strategy finished.
	Stats engine.Stats
	// Search records the heuristic-search provenance (strategy, seed,
	// budget, evaluations issued); nil for the enumeration strategies.
	Search *SearchProvenance
}

// Run executes the given strategy over the space. All design-point
// evaluations go through one engine (cfg.Engine, or a fresh private one
// per call — note that sharing an engine across strategies lets its
// memo cache transfer simulations between them, which skews Table 2's
// work comparison).
func Run(ctx context.Context, t *trace.Trace, sp *Space, strategy Strategy, cfg core.Config) (*Outcome, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	eng := cfg.EngineOrNew()
	cfg.Engine = eng
	start := time.Now()
	out := &Outcome{Strategy: strategy}
	switch strategy {
	case Full:
		if err := runFull(ctx, eng, t, sp, cfg, out); err != nil {
			return nil, err
		}
	case Pruned:
		brgs, err := sp.brgs(ctx, t, sp.SelectedMem, eng.Workers())
		if err != nil {
			return nil, err
		}
		res, err := core.ExploreBRGs(ctx, t, brgs, cfg)
		if err != nil {
			return nil, err
		}
		out.Points = res.Combined
		out.WorkAccesses = res.EstimatedAccesses + res.SimulatedAccesses
	case Neighborhood:
		wide := cfg
		wide.KeepPerArch = cfg.KeepPerArch * 2
		brgs, err := sp.brgs(ctx, t, sp.NeighborMem, eng.Workers())
		if err != nil {
			return nil, err
		}
		res, err := core.ExploreBRGs(ctx, t, brgs, wide)
		if err != nil {
			return nil, err
		}
		out.Points = res.Combined
		out.WorkAccesses = res.EstimatedAccesses + res.SimulatedAccesses
		// Expand the connectivity neighborhood of the selected (pareto)
		// designs: fully simulate each single-component swap (the
		// paper's "points in the neighborhood of the selected points").
		sel := core.SelectLocal(res.Combined, len(res.Combined))
		extra, work, err := connectivityNeighbors(ctx, eng, t, res.Combined, sel, cfg)
		if err != nil {
			return nil, err
		}
		out.Points = append(out.Points, extra...)
		out.WorkAccesses += work
	case GA, SA:
		if err := runSearch(ctx, eng, t, sp, strategy, cfg, out); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("explore: unknown strategy %d", strategy)
	}
	pts := make([]pareto.Point, len(out.Points))
	for i := range out.Points {
		pts[i] = out.Points[i].Point()
	}
	out.Front = pareto.Front(pts, pareto.Cost, pareto.Latency)
	out.Wall = time.Since(start)
	out.Stats = eng.Stats()
	return out, nil
}

// connectivityNeighbors fully simulates every single-component swap of
// every design in expand, skipping designs already present in seed (and
// deduplicating across the generated neighbors themselves, so the
// outcome holds no duplicate design points even though the engine would
// memoize the repeats anyway).
func connectivityNeighbors(ctx context.Context, eng *engine.Engine, t *trace.Trace, seed, expand []core.DesignPoint, cfg core.Config) ([]core.DesignPoint, int64, error) {
	seen := map[string]bool{}
	sig := func(arch *mem.Architecture, conn *connect.Arch) string {
		s := arch.Name
		for i := range conn.Clusters {
			s += "|" + conn.Assign[i].Name
			for _, ch := range conn.Clusters[i] {
				s += fmt.Sprintf(",%d", ch)
			}
		}
		return s
	}
	var extra []core.DesignPoint
	for _, dp := range seed {
		seen[sig(dp.MemArch, dp.Conn)] = true
	}
	for _, dp := range expand {
		for ci := range dp.Conn.Clusters {
			ports := len(dp.Conn.Clusters[ci]) + 1
			off := dp.Conn.Channels[dp.Conn.Clusters[ci][0]].OffChip
			for _, comp := range cfg.Library {
				if comp.Name == dp.Conn.Assign[ci].Name || !comp.Fits(ports, off) {
					continue
				}
				neighbor := &connect.Arch{
					Channels: dp.Conn.Channels,
					Clusters: dp.Conn.Clusters,
					Assign:   append([]connect.Component(nil), dp.Conn.Assign...),
				}
				neighbor.Assign[ci] = comp
				s := sig(dp.MemArch, neighbor)
				if seen[s] {
					continue
				}
				seen[s] = true
				extra = append(extra, core.DesignPoint{MemArch: dp.MemArch, Conn: neighbor})
			}
		}
	}
	stop := eng.StartPhase("explore/neighborhood")
	defer stop()
	work, err := core.Evaluate(ctx, eng, t, extra, engine.Full, cfg.Sampling, "explore/neighborhood")
	if err != nil {
		return nil, 0, err
	}
	return extra, work, nil
}

// runFull simulates the entire combined space through the engine.
func runFull(ctx context.Context, eng *engine.Engine, t *trace.Trace, sp *Space, cfg core.Config, out *Outcome) error {
	// Enumerate all candidate (memory, connectivity) pairs first.
	brgs, err := sp.brgs(ctx, t, sp.AllMem, eng.Workers())
	if err != nil {
		return err
	}
	var points []core.DesignPoint
	for _, brg := range brgs {
		for _, level := range core.Levels(brg) {
			cands, _ := core.EnumerateAssignments(brg, level, cfg.Library, cfg.MaxAssignPerLevel)
			for _, c := range cands {
				points = append(points, core.DesignPoint{MemArch: brg.Arch, Conn: c})
			}
		}
	}
	stop := eng.StartPhase("explore/full-space")
	defer stop()
	work, err := core.Evaluate(ctx, eng, t, points, engine.Full, cfg.Sampling, "explore/full-space")
	if err != nil {
		return err
	}
	out.Points = points
	out.WorkAccesses = work
	return nil
}
