package experiments

import (
	"context"
	"fmt"
	"strings"

	"memorex/internal/core"
	"memorex/internal/explore"
	"memorex/internal/mem"
	"memorex/internal/pareto"
)

// Figure6Row is one annotated pareto design (the paper's points a..k).
type Figure6Row struct {
	Label       string // "a", "b", ...
	Cost        float64
	Latency     float64
	Energy      float64
	Traditional bool // cache-only memory architecture
	// PerfGainPct / CostIncreasePct are relative to the best
	// traditional (cache-only) design, the paper's reference b.
	PerfGainPct     float64
	CostIncreasePct float64
	Design          string
}

// Figure6Result reproduces Figure 6: the analyzed cost/performance
// pareto architectures of compress, annotated with their composition and
// their gains over the best traditional cache architecture (the paper:
// c = +10% for a small cost increase, g = +26% for ~30% cost, k = +30%).
type Figure6Result struct {
	Benchmark string
	Rows      []Figure6Row
	// BestTraditional is the label of the reference design.
	BestTraditional string
	// BestGainPct is the largest performance gain over the reference.
	BestGainPct float64
}

// Figure6 runs the compress exploration and annotates the pareto front.
// Like the paper — whose architectures a and b are "two instances of a
// traditional cache-only memory configuration" — it explicitly explores
// the best cache-only memory architecture of the APEX sweep so that the
// gains of the custom architectures are measured against the strongest
// conventional design, not against whatever cache-only point happened to
// survive pruning.
func Figure6(ctx context.Context, opt Options) (*Figure6Result, error) {
	reps, err := run(ctx, opt, "compress")
	if err != nil {
		return nil, err
	}
	rep := reps[0]
	t, conexRes := rep.Trace, rep.ConEx
	out := &Figure6Result{Benchmark: "compress"}

	isTraditional := func(a *mem.Architecture) bool {
		if len(a.Modules) != 1 {
			return false
		}
		return a.Modules[0].Kind() == mem.KindCache
	}

	// Explore the best (lowest miss ratio) cache-only architecture of
	// the full APEX space as the reference, the paper's design b, with
	// the pruned driver over the run's own APEX space (so its BRG comes
	// from the memory-only result APEX scored it with).
	var refArch *mem.Architecture
	bestMiss := 2.0
	for _, dp := range rep.APEX.All {
		if isTraditional(dp.Arch) && dp.MissRatio < bestMiss {
			bestMiss = dp.MissRatio
			refArch = dp.Arch
		}
	}
	points := append([]core.DesignPoint(nil), conexRes.Combined...)
	if refArch != nil {
		sp := explore.BuildSpace(rep.APEX)
		sp.SelectedMem = []*mem.Architecture{refArch}
		ref, err := explore.Run(ctx, t, sp, explore.Pruned, rep.Options.ConEx)
		if err != nil {
			return nil, err
		}
		points = append(points, ref.Points...)
	}

	// Reference metrics: the best fully simulated cache-only design.
	var refLatency, refCost float64
	found := false
	for _, dp := range points {
		if isTraditional(dp.MemArch) && (!found || dp.Latency < refLatency) {
			refLatency, refCost = dp.Latency, dp.Cost
			found = true
		}
	}
	if !found {
		// No cache-only design at all: fall back to the cheapest point
		// as reference (still reports the shape).
		refLatency = conexRes.CostPerfFront[0].Latency
		refCost = conexRes.CostPerfFront[0].Cost
	}

	// Recompute the cost/latency front over the combined pool.
	pps := make([]pareto.Point, len(points))
	for i := range points {
		pps[i] = points[i].Point()
		pps[i].Meta = i
	}
	var front []core.DesignPoint
	for _, p := range pareto.Front(pps, pareto.Cost, pareto.Latency) {
		front = append(front, points[p.Meta.(int)])
	}

	for i, dp := range front {
		label := string(rune('a' + i%26))
		row := Figure6Row{
			Label:       label,
			Cost:        dp.Cost,
			Latency:     dp.Latency,
			Energy:      dp.Energy,
			Traditional: isTraditional(dp.MemArch),
			Design:      dp.MemArch.Describe(t) + " | " + dp.Conn.Describe(dp.MemArch),
		}
		if refLatency > 0 {
			row.PerfGainPct = 100 * (refLatency - dp.Latency) / refLatency
		}
		if refCost > 0 {
			row.CostIncreasePct = 100 * (dp.Cost - refCost) / refCost
		}
		if row.Traditional && row.Latency == refLatency {
			out.BestTraditional = label
		}
		out.Rows = append(out.Rows, row)
		if row.PerfGainPct > out.BestGainPct {
			out.BestGainPct = row.PerfGainPct
		}
	}
	return out, nil
}

// String renders the annotated front.
func (f *Figure6Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6: cost/perf pareto architectures (%s)\n", f.Benchmark)
	fmt.Fprintf(&b, "%-3s %12s %9s %8s %8s %8s  %s\n",
		"pt", "cost[gates]", "lat[cyc]", "nrg[nJ]", "dPerf%", "dCost%", "design")
	for _, r := range f.Rows {
		tag := r.Label
		if r.Traditional {
			tag += "*"
		}
		fmt.Fprintf(&b, "%-3s %12.0f %9.2f %8.2f %+8.1f %+8.1f  %s\n",
			tag, r.Cost, r.Latency, r.Energy, r.PerfGainPct, r.CostIncreasePct, r.Design)
	}
	fmt.Fprintf(&b, "(*) traditional cache-only designs; gains relative to the best of them\n")
	fmt.Fprintf(&b, "best custom-architecture gain: %.0f%% (paper: ~30%% for compress point k)\n", f.BestGainPct)
	return b.String()
}
