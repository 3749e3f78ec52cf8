package experiments

import (
	"context"
	"fmt"
	"strings"

	"memorex/internal/plot"
)

// Figure4Point is one memory+connectivity design of Figure 4's scatter.
type Figure4Point struct {
	Design  string
	Cost    float64
	Latency float64
	Energy  float64
	// OnFront marks the cost/latency pareto designs.
	OnFront bool
}

// Figure4Result reproduces Figure 4: the ConEx connectivity exploration
// cloud for compress in the cost / average-memory-latency space, and the
// headline latency improvement obtained by trading off cost.
type Figure4Result struct {
	Benchmark string
	// Cloud is the Phase I estimated design space (what the paper
	// plots as the unselected points).
	Cloud     []Figure4Point
	CloudSize int
	// Front is the fully simulated cost/latency pareto front.
	Front []Figure4Point
	// WorstLatency / BestLatency are the front endpoints: the paper
	// reports 10.6 -> 6.7 cycles (36%) for compress.
	WorstLatency, BestLatency float64
	// ImprovementPct is the relative latency reduction across the front.
	ImprovementPct float64
	// EstimatedAccesses / SimulatedAccesses measure the work split
	// between the sampled Phase I and the full Phase II.
	EstimatedAccesses, SimulatedAccesses int64
}

// Figure4 runs the coupled APEX+ConEx exploration of compress.
func Figure4(ctx context.Context, opt Options) (*Figure4Result, error) {
	reps, err := run(ctx, opt, "compress")
	if err != nil {
		return nil, err
	}
	t, conexRes := reps[0].Trace, reps[0].ConEx
	out := &Figure4Result{
		Benchmark:         "compress",
		EstimatedAccesses: conexRes.EstimatedAccesses,
		SimulatedAccesses: conexRes.SimulatedAccesses,
	}
	for _, perArch := range conexRes.PerArch {
		out.CloudSize += len(perArch)
		for _, dp := range perArch {
			out.Cloud = append(out.Cloud, Figure4Point{
				Cost: dp.Cost, Latency: dp.Latency, Energy: dp.Energy,
			})
		}
	}
	for _, dp := range conexRes.CostPerfFront {
		out.Front = append(out.Front, Figure4Point{
			Design:  dp.MemArch.Describe(t) + " | " + dp.Conn.Describe(dp.MemArch),
			Cost:    dp.Cost,
			Latency: dp.Latency,
			Energy:  dp.Energy,
			OnFront: true,
		})
	}
	if len(out.Front) > 0 {
		out.WorstLatency = out.Front[0].Latency
		out.BestLatency = out.Front[len(out.Front)-1].Latency
		if out.WorstLatency > 0 {
			out.ImprovementPct = 100 * (out.WorstLatency - out.BestLatency) / out.WorstLatency
		}
	}
	return out, nil
}

// String renders the figure in the paper's terms.
func (f *Figure4Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: connectivity exploration (%s)\n", f.Benchmark)
	fmt.Fprintf(&b, "estimated design points (cloud): %d; fully simulated front: %d\n",
		f.CloudSize, len(f.Front))
	fmt.Fprintf(&b, "%12s %10s %10s  %s\n", "cost[gates]", "lat[cyc]", "nrg[nJ]", "design")
	for _, p := range f.Front {
		fmt.Fprintf(&b, "%12.0f %10.2f %10.2f  %s\n", p.Cost, p.Latency, p.Energy, p.Design)
	}
	fmt.Fprintf(&b, "avg memory latency %.2f -> %.2f cycles: %.0f%% improvement (paper: 10.6 -> 6.7, 36%%)\n",
		f.WorstLatency, f.BestLatency, f.ImprovementPct)
	fmt.Fprintf(&b, "work: %d sampled + %d fully simulated accesses\n",
		f.EstimatedAccesses, f.SimulatedAccesses)
	b.WriteString("\n")
	b.WriteString(f.Plot())
	return b.String()
}

// Plot renders the exploration cloud and front like the paper's
// Figure 4. Designs slower than 4x the front's worst point are cropped,
// matching the paper's footnote about omitting uninteresting designs.
func (f *Figure4Result) Plot() string {
	p := plot.New("avg memory latency vs cost (front: #)", "cost [gates]", "latency [cycles]")
	p.LogX = true
	crop := 1e18
	if len(f.Front) > 0 {
		crop = 4 * f.Front[0].Latency
	}
	var cx, cy, fx, fy []float64
	for _, pt := range f.Cloud {
		if pt.Latency > crop {
			continue
		}
		cx = append(cx, pt.Cost)
		cy = append(cy, pt.Latency)
	}
	for _, pt := range f.Front {
		fx = append(fx, pt.Cost)
		fy = append(fy, pt.Latency)
	}
	if err := p.Add(plot.Series{Name: "estimated", Marker: '.', X: cx, Y: cy}); err != nil {
		return err.Error()
	}
	if err := p.Add(plot.Series{Name: "front", Marker: '#', X: fx, Y: fy}); err != nil {
		return err.Error()
	}
	return p.Render()
}
