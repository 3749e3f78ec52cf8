package experiments

import (
	"context"
	"fmt"
	"strings"

	"memorex/internal/pareto"
	"memorex/internal/plot"
)

// FigureEnergyResult reproduces the energy-dimension view the paper
// describes in Section 4 ("for energy-aware designs, similar tradeoffs
// are obtained in the cost/power or the performance/power design
// spaces"): the cost/energy and latency/energy pareto fronts of the
// compress exploration, plus the 3-D front that only the combined view
// exposes.
type FigureEnergyResult struct {
	Benchmark string
	// CostEnergy and LatencyEnergy are the 2-D fronts.
	CostEnergy    []pareto.Point
	LatencyEnergy []pareto.Point
	// Front3D is the full (cost, latency, energy) pareto set; designs
	// on it but on neither 2-D front are the balanced designs a
	// projection-only exploration would discard.
	Front3D      []pareto.Point
	BalancedOnly int
	// Knee is the suggested best trade-off on the latency/energy front.
	Knee    pareto.Point
	HasKnee bool
}

// FigureEnergy runs the compress exploration and projects the energy
// dimension.
func FigureEnergy(ctx context.Context, opt Options) (*FigureEnergyResult, error) {
	reps, err := run(ctx, opt, "compress")
	if err != nil {
		return nil, err
	}
	pts := reps[0].ConEx.Points()
	out := &FigureEnergyResult{
		Benchmark:     "compress",
		CostEnergy:    pareto.Front(pts, pareto.Cost, pareto.Energy),
		LatencyEnergy: pareto.Front(pts, pareto.Latency, pareto.Energy),
		Front3D:       pareto.Front3D(pts),
	}
	in2D := map[string]bool{}
	for _, p := range append(append([]pareto.Point{}, out.CostEnergy...), out.LatencyEnergy...) {
		in2D[p.Label] = true
	}
	for _, p := range pareto.Front(pts, pareto.Cost, pareto.Latency) {
		in2D[p.Label] = true
	}
	for _, p := range out.Front3D {
		if !in2D[p.Label] {
			out.BalancedOnly++
		}
	}
	out.Knee, out.HasKnee = pareto.Knee(pts, pareto.Latency, pareto.Energy)
	return out, nil
}

// String renders the energy trade-off fronts.
func (f *FigureEnergyResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Energy-aware views of the %s exploration (paper Section 4)\n", f.Benchmark)
	fmt.Fprintf(&b, "\nperformance/power pareto front (%d designs):\n", len(f.LatencyEnergy))
	fmt.Fprintf(&b, "%10s %10s %12s\n", "lat[cyc]", "nrg[nJ]", "cost[gates]")
	for _, p := range f.LatencyEnergy {
		fmt.Fprintf(&b, "%10.2f %10.2f %12.0f\n", p.Latency, p.Energy, p.Cost)
	}
	fmt.Fprintf(&b, "\ncost/power pareto front (%d designs):\n", len(f.CostEnergy))
	fmt.Fprintf(&b, "%12s %10s %10s\n", "cost[gates]", "nrg[nJ]", "lat[cyc]")
	for _, p := range f.CostEnergy {
		fmt.Fprintf(&b, "%12.0f %10.2f %10.2f\n", p.Cost, p.Energy, p.Latency)
	}
	fmt.Fprintf(&b, "\n3-D pareto set: %d designs (%d visible in no 2-D projection)\n",
		len(f.Front3D), f.BalancedOnly)
	if f.HasKnee {
		fmt.Fprintf(&b, "latency/energy knee: %.2f cyc, %.2f nJ, %.0f gates\n",
			f.Knee.Latency, f.Knee.Energy, f.Knee.Cost)
	}
	b.WriteString("\n")
	p := plot.New("energy vs latency (front: #)", "latency [cycles]", "energy [nJ]")
	var fx, fy []float64
	for _, pt := range f.LatencyEnergy {
		fx = append(fx, pt.Latency)
		fy = append(fy, pt.Energy)
	}
	if err := p.Add(plot.Series{Name: "front", Marker: '#', X: fx, Y: fy}); err == nil {
		b.WriteString(p.Render())
	}
	return b.String()
}
