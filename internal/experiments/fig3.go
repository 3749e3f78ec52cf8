package experiments

import (
	"context"
	"fmt"
	"strings"

	"memorex/internal/apex"
	"memorex/internal/plot"
)

// Figure3Row is one memory-modules design of Figure 3's scatter plot.
type Figure3Row struct {
	Arch      string
	Gates     float64
	MissRatio float64
	// Selected is 1..N for the pruned pareto designs (the paper's
	// points labelled 1-5), 0 otherwise.
	Selected int
}

// Figure3Result reproduces Figure 3: the APEX cost/miss-ratio design
// space of the compress benchmark with the selected pareto designs.
type Figure3Result struct {
	Benchmark string
	Rows      []Figure3Row
	// Work is the exploration cost in simulated accesses.
	Work int64
}

// Figure3 runs the memory-modules exploration of compress.
func Figure3(ctx context.Context, opt Options) (*Figure3Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	t, err := benchTrace("compress", opt.TraceLimit)
	if err != nil {
		return nil, err
	}
	res, err := apex.ExploreContext(ctx, t, nil, opt.APEX, opt.Engine().Workers())
	if err != nil {
		return nil, err
	}
	out := &Figure3Result{Benchmark: "compress", Work: res.EvaluatedAccesses}
	selected := map[string]int{}
	for i, dp := range res.Selected {
		selected[dp.Arch.Name] = i + 1
	}
	for _, dp := range res.All {
		out.Rows = append(out.Rows, Figure3Row{
			Arch:      dp.Arch.Describe(t),
			Gates:     dp.Gates,
			MissRatio: dp.MissRatio,
			Selected:  selected[dp.Arch.Name],
		})
	}
	return out, nil
}

// SelectedRows returns the pruned pareto designs in label order.
func (f *Figure3Result) SelectedRows() []Figure3Row {
	var out []Figure3Row
	for want := 1; ; want++ {
		found := false
		for _, r := range f.Rows {
			if r.Selected == want {
				out = append(out, r)
				found = true
				break
			}
		}
		if !found {
			return out
		}
	}
}

// String renders the figure as a table: the full design-space cloud is
// summarized, the selected pareto points are listed like the paper's
// labels 1..5.
func (f *Figure3Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 3: memory-modules exploration (%s), %d designs evaluated\n",
		f.Benchmark, len(f.Rows))
	fmt.Fprintf(&b, "%-4s %12s %10s  %s\n", "pt", "cost[gates]", "missratio", "architecture")
	for _, r := range f.SelectedRows() {
		fmt.Fprintf(&b, "%-4d %12.0f %10.4f  %s\n", r.Selected, r.Gates, r.MissRatio, r.Arch)
	}
	b.WriteString("\n")
	b.WriteString(f.Plot())
	return b.String()
}

// Plot renders the design-space scatter the way the paper's Figure 3
// draws it: the full cloud plus the selected pareto points.
func (f *Figure3Result) Plot() string {
	p := plot.New("miss ratio vs cost (selected points: #)", "cost [gates]", "miss ratio")
	p.LogX = true
	var cx, cy, sx, sy []float64
	for _, r := range f.Rows {
		if r.Selected > 0 {
			sx = append(sx, r.Gates)
			sy = append(sy, r.MissRatio)
		} else {
			cx = append(cx, r.Gates)
			cy = append(cy, r.MissRatio)
		}
	}
	if err := p.Add(plot.Series{Name: "evaluated", Marker: '.', X: cx, Y: cy}); err != nil {
		return err.Error()
	}
	if err := p.Add(plot.Series{Name: "selected", Marker: '#', X: sx, Y: sy}); err != nil {
		return err.Error()
	}
	return p.Render()
}
