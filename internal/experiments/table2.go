package experiments

import (
	"context"
	"fmt"
	"strings"

	"memorex/internal/apex"
	"memorex/internal/core"
	"memorex/internal/explore"
	"memorex/internal/trace"
)

// Table2Benchmarks lists the benchmarks compared in Table 2. The paper
// omits li because its Full exploration was infeasible; we do the same
// and report the projected Full work instead.
var Table2Benchmarks = []string{"compress", "vocoder"}

// Table2Result reproduces Table 2: pareto coverage and average
// cost/performance/energy distance of the Pruned and Neighborhood
// strategies against the fully simulated truth.
type Table2Result struct {
	Comparisons []*explore.Comparison
	// LiProjectedFullAccesses is the projected work of the Full
	// strategy on li, which we (like the paper) do not run.
	LiProjectedFullAccesses int64
}

// Table2 runs the three exploration strategies on compress and vocoder.
// Each strategy runs on a private engine (Table2ConEx carries none), so
// the work comparison between Full, Pruned and Neighborhood measures
// what each strategy would cost on its own.
func Table2(ctx context.Context, opt Options) (*Table2Result, error) {
	out := &Table2Result{}
	for _, name := range Table2Benchmarks {
		t, err := benchTrace(name, opt.Table2TraceLimit)
		if err != nil {
			return nil, err
		}
		apexRes, err := apex.ExploreContext(ctx, t, nil, opt.Table2APEX, workers(opt.Table2ConEx))
		if err != nil {
			return nil, err
		}
		space := explore.BuildSpace(apexRes)
		full, err := explore.Run(ctx, t, space, explore.Full, opt.Table2ConEx)
		if err != nil {
			return nil, err
		}
		pruned, err := explore.Run(ctx, t, space, explore.Pruned, opt.Table2ConEx)
		if err != nil {
			return nil, err
		}
		nbhd, err := explore.Run(ctx, t, space, explore.Neighborhood, opt.Table2ConEx)
		if err != nil {
			return nil, err
		}
		out.Comparisons = append(out.Comparisons, explore.Compare(name, full, pruned, nbhd))
	}
	// Project the Full work for li without running it: candidate count
	// times trace length.
	liTrace, err := benchTrace("li", 0)
	if err != nil {
		return nil, err
	}
	liAPEX, err := apex.ExploreContext(ctx, liTrace.Slice(0, opt.Table2TraceLimit), nil, opt.Table2APEX, workers(opt.Table2ConEx))
	if err != nil {
		return nil, err
	}
	out.LiProjectedFullAccesses, err = projectFullWork(ctx, liTrace, liAPEX, opt.Table2ConEx)
	if err != nil {
		return nil, err
	}
	return out, nil
}

// projectFullWork counts the designs the Full strategy would simulate on
// the full-length trace and multiplies by the trace length.
func projectFullWork(ctx context.Context, t *trace.Trace, apexRes *apex.Result, cfg core.Config) (int64, error) {
	space := explore.BuildSpace(apexRes)
	brgs, err := core.BuildBRGs(ctx, t.Slice(0, 10_000), space.AllMem, workers(cfg))
	if err != nil {
		return 0, err
	}
	var designs int64
	for _, brg := range brgs {
		for _, level := range core.Levels(brg) {
			cands, _ := core.EnumerateAssignments(brg, level, cfg.Library, cfg.MaxAssignPerLevel)
			designs += int64(len(cands))
		}
	}
	return designs * int64(t.NumAccesses()), nil
}

// String renders the comparisons plus the li infeasibility note.
func (t *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2: pareto coverage of the exploration strategies\n\n")
	for _, c := range t.Comparisons {
		b.WriteString(c.String())
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "li omitted (as in the paper): Full would simulate ~%d accesses\n",
		t.LiProjectedFullAccesses)
	return b.String()
}
