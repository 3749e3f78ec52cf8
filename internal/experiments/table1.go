package experiments

import (
	"context"
	"fmt"
	"strings"
)

// Table1Row is one selected cost/performance design of Table 1.
type Table1Row struct {
	Benchmark string
	Cost      float64 // gates
	Latency   float64 // cycles/access
	Energy    float64 // nJ/access
	Design    string
}

// Table1Result reproduces Table 1: the selected cost/performance designs
// of the connectivity exploration for compress, li and vocoder, with
// cost in basic gates, average memory latency in cycles, and average
// energy per access in nJ.
type Table1Result struct {
	Rows []Table1Row
}

// Table1Benchmarks lists the benchmarks in the paper's order.
var Table1Benchmarks = []string{"compress", "li", "vocoder"}

// Table1 runs the full pipeline on all three benchmarks.
func Table1(ctx context.Context, opt Options) (*Table1Result, error) {
	reps, err := run(ctx, opt, Table1Benchmarks...)
	if err != nil {
		return nil, fmt.Errorf("table1 %w", err)
	}
	out := &Table1Result{}
	for _, rep := range reps {
		t := rep.Trace
		for _, dp := range rep.ConEx.CostPerfFront {
			out.Rows = append(out.Rows, Table1Row{
				Benchmark: rep.Options.Workload,
				Cost:      dp.Cost,
				Latency:   dp.Latency,
				Energy:    dp.Energy,
				Design:    dp.MemArch.Describe(t) + " | " + dp.Conn.Describe(dp.MemArch),
			})
		}
	}
	return out, nil
}

// RowsFor returns the rows of one benchmark.
func (t *Table1Result) RowsFor(benchmark string) []Table1Row {
	var out []Table1Row
	for _, r := range t.Rows {
		if r.Benchmark == benchmark {
			out = append(out, r)
		}
	}
	return out
}

// String renders the table in the paper's layout.
func (t *Table1Result) String() string {
	var b strings.Builder
	b.WriteString("Table 1: selected cost/performance designs of the connectivity exploration\n")
	fmt.Fprintf(&b, "%-10s %12s %16s %12s\n", "Benchmark", "Cost[gates]", "AvgLat[cycles]", "AvgNrg[nJ]")
	last := ""
	for _, r := range t.Rows {
		name := ""
		if r.Benchmark != last {
			name = r.Benchmark
			last = r.Benchmark
		}
		fmt.Fprintf(&b, "%-10s %12.0f %16.2f %12.2f\n", name, r.Cost, r.Latency, r.Energy)
	}
	return b.String()
}

// Detailed renders the table with design descriptions appended.
func (t *Table1Result) Detailed() string {
	var b strings.Builder
	b.WriteString(t.String())
	b.WriteString("\ndesigns:\n")
	for _, r := range t.Rows {
		fmt.Fprintf(&b, "  %-10s %12.0f  %s\n", r.Benchmark, r.Cost, r.Design)
	}
	return b.String()
}
