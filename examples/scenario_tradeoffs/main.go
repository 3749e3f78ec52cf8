// Scenario trade-offs: the paper's three constrained-selection scenarios
// (Section 5, Phase II) on the vocoder benchmark — power-constrained,
// cost-constrained, and performance-constrained selection from the same
// explored design space.
//
//	go run ./examples/scenario_tradeoffs
package main

import (
	"context"
	"fmt"
	"log"

	"memorex"
)

func main() {
	ex, err := memorex.NewExplorer(
		memorex.WithAssignCap(64),
		memorex.WithKeepPerArch(8),
	)
	if err != nil {
		log.Fatal(err)
	}

	report, err := ex.Do(context.Background(), memorex.ExploreRequest{Benchmark: "vocoder"})
	if err != nil {
		log.Fatal(err)
	}

	// Derive meaningful constraints from the explored space itself:
	// median energy, median cost, median latency.
	pts := report.ConEx.Points()
	if len(pts) == 0 {
		log.Fatal("exploration produced no designs")
	}
	var maxE, maxC, maxL float64
	for _, p := range pts {
		maxE += p.Energy
		maxC += p.Cost
		maxL += p.Latency
	}
	meanE := maxE / float64(len(pts))
	meanC := maxC / float64(len(pts))
	meanL := maxL / float64(len(pts))

	show := func(title string, sel []memorex.Point) {
		fmt.Printf("\n%s: %d designs\n", title, len(sel))
		fmt.Printf("  %12s %9s %8s\n", "cost[gates]", "lat[cyc]", "nrg[nJ]")
		for _, p := range sel {
			fmt.Printf("  %12.0f %9.2f %8.2f\n", p.Cost, p.Latency, p.Energy)
		}
	}

	fmt.Printf("explored %d fully simulated designs for vocoder\n", len(pts))

	// (a) Power-constrained: optimize cost and performance while the
	// energy stays under budget.
	show(fmt.Sprintf("(a) power-constrained (energy <= %.1f nJ): cost/perf pareto", meanE),
		report.PowerConstrained(meanE))

	// (b) Cost-constrained: optimize performance and power under a
	// silicon budget.
	show(fmt.Sprintf("(b) cost-constrained (cost <= %.0f gates): perf/power pareto", meanC),
		report.CostConstrained(meanC))

	// (c) Performance-constrained: optimize cost and power while
	// meeting a latency requirement.
	show(fmt.Sprintf("(c) performance-constrained (latency <= %.1f cycles): cost/power pareto", meanL),
		report.PerformanceConstrained(meanL))
}
