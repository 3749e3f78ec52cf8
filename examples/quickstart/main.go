// Quickstart: run the complete MemorEx pipeline on the compress
// benchmark and print the cost/performance/energy trade-off designs.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"memorex"
)

func main() {
	// Configure the exploration. An Explorer uses the paper's spaces by
	// default; we shrink the connectivity enumeration a little so the
	// quickstart finishes in seconds.
	ex, err := memorex.NewExplorer(
		memorex.WithAssignCap(64),
		memorex.WithKeepPerArch(6),
	)
	if err != nil {
		log.Fatal(err)
	}

	report, err := ex.Do(context.Background(), memorex.ExploreRequest{Benchmark: "compress"})
	if err != nil {
		log.Fatal(err)
	}

	// 1. What the profiler saw.
	fmt.Println("access patterns:")
	for _, s := range report.Profile.Stats {
		fmt.Printf("  %-8s %-13s %6.1f%% of accesses\n",
			s.Name, s.Class, 100*s.Share(report.Profile.Total))
	}

	// 2. What APEX selected.
	fmt.Printf("\nAPEX selected %d memory architectures (of %d evaluated)\n",
		len(report.APEX.Selected), len(report.APEX.All))

	// 3. What ConEx found: the designs a designer would choose from.
	fmt.Println("\nmemory+connectivity pareto front (cost vs average latency):")
	for _, dp := range report.ConEx.CostPerfFront {
		fmt.Printf("  %9.0f gates  %6.2f cycles/access  %5.2f nJ/access\n",
			dp.Cost, dp.Latency, dp.Energy)
	}

	// 4. A power-constrained selection, as in the paper's scenario (a).
	budget := report.ConEx.CostPerfFront[0].Energy // cap at the cheapest design's energy
	fmt.Printf("\ndesigns meeting an energy budget of %.1f nJ/access:\n", budget)
	for _, p := range report.PowerConstrained(budget) {
		fmt.Printf("  %9.0f gates  %6.2f cycles/access  %5.2f nJ/access\n",
			p.Cost, p.Latency, p.Energy)
	}
}
