// Custom library: define your own connectivity IP catalog as JSON, load
// it, and run the connectivity exploration against it — the paper's
// library-based methodology with a user-supplied library. The example
// catalog models a low-power design kit: narrow slow busses with low
// energy per byte, plus one premium wide bus.
//
//	go run ./examples/custom_library
package main

import (
	"context"
	"fmt"
	"log"
	"strings"

	"memorex"
	"memorex/internal/connect"
)

const lowPowerKit = `[
  {"name":"lp-bus8",  "class":"asb", "width_bytes":1, "arb_cycles":1,
   "beat_cycles":1, "max_ports":8, "on_chip":true,
   "energy_per_byte_nj":0.012, "base_gates":600, "gates_per_port":90,
   "wire_gates_per_port":250},
  {"name":"lp-bus16", "class":"asb", "width_bytes":2, "arb_cycles":1,
   "beat_cycles":1, "max_ports":8, "on_chip":true,
   "energy_per_byte_nj":0.018, "base_gates":900, "gates_per_port":120,
   "wire_gates_per_port":330},
  {"name":"hp-ahb64", "class":"ahb", "width_bytes":8, "arb_cycles":1,
   "beat_cycles":1, "pipelined":true, "split":true, "max_ports":12,
   "on_chip":true, "energy_per_byte_nj":0.06, "base_gates":5200,
   "gates_per_port":400, "wire_gates_per_port":900},
  {"name":"lp-ext16", "class":"offchip", "width_bytes":2, "arb_cycles":2,
   "beat_cycles":2, "max_ports":5, "on_chip":false,
   "energy_per_byte_nj":0.22, "base_gates":2100, "gates_per_port":130,
   "wire_gates_per_port":0},
  {"name":"hp-ext32", "class":"offchip", "width_bytes":4, "arb_cycles":2,
   "beat_cycles":1, "max_ports":5, "on_chip":false,
   "energy_per_byte_nj":0.48, "base_gates":4100, "gates_per_port":200,
   "wire_gates_per_port":0}
]`

func main() {
	lib, err := connect.ReadLibrary(strings.NewReader(lowPowerKit))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("loaded custom library with %d components:\n", len(lib))
	for _, c := range lib {
		side := "on-chip"
		if !c.OnChip {
			side = "off-chip"
		}
		fmt.Printf("  %-9s %-9s %dB wide, %d-cycle word, %.3f nJ/B, %s\n",
			c.Name, c.Class, c.WidthBytes, c.TransferCycles(4), c.EnergyPerByte, side)
	}

	ex, err := memorex.NewExplorer(
		memorex.WithLibrary(lib),
		memorex.WithAssignCap(48),
		memorex.WithKeepPerArch(6),
	)
	if err != nil {
		log.Fatal(err)
	}

	report, err := ex.Do(context.Background(), memorex.ExploreRequest{Benchmark: "jpegenc"})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\ncost/performance front with the low-power kit (jpegenc):")
	for _, dp := range report.ConEx.CostPerfFront {
		fmt.Printf("  %9.0f gates %7.2f cyc %6.2f nJ  %s\n",
			dp.Cost, dp.Latency, dp.Energy, dp.Conn.Describe(dp.MemArch))
	}

	// The point of a low-power kit: check the energy-constrained view.
	pts := report.ConEx.Points()
	var minE float64 = 1e18
	for _, p := range pts {
		if p.Energy < minE {
			minE = p.Energy
		}
	}
	sel := report.PowerConstrained(minE * 1.5)
	fmt.Printf("\ndesigns within 1.5x of the minimum energy (%.2f nJ): %d\n", minE, len(sel))
	for _, p := range sel {
		fmt.Printf("  %9.0f gates %7.2f cyc %6.2f nJ\n", p.Cost, p.Latency, p.Energy)
	}
}
