// Custom memory architecture: build a memory-modules architecture by
// hand, wire it with two different connectivity architectures, and
// simulate both against the vocoder benchmark — the workflow of a
// designer evaluating a specific platform rather than exploring. The
// memory behavior is captured once and both connectivity options are
// re-timed against it, as every MemorEx evaluation does.
//
//	go run ./examples/custom_memory
package main

import (
	"fmt"
	"log"

	"memorex"
	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

func main() {
	tr, err := memorex.GenerateTrace("vocoder", memorex.WorkloadConfig{Scale: 1, Seed: 42})
	if err != nil {
		log.Fatal(err)
	}

	// Find the data structures we want to place explicitly.
	var work, speech trace.DSID
	for i, d := range tr.DS {
		switch d.Name {
		case "work":
			work = trace.DSID(i)
		case "speech":
			speech = trace.DSID(i)
		}
	}

	// Hand-built memory architecture: a small cache for everything,
	// the hot work buffer in an SRAM scratchpad, and a stream buffer
	// in front of the speech samples.
	arch := &mem.Architecture{
		Name: "handbuilt",
		Modules: []mem.Module{
			mem.MustCache(4096, 32, 2),
			mem.MustSRAM(1024),
			mem.MustStreamBuffer(32, 4),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{work: 1, speech: 2},
		Default: 0,
	}
	if err := arch.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("memory architecture:", arch.Describe(tr))
	fmt.Println("channels:")
	for _, ch := range arch.Channels() {
		fmt.Println("  -", ch.Label(arch))
	}

	lib := connect.Library()
	pick := func(name string) connect.Component {
		c, err := connect.ByName(lib, name)
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	// Connectivity option A: one shared AHB for the CPU links, one
	// shared off-chip bus.
	chans := arch.Channels()
	var onChip, offChip []int
	for i, ch := range chans {
		if ch.OffChip {
			offChip = append(offChip, i)
		} else {
			onChip = append(onChip, i)
		}
	}
	shared := &connect.Arch{
		Channels: chans,
		Clusters: [][]int{onChip, offChip},
		Assign:   []connect.Component{pick("ahb32"), pick("off32")},
	}

	// Connectivity option B: dedicated/MUX links per module, still one
	// off-chip bus.
	perModule := &connect.Arch{Channels: chans}
	for _, i := range onChip {
		perModule.Clusters = append(perModule.Clusters, []int{i})
		perModule.Assign = append(perModule.Assign, pick("mux32"))
	}
	perModule.Clusters = append(perModule.Clusters, offChip)
	perModule.Assign = append(perModule.Assign, pick("off32"))

	options := []struct {
		name string
		conn *connect.Arch
	}{{"shared AHB", shared}, {"per-module MUX", perModule}}
	conns := make([]*connect.Arch, len(options))
	for i, c := range options {
		if err := c.conn.Validate(); err != nil {
			log.Fatal(err)
		}
		conns[i] = c.conn
	}

	// Two-phase simulation: capture what the memory modules do once,
	// then re-time both connectivity options against that capture in
	// one replay pass.
	bt, err := sim.CaptureBehavior(tr, arch, nil)
	if err != nil {
		log.Fatal(err)
	}
	results, err := sim.ReplayBatch(bt, conns)
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range options {
		r := results[i]
		fmt.Printf("\n%s: %s\n", c.name, c.conn.Describe(arch))
		fmt.Printf("  total cost      %9.0f gates (memory %0.f + connectivity %0.f)\n",
			arch.Gates()+c.conn.Gates(), arch.Gates(), c.conn.Gates())
		fmt.Printf("  avg latency     %9.2f cycles/access\n", r.AvgLatency())
		fmt.Printf("  avg energy      %9.2f nJ/access\n", r.AvgEnergy())
		fmt.Printf("  miss ratio      %9.4f\n", r.MissRatio())
		fmt.Printf("  off-chip bytes  %9d\n", r.OffChipBytes)
	}
}
