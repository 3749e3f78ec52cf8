// Command simulate runs one fully specified system — described in the
// MemorEx architecture description language — against a benchmark trace
// and reports its cost, performance, energy and per-channel contention.
//
// Usage:
//
//	simulate -arch system.adl [-bench compress] [-trace file.mtr]
//	         [-trace-cache DIR] [-trace-cache-limit SIZE]
//
// The simulation runs in two phases: the memory-module behavior of
// (trace, memory architecture) is captured once and the connectivity is
// replayed against it; results are identical to the one-phase
// simulation. -trace-cache persists the capture in the cache directory,
// so every later run — of this command or of the exploration engines
// sharing the directory — only replays the connectivity.
//
// Example system.adl:
//
//	memory {
//	  cache  l1 size=8192 line=32 assoc=2
//	  stream sb line=32 depth=4 map=speech
//	  dram   m  rowhit=8 rowmiss=20 rowbytes=2048 banks=4
//	  default l1
//	}
//	connect {
//	  link cpu_bus comp=ahb32 channels=cpu:l1,cpu:sb
//	  link ext     comp=off32 channels=l1:dram,sb:dram
//	}
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"memorex/internal/adl"
	"memorex/internal/cliutil"
	"memorex/internal/connect"
	"memorex/internal/engine"
	"memorex/internal/sampling"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

func main() {
	cliutil.Init("simulate")
	var wl cliutil.WorkloadFlags
	var cf cliutil.CacheFlags
	wl.Register(flag.CommandLine)
	wl.RegisterTraceFile(flag.CommandLine)
	cf.Register(flag.CommandLine)
	archPath := flag.String("arch", "", "architecture description file (required)")
	libPath := flag.String("lib", "", "JSON connectivity library (default: built-in)")
	flag.Parse()

	if *archPath == "" {
		flag.Usage()
		os.Exit(2)
	}

	tr, err := wl.Load()
	if err != nil {
		log.Fatal(err)
	}
	lib, err := cliutil.LoadLibrary(*libPath)
	if err != nil {
		log.Fatal(err)
	}

	src, err := os.ReadFile(*archPath)
	if err != nil {
		log.Fatal(err)
	}
	sys, err := adl.Parse(string(src), tr, lib)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("memory:       %s\n", sys.Mem.Describe(tr))
	fmt.Printf("connectivity: %s\n", sys.Conn.Describe(sys.Mem))
	fmt.Printf("cost:         %.0f gates (memory %.0f + connectivity %.0f)\n",
		sys.Mem.Gates()+sys.Conn.Gates(), sys.Mem.Gates(), sys.Conn.Gates())

	r, err := run(tr, sys, &cf)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntrace:        %s (%d accesses)\n", tr.Name, r.Accesses)
	fmt.Printf("avg latency:  %.2f cycles/access (p50<=%d, p95<=%d, p99<=%d)\n",
		r.AvgLatency(), r.LatencyPercentile(50), r.LatencyPercentile(95), r.LatencyPercentile(99))
	fmt.Printf("avg energy:   %.2f nJ/access\n", r.AvgEnergy())
	fmt.Printf("miss ratio:   %.4f\n", r.MissRatio())
	fmt.Printf("off-chip:     %d bytes\n", r.OffChipBytes)
	fmt.Println("\nchannels:")
	for i, ch := range sys.Mem.Channels() {
		var avgWait float64
		if r.ChannelTransfers[i] > 0 {
			avgWait = float64(r.ChannelWait[i]) / float64(r.ChannelTransfers[i])
		}
		fmt.Printf("  %-32s %10d B %9d transfers  avg wait %.2f cyc\n",
			ch.Label(sys.Mem), r.ChannelBytes[i], r.ChannelTransfers[i], avgWait)
	}
}

// run simulates the system: the memory-module behavior is captured
// once and the connectivity re-timed against it as a K=1 ReplayBatch.
// With -trace-cache the capture is persisted, and served from disk when
// an earlier run already did it.
func run(tr *trace.Trace, sys *adl.System, cf *cliutil.CacheFlags) (*sim.Result, error) {
	cache, err := cf.Open(nil)
	if err != nil {
		return nil, err
	}
	fp := engine.BehaviorFingerprint(tr, sys.Mem, engine.Full, sampling.Config{})
	bt, ok := cache.Get(fp)
	if !ok {
		if bt, err = sim.CaptureBehavior(tr, sys.Mem, nil); err != nil {
			return nil, err
		}
		if err := cache.Put(fp, bt); err != nil {
			log.Printf("trace cache: %v", err)
		}
		if cache != nil {
			fmt.Printf("\ntrace cache:  captured behavior into %s\n", cf.Dir)
		}
	} else {
		fmt.Printf("\ntrace cache:  behavior loaded from %s (capture skipped)\n", cf.Dir)
	}
	res, err := sim.ReplayBatch(bt, []*connect.Arch{sys.Conn})
	if err != nil {
		return nil, err
	}
	return res[0], nil
}
