// Command conex runs the connectivity exploration for a single memory
// architecture chosen from the APEX selection, printing the Bandwidth
// Requirement Graph, the clustering hierarchy, and the estimated
// connectivity design points.
//
// Usage:
//
//	conex [-bench compress|li|vocoder] [-arch N] [-scale N] [-seed N]
//	      [-trace-cache DIR] [-trace-cache-limit SIZE]
//	      [-events FILE] [-progress] [-debug-addr ADDR]
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"
	"strings"
	"time"

	"memorex"
	"memorex/internal/apex"
	"memorex/internal/cliutil"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/explore"
	"memorex/internal/mem"
	"memorex/internal/obs"
)

func main() {
	cliutil.Init("conex")
	var wl cliutil.WorkloadFlags
	var ob cliutil.ObsFlags
	var cf cliutil.CacheFlags
	var sf cliutil.SearchFlags
	wl.Register(flag.CommandLine)
	ob.Register(flag.CommandLine)
	cf.Register(flag.CommandLine)
	sf.Register(flag.CommandLine)
	archIdx := flag.Int("arch", 0, "index into the APEX selection")
	flag.Parse()
	strategy, err := sf.ParseStrategy()
	if err != nil {
		log.Fatal(err)
	}

	opt := memorex.DefaultOptions(wl.Bench)
	opt.WorkloadConfig = wl.Config()
	tr, err := memorex.GenerateTrace(wl.Bench, opt.WorkloadConfig)
	if err != nil {
		log.Fatal(err)
	}
	apexRes, err := apex.Explore(tr, nil, opt.APEX)
	if err != nil {
		log.Fatal(err)
	}
	if *archIdx < 0 || *archIdx >= len(apexRes.Selected) {
		log.Fatalf("-arch %d out of range: APEX selected %d architectures", *archIdx, len(apexRes.Selected))
	}
	arch := apexRes.Selected[*archIdx].Arch
	fmt.Printf("memory architecture %d: %s\n", *archIdx, arch.Describe(tr))

	brg := core.NewBRG(arch, apexRes.Selected[*archIdx].MemOnly)
	fmt.Println("\nbandwidth requirement graph:")
	for i, ch := range brg.Channels {
		side := "on-chip "
		if ch.OffChip {
			side = "off-chip"
		}
		fmt.Printf("  %-34s %s %8.3f B/access\n", ch.Label(arch), side, brg.Bandwidth(i))
	}

	fmt.Println("\nclustering hierarchy:")
	for li, level := range core.Levels(brg) {
		fmt.Printf("  level %d:", li)
		for _, cl := range level {
			labels := make([]string, len(cl))
			for i, ch := range cl {
				labels[i] = brg.Channels[ch].Label(arch)
			}
			fmt.Printf(" {%s}", strings.Join(labels, ", "))
		}
		fmt.Println()
	}

	observer, closeObs, err := ob.Observer()
	if err != nil {
		log.Fatal(err)
	}
	defer func() {
		if err := closeObs(); err != nil {
			log.Printf("events: %v", err)
		}
	}()
	reg := obs.NewRegistry()
	cache, err := cf.Open(reg)
	if err != nil {
		log.Fatal(err)
	}
	opt.ConEx.Engine = engine.New(0, engine.WithObserver(observer), engine.WithMetrics(reg),
		engine.WithBehaviorCache(cache))
	ob.ServeDebug(reg.Snapshot)

	ctx, cancel := cliutil.SignalContext()
	defer cancel()

	if sf.Strategy != "" && strategy != explore.Pruned {
		// Run the requested exploration driver over just this memory
		// architecture, on APEX's space so its BRG is the one APEX
		// scored, and report its front.
		opt.ConEx.Search = sf.Config(wl.Seed)
		archs := []*mem.Architecture{arch}
		sp := explore.BuildSpace(apexRes)
		sp.AllMem, sp.SelectedMem, sp.NeighborMem = archs, archs, archs
		out, err := explore.Run(ctx, tr, sp, strategy, opt.ConEx)
		if err != nil {
			log.Fatal(err)
		}
		if out.Search != nil {
			fmt.Printf("\nheuristic search: strategy=%s seed=%d budget=%d evals=%d\n",
				out.Search.Strategy, out.Search.Seed, out.Search.Budget, out.Search.Evals)
		}
		fmt.Printf("\n%s exploration: %d designs fully simulated in %v, cost/perf front:\n",
			strategy, len(out.Points), out.Wall.Round(time.Millisecond))
		for _, p := range out.Front {
			fmt.Printf("  %12.0f gates %8.2f cyc %7.2f nJ  %s\n", p.Cost, p.Latency, p.Energy, p.Label)
		}
		if cache != nil {
			fmt.Println(cache)
		}
		return
	}

	points, work, dropped, err := core.ConnectivityExploration(ctx, tr, arch, opt.ConEx)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Cost < points[j].Cost })
	fmt.Printf("\n%d connectivity designs estimated (%d sampled accesses, %d assignments dropped by cap):\n",
		len(points), work, dropped)
	sel := core.SelectLocal(points, opt.ConEx.KeepPerArch)
	fmt.Printf("locally most promising (%d):\n", len(sel))
	for _, p := range sel {
		fmt.Printf("  %12.0f gates %8.2f cyc %7.2f nJ  %s\n",
			p.Cost, p.Latency, p.Energy, p.Conn.Describe(arch))
	}
	if cache != nil {
		fmt.Println(cache)
	}
}
