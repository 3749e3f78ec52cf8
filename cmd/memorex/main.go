// Command memorex runs the full MemorEx pipeline (profiling, APEX
// memory-modules exploration, ConEx connectivity exploration) on one of
// the built-in benchmarks and prints the resulting design points and
// pareto fronts.
//
// Usage:
//
//	memorex [-bench compress|li|vocoder] [-scale N] [-seed N] [-workers N]
//	        [-keep N] [-cap N] [-scenario power|cost|perf] [-limit V]
//	        [-trace-cache DIR] [-trace-cache-limit SIZE]
//	        [-events FILE] [-progress] [-debug-addr ADDR]
//	        [-cpuprofile file] [-memprofile file]
//
// -events streams every run/phase/evaluation/prune event as JSON Lines;
// -progress paints a live status line; -debug-addr serves expvar
// (including the exploration metrics registry) and pprof while the
// exploration runs. -trace-cache persists Phase A behavior traces
// across runs, so re-running the same benchmark warm-starts without
// re-simulating the memory modules. Ctrl-C cancels between design-point
// evaluations.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"memorex"
	"memorex/internal/adl"
	"memorex/internal/cliutil"
	"memorex/internal/connect"
)

func main() {
	cliutil.Init("memorex")
	var wl cliutil.WorkloadFlags
	var ev cliutil.EvalFlags
	var prof cliutil.ProfileFlags
	var ob cliutil.ObsFlags
	var cf cliutil.CacheFlags
	var sf cliutil.SearchFlags
	wl.Register(flag.CommandLine)
	ev.Register(flag.CommandLine)
	prof.Register(flag.CommandLine)
	ob.Register(flag.CommandLine)
	cf.Register(flag.CommandLine)
	sf.Register(flag.CommandLine)
	keep := flag.Int("keep", 8, "locally promising designs kept per memory architecture")
	assignCap := flag.Int("cap", 192, "max connectivity assignments per clustering level")
	scenario := flag.String("scenario", "", "constrained selection: power, cost or perf")
	limit := flag.Float64("limit", 0, "constraint value for -scenario (nJ, gates or cycles)")
	jsonOut := flag.String("json", "", "write the explored design points as JSON to this file")
	emitDir := flag.String("emit", "", "write each cost/perf front design as an ADL file into this directory")
	libPath := flag.String("lib", "", "JSON connectivity IP library to explore with (default: built-in)")
	dumpLib := flag.String("dumplib", "", "write the built-in connectivity library as JSON to this file and exit")
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	if *dumpLib != "" {
		f, err := os.Create(*dumpLib)
		if err != nil {
			log.Fatal(err)
		}
		if err := connect.WriteLibrary(f, connect.Library()); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", *dumpLib)
		return
	}

	lib, err := cliutil.LoadLibrary(*libPath)
	if err != nil {
		log.Fatal(err)
	}
	if *libPath != "" {
		fmt.Printf("using connectivity library %s (%d components)\n", *libPath, len(lib))
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

	exOpts := []memorex.ExplorerOption{
		memorex.WithWorkloadConfig(wl.Config()),
		memorex.WithWorkers(ev.Workers),
		memorex.WithLibrary(lib),
		memorex.WithKeepPerArch(*keep),
		memorex.WithAssignCap(*assignCap),
		memorex.WithObserver(observer),
	}
	if cf.Dir != "" {
		limit, err := cf.LimitBytes()
		if err != nil {
			log.Fatal(err)
		}
		exOpts = append(exOpts, memorex.WithTraceCache(cf.Dir), memorex.WithTraceCacheLimit(limit))
	}
	ex, err := memorex.NewExplorer(exOpts...)
	if err != nil {
		log.Fatal(err)
	}
	ob.ServeDebug(ex.MetricsSnapshot)

	if _, err := sf.ParseStrategy(); err != nil {
		log.Fatal(err)
	}
	search := sf.Config(wl.Seed)

	ctx, cancel := cliutil.SignalContext()
	defer cancel()
	start := time.Now()
	rep, err := ex.Do(ctx, memorex.ExploreRequest{
		Benchmark: wl.Bench,
		Strategy:  sf.Strategy,
		Search:    &search,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("benchmark %s: %d accesses, %d data structures\n",
		wl.Bench, rep.Trace.NumAccesses(), len(rep.Trace.DS)-1)
	fmt.Println("\naccess patterns:")
	for _, s := range rep.Profile.Stats {
		fmt.Printf("  %-10s %9d accesses  %-13s chain=%.2f footprint=%dB\n",
			s.Name, s.Count, s.Class, s.ChainRatio, s.FootprintBytes)
	}

	fmt.Printf("\nAPEX: %d memory architectures evaluated, %d selected:\n",
		len(rep.APEX.All), len(rep.APEX.Selected))
	for i, dp := range rep.APEX.Selected {
		fmt.Printf("  %d. %12.0f gates  miss %.4f  %s\n",
			i+1, dp.Gates, dp.MissRatio, dp.Arch.Describe(rep.Trace))
	}

	if rep.Search != nil {
		fmt.Printf("\nheuristic search: strategy=%s seed=%d budget=%d evals=%d\n",
			rep.Search.Strategy, rep.Search.Seed, rep.Search.Budget, rep.Search.Evals)
	}

	cloud := 0
	for _, pts := range rep.ConEx.PerArch {
		cloud += len(pts)
	}
	if rep.Search != nil {
		// Heuristic drivers keep no per-arch estimate cloud; the
		// provenance counters carry the estimate/promotion split.
		cloud = int(rep.Search.Evals - rep.Search.Promotions)
	}
	fmt.Printf("\nConEx: %d connectivity candidates estimated, %d fully simulated\n",
		cloud, len(rep.ConEx.Combined))
	fmt.Println("cost/performance pareto front:")
	fmt.Printf("  %12s %9s %8s  %s\n", "cost[gates]", "lat[cyc]", "nrg[nJ]", "design")
	for _, dp := range rep.ConEx.CostPerfFront {
		fmt.Printf("  %12.0f %9.2f %8.2f  %s\n",
			dp.Cost, dp.Latency, dp.Energy, dp.MemArch.Describe(rep.Trace)+" | "+dp.Conn.Describe(dp.MemArch))
	}

	if *scenario != "" {
		var pts []memorex.Point
		switch *scenario {
		case "power":
			pts = rep.PowerConstrained(*limit)
		case "cost":
			pts = rep.CostConstrained(*limit)
		case "perf":
			pts = rep.PerformanceConstrained(*limit)
		default:
			log.Fatalf("unknown scenario %q (want power, cost or perf)", *scenario)
		}
		fmt.Printf("\n%s-constrained selection (limit %g): %d designs\n", *scenario, *limit, len(pts))
		for _, p := range pts {
			fmt.Printf("  %12.0f gates %8.2f cyc %7.2f nJ  %s\n", p.Cost, p.Latency, p.Energy, p.Label)
		}
	}

	if *emitDir != "" {
		if err := os.MkdirAll(*emitDir, 0o755); err != nil {
			log.Fatal(err)
		}
		for i, dp := range rep.ConEx.CostPerfFront {
			src, err := adl.Format(dp.MemArch, dp.Conn, rep.Trace)
			if err != nil {
				log.Fatal(err)
			}
			path := fmt.Sprintf("%s/%s-design%02d.adl", *emitDir, wl.Bench, i)
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				log.Fatal(err)
			}
		}
		fmt.Printf("\nemitted %d ADL designs to %s (run with cmd/simulate -arch)\n",
			len(rep.ConEx.CostPerfFront), *emitDir)
	}

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			log.Fatal(err)
		}
		if err := rep.WriteJSON(f); err != nil {
			f.Close()
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println("\nwrote", *jsonOut)
	}

	fmt.Printf("\nexploration work: %d sampled + %d simulated accesses in %v\n",
		rep.ConEx.EstimatedAccesses, rep.ConEx.SimulatedAccesses,
		time.Since(start).Round(time.Millisecond))
	fmt.Println(ex.Stats())
	if cs, ok := ex.TraceCacheStats(); ok {
		fmt.Printf("trace cache %s: %d hits, %d misses (%d corrupt quarantined), %d puts, %d evictions, %d bytes on disk\n",
			cf.Dir, cs.Hits, cs.Misses, cs.CorruptQuarantined, cs.Puts, cs.Evictions, cs.BytesOnDisk)
	}
}
