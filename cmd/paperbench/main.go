// Command paperbench regenerates the tables and figures of the paper's
// evaluation section (Figures 3, 4, 6; Tables 1, 2).
//
// Usage:
//
//	paperbench [-exp fig3|fig4|fig6|fige|tab1|tab2|search|all] [-preset paper|quick]
//	           [-workers N] [-stats]
//	           [-trace-cache DIR] [-trace-cache-limit SIZE]
//	           [-events FILE] [-progress] [-debug-addr ADDR]
//	           [-cpuprofile file] [-memprofile file]
//
// The figure experiments share one evaluation engine, so design points
// simulated for an earlier figure are served from the memoization cache
// when a later one revisits them; -stats prints the engine counters
// (simulations, cache hits, per-phase wall time) after each experiment.
// -events streams the shared engine's evaluation events as JSON Lines.
// Ctrl-C cancels the run between design-point evaluations.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"memorex/internal/cliutil"
	"memorex/internal/engine"
	"memorex/internal/experiments"
	"memorex/internal/obs"
)

func main() {
	cliutil.Init("paperbench")
	var ev cliutil.EvalFlags
	var prof cliutil.ProfileFlags
	var ob cliutil.ObsFlags
	var cf cliutil.CacheFlags
	ev.Register(flag.CommandLine)
	prof.Register(flag.CommandLine)
	ob.Register(flag.CommandLine)
	cf.Register(flag.CommandLine)
	exp := flag.String("exp", "all", "experiment to run: fig3, fig4, fig6, fige, tab1, tab2, search, all")
	preset := flag.String("preset", "paper", "sizing preset: paper or quick")
	stats := flag.Bool("stats", true, "print evaluation-engine statistics after each experiment")
	flag.Parse()

	stopProf, err := prof.Start()
	if err != nil {
		log.Fatal(err)
	}
	defer stopProf()

	var opt experiments.Options
	switch *preset {
	case "paper":
		opt = experiments.Paper()
	case "quick":
		opt = experiments.Quick()
	default:
		log.Fatalf("unknown preset %q", *preset)
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
	// Rebuild the preset's shared engine so the figure experiments run
	// with the requested worker bound and instrumentation attached; the
	// private engines of Table 2 and the search experiment take its
	// worker bound.
	reg := obs.NewRegistry()
	cache, err := cf.Open(reg)
	if err != nil {
		log.Fatal(err)
	}
	opt.ConEx.Engine = engine.New(ev.Workers,
		engine.WithObserver(observer), engine.WithMetrics(reg),
		engine.WithBehaviorCache(cache))
	ob.ServeDebug(reg.Snapshot)

	ctx, cancel := cliutil.SignalContext()
	defer cancel()

	runners := []struct {
		name string
		run  func() (fmt.Stringer, error)
	}{
		{"fig3", func() (fmt.Stringer, error) { return experiments.Figure3(ctx, opt) }},
		{"fig4", func() (fmt.Stringer, error) { return experiments.Figure4(ctx, opt) }},
		{"fig6", func() (fmt.Stringer, error) { return experiments.Figure6(ctx, opt) }},
		{"fige", func() (fmt.Stringer, error) { return experiments.FigureEnergy(ctx, opt) }},
		{"tab1", func() (fmt.Stringer, error) { return experiments.Table1(ctx, opt) }},
		{"tab2", func() (fmt.Stringer, error) { return experiments.Table2(ctx, opt) }},
		{"search", func() (fmt.Stringer, error) { return experiments.Search(ctx, opt) }},
	}

	ran := false
	for _, r := range runners {
		if *exp != "all" && *exp != r.name {
			continue
		}
		ran = true
		start := time.Now()
		res, err := r.run()
		if err != nil {
			log.Fatalf("%s: %v", r.name, err)
		}
		fmt.Printf("==== %s (%s preset, %v) ====\n%s\n", r.name, *preset,
			time.Since(start).Round(time.Millisecond), res)
		if *stats {
			fmt.Printf("---- %s\n\n", opt.Engine().Stats())
		}
	}
	if !ran {
		log.Printf("unknown experiment %q", *exp)
		flag.Usage()
		os.Exit(2)
	}
	if cache != nil && *stats {
		fmt.Println(cache)
	}
}
