package memorex_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation section, plus ablation benches for the design
// choices DESIGN.md calls out. Each benchmark regenerates its artifact
// with the Quick preset (same structure as the Paper preset, smaller
// traces and enumeration caps) and reports domain-specific metrics via
// b.ReportMetric. Run:
//
//	go test -bench=. -benchmem
//
// For paper-sized runs use cmd/paperbench -preset paper.

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"memorex/internal/apex"
	"memorex/internal/btcache"
	"memorex/internal/connect"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/experiments"
	"memorex/internal/explore"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/pareto"
	"memorex/internal/profile"
	"memorex/internal/sampling"
	"memorex/internal/sim"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// freshQuick returns the Quick preset with a fresh evaluation engine, so
// every benchmark iteration performs real simulation work instead of
// replaying the previous iteration from the memoization cache.
func freshQuick() experiments.Options {
	opt := experiments.Quick()
	opt.ConEx.Engine = engine.New(0)
	return opt
}

// BenchmarkFigure3 regenerates Figure 3: the APEX memory-modules
// exploration of compress (cost vs miss-ratio pareto).
func BenchmarkFigure3(b *testing.B) {
	opt := freshQuick()
	for i := 0; i < b.N; i++ {
		opt.ConEx.Engine = engine.New(0)
		res, err := experiments.Figure3(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		sel := res.SelectedRows()
		b.ReportMetric(float64(len(res.Rows)), "designs")
		b.ReportMetric(float64(len(sel)), "selected")
		b.ReportMetric(sel[len(sel)-1].MissRatio, "best-missratio")
	}
}

// BenchmarkFigure4 regenerates Figure 4: the ConEx connectivity
// exploration cloud and its latency improvement for compress.
func BenchmarkFigure4(b *testing.B) {
	opt := freshQuick()
	for i := 0; i < b.N; i++ {
		opt.ConEx.Engine = engine.New(0)
		res, err := experiments.Figure4(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.CloudSize), "cloud-designs")
		b.ReportMetric(res.ImprovementPct, "latency-improv-%")
	}
}

// BenchmarkFigure6 regenerates Figure 6: the annotated cost/perf pareto
// architectures of compress and their gain over the best traditional
// cache design.
func BenchmarkFigure6(b *testing.B) {
	opt := freshQuick()
	for i := 0; i < b.N; i++ {
		opt.ConEx.Engine = engine.New(0)
		res, err := experiments.Figure6(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "pareto-designs")
		b.ReportMetric(res.BestGainPct, "best-gain-%")
	}
}

// BenchmarkFigureEnergy regenerates the energy-dimension views of the
// compress exploration (paper Section 4's cost/power and
// performance/power trade-off spaces).
func BenchmarkFigureEnergy(b *testing.B) {
	opt := freshQuick()
	for i := 0; i < b.N; i++ {
		opt.ConEx.Engine = engine.New(0)
		res, err := experiments.FigureEnergy(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.LatencyEnergy)), "perf-power-front")
		b.ReportMetric(float64(len(res.Front3D)), "front3d-designs")
	}
}

// BenchmarkTable1 regenerates Table 1: selected cost/performance designs
// with cost, latency and energy for compress, li and vocoder.
func BenchmarkTable1(b *testing.B) {
	opt := freshQuick()
	for i := 0; i < b.N; i++ {
		opt.ConEx.Engine = engine.New(0)
		res, err := experiments.Table1(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Rows)), "rows")
		comp := res.RowsFor("compress")
		b.ReportMetric(comp[0].Latency/comp[len(comp)-1].Latency, "compress-lat-span")
	}
}

// BenchmarkTable2 regenerates Table 2: pareto coverage and average
// distance of the Pruned and Neighborhood strategies vs Full.
func BenchmarkTable2(b *testing.B) {
	opt := freshQuick()
	for i := 0; i < b.N; i++ {
		opt.ConEx.Engine = engine.New(0)
		res, err := experiments.Table2(context.Background(), opt)
		if err != nil {
			b.Fatal(err)
		}
		c := res.Comparisons[0] // compress
		b.ReportMetric(100*c.Metrics[1].Coverage, "pruned-coverage-%")
		b.ReportMetric(float64(c.Metrics[0].WorkAccesses)/float64(c.Metrics[1].WorkAccesses),
			"full/pruned-work")
	}
}

// --- Ablations (design choices called out in DESIGN.md section 7) ----

// quickTrace is the shared compress slice used by the ablations.
func quickTrace(b *testing.B) *workloadTrace {
	b.Helper()
	t := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 60_000)
	return &workloadTrace{t}
}

type workloadTrace struct{ *trace.Trace }

func quickArchs(b *testing.B, t *trace.Trace) []*mem.Architecture {
	b.Helper()
	res, err := apex.Explore(t, nil, apex.Config{
		CacheSizes:  []int{2 << 10, 16 << 10},
		CacheAssocs: []int{2},
		CacheLines:  []int{32},
		MaxCustom:   1,
		SRAMLimit:   80 << 10,
		MaxSelected: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	archs := make([]*mem.Architecture, len(res.Selected))
	for i, dp := range res.Selected {
		archs[i] = dp.Arch
	}
	return archs
}

// BenchmarkAblationClustering compares ConEx's hierarchical bandwidth
// clustering against enumerating only the finest (one component per
// channel) level: clustering explores sharing options the flat space
// misses, for less work than enumerating everything.
func BenchmarkAblationClustering(b *testing.B) {
	tr := quickTrace(b)
	archs := quickArchs(b, tr.Trace)
	// Pick the architecture with the most channels: clustering only has
	// something to merge when several modules share the interconnect.
	arch := archs[0]
	for _, a := range archs {
		if len(a.Channels()) > len(arch.Channels()) {
			arch = a
		}
	}
	cfg := core.DefaultConfig()
	cfg.Sampling = sampling.Config{OnWindow: 1000, OffRatio: 9}
	cfg.MaxAssignPerLevel = 24
	for i := 0; i < b.N; i++ {
		// Hierarchical: all levels.
		points, _, _, err := core.ConnectivityExploration(context.Background(), tr.Trace, arch, cfg)
		if err != nil {
			b.Fatal(err)
		}
		// Flat: only the finest clustering level.
		brg, err := core.BuildBRG(tr.Trace, arch)
		if err != nil {
			b.Fatal(err)
		}
		flatArchs, _ := core.EnumerateAssignments(brg, core.InitialClustering(brg), cfg.Library, 0)
		// Cheapest design found by each (clustering should find cheaper
		// sharing configurations).
		minHier, minFlat := 1e18, 1e18
		for _, p := range points {
			if p.Cost < minHier {
				minHier = p.Cost
			}
		}
		for _, fa := range flatArchs {
			if c := arch.Gates() + fa.Gates(); c < minFlat {
				minFlat = c
			}
		}
		b.ReportMetric(minFlat/minHier, "flat/hier-min-cost")
	}
}

// BenchmarkAblationSampling measures the fidelity and speedup of the 1:9
// time-sampling estimator against full simulation.
func BenchmarkAblationSampling(b *testing.B) {
	tr := quickTrace(b)
	archs := quickArchs(b, tr.Trace)
	lib := connect.Library()
	ahb, _ := connect.ByName(lib, "ahb32")
	off, _ := connect.ByName(lib, "off32")
	arch := archs[len(archs)-1]
	chans := arch.Channels()
	conn := &connect.Arch{Channels: chans}
	var on, offc []int
	for i, ch := range chans {
		if ch.OffChip {
			offc = append(offc, i)
		} else {
			on = append(on, i)
		}
	}
	conn.Clusters = [][]int{on, offc}
	conn.Assign = []connect.Component{ahb, off}
	for i := 0; i < b.N; i++ {
		s, err := sim.New(arch, conn)
		if err != nil {
			b.Fatal(err)
		}
		full, err := s.Run(tr.Trace)
		if err != nil {
			b.Fatal(err)
		}
		est, simulated, err := sampling.Estimate(tr.Trace, arch, conn, sampling.Config{OnWindow: 2000, OffRatio: 9})
		if err != nil {
			b.Fatal(err)
		}
		relErr := (est.AvgLatency() - full.AvgLatency()) / full.AvgLatency()
		if relErr < 0 {
			relErr = -relErr
		}
		b.ReportMetric(100*relErr, "latency-err-%")
		b.ReportMetric(float64(full.Accesses)/float64(simulated), "work-reduction-x")
	}
}

// BenchmarkAblationSplit compares the split-transaction AHB against the
// blocking ASB as the CPU-side bus of a miss-heavy architecture.
func BenchmarkAblationSplit(b *testing.B) {
	tr := quickTrace(b)
	arch := &mem.Architecture{
		Name:    "small-cache",
		Modules: []mem.Module{mem.MustCache(1024, 32, 1)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
	lib := connect.Library()
	build := func(onChip string) *connect.Arch {
		on, _ := connect.ByName(lib, onChip)
		off, _ := connect.ByName(lib, "off32")
		return &connect.Arch{
			Channels: arch.Channels(),
			Clusters: [][]int{{0}, {1}},
			Assign:   []connect.Component{on, off},
		}
	}
	for i := 0; i < b.N; i++ {
		var lat [2]float64
		for j, name := range []string{"ahb32", "asb32"} {
			s, err := sim.New(arch, build(name))
			if err != nil {
				b.Fatal(err)
			}
			r, err := s.Run(tr.Trace)
			if err != nil {
				b.Fatal(err)
			}
			lat[j] = r.AvgLatency()
		}
		b.ReportMetric(lat[1]/lat[0], "asb/ahb-latency")
	}
}

// BenchmarkAblationPrune compares pruning at each stage (Pruned) against
// pruning only at the end (Full) in exploration work.
func BenchmarkAblationPrune(b *testing.B) {
	tr := quickTrace(b)
	res, err := apex.Explore(tr.Trace, nil, apex.Config{
		CacheSizes:  []int{2 << 10, 16 << 10},
		CacheAssocs: []int{2},
		CacheLines:  []int{32},
		MaxCustom:   1,
		SRAMLimit:   80 << 10,
		MaxSelected: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := explore.BuildSpace(res)
	cfg := core.DefaultConfig()
	cfg.Sampling = sampling.Config{OnWindow: 1000, OffRatio: 9}
	cfg.MaxAssignPerLevel = 8
	cfg.KeepPerArch = 4
	for i := 0; i < b.N; i++ {
		full, err := explore.Run(context.Background(), tr.Trace, space, explore.Full, cfg)
		if err != nil {
			b.Fatal(err)
		}
		pruned, err := explore.Run(context.Background(), tr.Trace, space, explore.Pruned, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cov := pareto.Coverage(pruned.Front, full.Front, explore.CoverageTol)
		b.ReportMetric(float64(full.WorkAccesses)/float64(pruned.WorkAccesses), "work-reduction-x")
		b.ReportMetric(100*cov, "coverage-%")
	}
}

// benchmarkSearch runs one heuristic driver against the Full-enumeration
// ground truth of the ablation space at a 25% evaluation budget and
// reports how much of the true cost/latency pareto front it recovers.
// The hard ≥90% coverage floor lives in the internal/explore
// quality-gate test.
func benchmarkSearch(b *testing.B, strategy explore.Strategy) {
	tr := quickTrace(b)
	res, err := apex.Explore(tr.Trace, nil, apex.Config{
		CacheSizes:  []int{2 << 10, 16 << 10},
		CacheAssocs: []int{2},
		CacheLines:  []int{32},
		MaxCustom:   1,
		SRAMLimit:   80 << 10,
		MaxSelected: 2,
	})
	if err != nil {
		b.Fatal(err)
	}
	space := explore.BuildSpace(res)
	cfg := core.DefaultConfig()
	cfg.Sampling = sampling.Config{OnWindow: 1000, OffRatio: 9}
	cfg.MaxAssignPerLevel = 0 // exhaustive clustering: the truth is exact
	full, err := explore.Run(context.Background(), tr.Trace, space, explore.Full, cfg)
	if err != nil {
		b.Fatal(err)
	}
	cfg.Search = core.SearchConfig{Seed: 42, Budget: int(full.Stats.Simulations / 4), Population: 16}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := explore.Run(context.Background(), tr.Trace, space, strategy, cfg)
		if err != nil {
			b.Fatal(err)
		}
		cov := pareto.Coverage(out.Front, full.Front, explore.CoverageTol)
		b.ReportMetric(float64(out.Search.Evals), "search-evals")
		b.ReportMetric(100*cov, "search-coverage-pct")
	}
}

// BenchmarkSearchGA measures the genetic-algorithm driver: wall time of
// a budgeted run plus its truth-front coverage at 25% of Full's work.
func BenchmarkSearchGA(b *testing.B) { benchmarkSearch(b, explore.GA) }

// BenchmarkSearchSA measures the simulated-annealing driver under the
// same budget and space as BenchmarkSearchGA.
func BenchmarkSearchSA(b *testing.B) { benchmarkSearch(b, explore.SA) }

// BenchmarkAblationVictim measures what the victim-buffer extension of
// the memory IP library (mem.VictimCache) buys on compress's
// conflict-heavy hash traffic: miss-ratio reduction per added gate.
func BenchmarkAblationVictim(b *testing.B) {
	tr := quickTrace(b)
	for i := 0; i < b.N; i++ {
		plain := &mem.Architecture{
			Name:    "plain",
			Modules: []mem.Module{mem.MustCache(2048, 32, 1)},
			DRAM:    mem.DefaultDRAM(),
			Default: 0,
		}
		victim := &mem.Architecture{
			Name:    "victim",
			Modules: []mem.Module{mem.MustVictimCache(2048, 32, 1, 8)},
			DRAM:    mem.DefaultDRAM(),
			Default: 0,
		}
		rs, err := sim.MemOnly(context.Background(), tr.Trace, []*mem.Architecture{plain, victim}, 1)
		if err != nil {
			b.Fatal(err)
		}
		rp, rv := rs[0], rs[1]
		b.ReportMetric(rp.MissRatio()/rv.MissRatio(), "miss-reduction-x")
		b.ReportMetric(victim.Gates()/plain.Gates(), "cost-increase-x")
	}
}

// BenchmarkAblationL2 measures the hierarchical-memory extension: a
// shared L2 behind a small L1 versus going straight off chip.
func BenchmarkAblationL2(b *testing.B) {
	tr := quickTrace(b)
	lib := connect.Library()
	ahb, _ := connect.ByName(lib, "ahb32")
	off, _ := connect.ByName(lib, "off32")
	build := func(withL2 bool) (*mem.Architecture, *connect.Arch) {
		a := &mem.Architecture{
			Name:    "l2-ablation",
			Modules: []mem.Module{mem.MustCache(1024, 32, 2)},
			DRAM:    mem.DefaultDRAM(),
			Default: 0,
		}
		if withL2 {
			a.L2 = mem.MustCache(64<<10, 32, 4)
		}
		c := &connect.Arch{Channels: a.Channels()}
		for i, ch := range c.Channels {
			c.Clusters = append(c.Clusters, []int{i})
			if ch.OffChip {
				c.Assign = append(c.Assign, off)
			} else {
				c.Assign = append(c.Assign, ahb)
			}
		}
		return a, c
	}
	for i := 0; i < b.N; i++ {
		var lat [2]float64
		var offBytes [2]int64
		for j, withL2 := range []bool{false, true} {
			a, c := build(withL2)
			s, err := sim.New(a, c)
			if err != nil {
				b.Fatal(err)
			}
			r, err := s.Run(tr.Trace)
			if err != nil {
				b.Fatal(err)
			}
			lat[j] = r.AvgLatency()
			offBytes[j] = r.OffChipBytes
		}
		b.ReportMetric(lat[0]/lat[1], "latency-speedup-x")
		b.ReportMetric(float64(offBytes[0])/float64(offBytes[1]), "offchip-reduction-x")
	}
}

// BenchmarkEngineMemoization measures what the evaluation engine's
// memoization cache buys: the Figure 4 pipeline run twice on a shared
// engine, where the second pass revisits the design points of the first
// and is served from the cache. cache-hit-% and sims-per-eval quantify
// the reduction in simulation work versus requests issued.
func BenchmarkEngineMemoization(b *testing.B) {
	for i := 0; i < b.N; i++ {
		opt := freshQuick()
		for pass := 0; pass < 2; pass++ {
			if _, err := experiments.Figure4(context.Background(), opt); err != nil {
				b.Fatal(err)
			}
		}
		st := opt.ConEx.Engine.Stats()
		if st.CacheHits == 0 {
			b.Fatal("second pass produced no cache hits")
		}
		if st.Simulations >= st.Requests {
			b.Fatalf("memoization saved nothing: %d simulations for %d requests",
				st.Simulations, st.Requests)
		}
		b.ReportMetric(100*float64(st.CacheHits)/float64(st.Requests), "cache-hit-%")
		b.ReportMetric(float64(st.Simulations)/float64(st.Requests), "sims-per-eval")
	}
}

// BenchmarkMemOnly measures the APEX layer: the batched memory-only
// evaluation (sim.MemOnly) of the Quick preset's 24-architecture sweep
// on 60k-access slices of compress, li and vocoder (workers=N), and of
// apex.DefaultConfig's sweep on full-length compress (default/workers=N),
// whose 12 cache geometries fall into 7 set counts, so 1-way and 2-way
// caches share LRU stacks, at one worker and at one per CPU. ns/access
// divides the wall time by the accesses a per-architecture walk would
// simulate (architectures × trace length).
func BenchmarkMemOnly(b *testing.B) {
	type input struct {
		t     *trace.Trace
		archs []*mem.Architecture
	}
	sweep := func(t *trace.Trace, cfg apex.Config) input {
		res, err := apex.Explore(t, nil, cfg)
		if err != nil {
			b.Fatal(err)
		}
		in := input{t: t}
		for _, dp := range res.All {
			in.archs = append(in.archs, dp.Arch)
		}
		return in
	}
	var quick []input
	for _, w := range []workload.Workload{workload.Compress{}, workload.Li{}, workload.Vocoder{}} {
		quick = append(quick, sweep(w.Generate(workload.DefaultConfig()).Slice(0, 60_000), experiments.Quick().APEX))
	}
	def := []input{sweep(workload.Compress{}.Generate(workload.DefaultConfig()), apex.DefaultConfig())}
	counts := []int{1}
	if n := runtime.NumCPU(); n > 1 {
		counts = append(counts, n)
	}
	for _, set := range []struct {
		prefix string
		ins    []input
	}{{"", quick}, {"default/", def}} {
		var accesses int64
		for _, in := range set.ins {
			accesses += int64(len(in.archs)) * int64(in.t.NumAccesses())
		}
		for _, workers := range counts {
			b.Run(fmt.Sprintf("%sworkers=%d", set.prefix, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					for _, in := range set.ins {
						if _, err := sim.MemOnly(context.Background(), in.t, in.archs, workers); err != nil {
							b.Fatal(err)
						}
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*accesses), "ns/access")
			})
		}
	}
}

// BenchmarkProfileAnalyze measures the profile layer: profile.Analyze
// on 60k-access slices of compress, li and vocoder, and on the
// full-length compress and vocoder traces a daemon job profiles.
// ns/access divides the wall time by the trace length.
func BenchmarkProfileAnalyze(b *testing.B) {
	type input struct {
		name string
		t    *trace.Trace
	}
	var ins []input
	for _, w := range []workload.Workload{workload.Compress{}, workload.Li{}, workload.Vocoder{}} {
		t := w.Generate(workload.DefaultConfig())
		ins = append(ins, input{w.Name() + "/60k", t.Slice(0, 60_000)})
		if w.Name() != "li" {
			ins = append(ins, input{w.Name() + "/full", t})
		}
	}
	for _, in := range ins {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				profileSink = profile.Analyze(in.t)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*int64(in.t.NumAccesses())), "ns/access")
		})
	}
}

// profileSink keeps BenchmarkProfileAnalyze's result live.
var profileSink *profile.Profile

// BenchmarkSimulator measures raw simulator throughput (accesses/sec are
// visible as ns/op over the 60k-access trace).
func BenchmarkSimulator(b *testing.B) {
	tr := quickTrace(b)
	arch := &mem.Architecture{
		Name:    "cache8k",
		Modules: []mem.Module{mem.MustCache(8192, 32, 2)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
	lib := connect.Library()
	ahb, _ := connect.ByName(lib, "ahb32")
	off, _ := connect.ByName(lib, "off32")
	conn := &connect.Arch{
		Channels: arch.Channels(),
		Clusters: [][]int{{0}, {1}},
		Assign:   []connect.Component{ahb, off},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := sim.New(arch, conn)
		if err != nil {
			b.Fatal(err)
		}
		r, err := s.Run(tr.Trace)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r.Accesses), "accesses")
	}
}

// BenchmarkSimulatorReplay measures the connectivity-replay throughput
// of the two-phase simulator over the same design as BenchmarkSimulator:
// the behavior trace is captured once, each iteration re-times it
// against the connectivity architecture as a K=1 ReplayBatch (the
// per-candidate work of the exploration's inner loop).
func BenchmarkSimulatorReplay(b *testing.B) {
	tr := quickTrace(b)
	arch := &mem.Architecture{
		Name:    "cache8k",
		Modules: []mem.Module{mem.MustCache(8192, 32, 2)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
	lib := connect.Library()
	ahb, _ := connect.ByName(lib, "ahb32")
	off, _ := connect.ByName(lib, "off32")
	conn := &connect.Arch{
		Channels: arch.Channels(),
		Clusters: [][]int{{0}, {1}},
		Assign:   []connect.Component{ahb, off},
	}
	bt, err := sim.CaptureBehavior(tr.Trace, arch, nil)
	if err != nil {
		b.Fatal(err)
	}
	conns := []*connect.Arch{conn}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := sim.ReplayBatch(bt, conns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(r[0].Accesses), "accesses")
	}
}

// BenchmarkSimulatorReplaySampled measures the small batches of
// heuristic search: a K=2 ReplayBatch of a capture over the on-windows
// of the default 1:9 sampling plan of the 60k-access compress slice,
// on BenchmarkSimulatorReplayBatchContended's cache, stream buffer and
// DMA sharing one off-chip bus. ns/pair divides the wall time by the
// (architecture, event) pairs replayed.
func BenchmarkSimulatorReplaySampled(b *testing.B) {
	tr := quickTrace(b)
	arch := &mem.Architecture{
		Name: "contended",
		Modules: []mem.Module{
			mem.MustCache(8192, 32, 2),
			mem.MustStreamBuffer(32, 8),
			mem.MustSelfIndirectDMA(512, 16, 0.8),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{1: 1, 2: 2},
		Default: 0,
	}
	chans := arch.Channels()
	lib := connect.Library()
	var conns []*connect.Arch
	for _, pair := range [][2]string{{"ahb32", "off32"}, {"ded32", "off16"}} {
		link, _ := connect.ByName(lib, pair[0])
		bus, _ := connect.ByName(lib, pair[1])
		c := &connect.Arch{Channels: chans}
		var off []int
		for i, ch := range chans {
			if ch.OffChip {
				off = append(off, i)
				continue
			}
			c.Clusters = append(c.Clusters, []int{i})
			c.Assign = append(c.Assign, link)
		}
		c.Clusters = append(c.Clusters, off)
		c.Assign = append(c.Assign, bus)
		conns = append(conns, c)
	}
	bt, err := sim.CaptureBehavior(tr.Trace, arch, sampling.Plan(tr.NumAccesses(), sampling.DefaultConfig()))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.ReplayBatch(bt, conns)
		if err != nil {
			b.Fatal(err)
		}
		replaySink = res
	}
	pairs := int64(b.N) * int64(len(conns)) * int64(bt.NumEvents())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
}

// BenchmarkSimulatorReplayBatch measures batched replay throughput over
// the same behavior trace as BenchmarkSimulatorReplay: one ReplayBatch
// pass re-times a candidate per library component, so ns/op divided by
// "archs" is directly comparable to BenchmarkSimulatorReplay's ns/op.
func BenchmarkSimulatorReplayBatch(b *testing.B) {
	tr := quickTrace(b)
	arch := &mem.Architecture{
		Name:    "cache8k",
		Modules: []mem.Module{mem.MustCache(8192, 32, 2)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
	lib := connect.Library()
	var conns []*connect.Arch
	for _, comp := range lib {
		on, off := comp, comp
		if comp.OnChip {
			off, _ = connect.ByName(lib, "off32")
		} else {
			on, _ = connect.ByName(lib, "ahb32")
		}
		conns = append(conns, &connect.Arch{
			Channels: arch.Channels(),
			Clusters: [][]int{{0}, {1}},
			Assign:   []connect.Component{on, off},
		})
	}
	bt, err := sim.CaptureBehavior(tr.Trace, arch, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.ReplayBatch(bt, conns)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res)), "archs")
		b.ReportMetric(float64(res[0].Accesses), "accesses")
	}
}

// BenchmarkSimulatorReplayBatchContended measures batched replay on
// the scheduler path that dominates exhaustive exploration: a cache, a
// stream buffer and a self-indirect DMA whose backing channels share
// one off-chip bus, so prefetch traffic contends with demand misses.
// BenchmarkSimulatorReplayBatch's prefetch-free architecture never
// reaches a scheduler. Each candidate gives every CPU link its own
// on-chip component from the library and the shared bus an off-chip
// one. ns/pair divides the wall time by the (architecture, event)
// pairs replayed.
func BenchmarkSimulatorReplayBatchContended(b *testing.B) {
	tr := quickTrace(b)
	arch := &mem.Architecture{
		Name: "contended",
		Modules: []mem.Module{
			mem.MustCache(8192, 32, 2),
			mem.MustStreamBuffer(32, 8),
			mem.MustSelfIndirectDMA(512, 16, 0.8),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{1: 1, 2: 2},
		Default: 0,
	}
	chans := arch.Channels()
	var cpu, off []int
	for i, ch := range chans {
		if ch.OffChip {
			off = append(off, i)
		} else {
			cpu = append(cpu, i)
		}
	}
	lib := connect.Library()
	var conns []*connect.Arch
	for _, bus := range lib {
		if bus.OnChip {
			continue
		}
		for _, link := range lib {
			if !link.OnChip {
				continue
			}
			c := &connect.Arch{Channels: chans}
			for _, ch := range cpu {
				c.Clusters = append(c.Clusters, []int{ch})
				c.Assign = append(c.Assign, link)
			}
			c.Clusters = append(c.Clusters, off)
			c.Assign = append(c.Assign, bus)
			conns = append(conns, c)
		}
	}
	bt, err := sim.CaptureBehavior(tr.Trace, arch, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.ReplayBatch(bt, conns)
		if err != nil {
			b.Fatal(err)
		}
		replaySink = res
	}
	pairs := int64(b.N) * int64(len(conns)) * int64(bt.NumEvents())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(pairs), "ns/pair")
	b.ReportMetric(float64(len(conns)), "archs")
}

// replaySink keeps the replay benchmarks' results live.
var replaySink []*sim.Result

// BenchmarkSimulatorReplayBatchFullSpace measures batched replay on the
// work of exhaustive exploration: the memory architectures of the
// Quick preset's Table 2 sweep (2K and 32K caches, 2-way, 32-byte
// lines, at most one custom module) on the 60k-access compress and li
// slices, each captured over the whole slice, and each replaying its
// full core.Candidates set (at most 12 assignments per clustering
// level) as one batch. ns/pair divides the wall time by the
// (architecture, event) pairs replayed.
func BenchmarkSimulatorReplayBatchFullSpace(b *testing.B) {
	type group struct {
		bt    *sim.BehaviorTrace
		conns []*connect.Arch
	}
	var groups []group
	var archs, pairsPerOp int64
	cfg := core.Config{Library: connect.Library(), MaxAssignPerLevel: 12}
	for _, bench := range []string{"compress", "li"} {
		w, err := workload.ByName(bench)
		if err != nil {
			b.Fatal(err)
		}
		tr := w.Generate(workload.DefaultConfig()).Slice(0, 60_000)
		res, err := apex.Explore(tr, nil, apex.Config{
			CacheSizes:  []int{2 << 10, 32 << 10},
			CacheAssocs: []int{2},
			CacheLines:  []int{32},
			MaxCustom:   1,
			SRAMLimit:   80 << 10,
			MaxSelected: 2,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, arch := range explore.BuildSpace(res).AllMem {
			bt, err := sim.CaptureBehavior(tr, arch, nil)
			if err != nil {
				b.Fatal(err)
			}
			brg, err := core.BuildBRG(tr, arch)
			if err != nil {
				b.Fatal(err)
			}
			cands, _ := core.Candidates(brg, cfg)
			g := group{bt: bt}
			for _, c := range cands {
				g.conns = append(g.conns, c.Conn)
			}
			groups = append(groups, g)
			archs += int64(len(g.conns))
			pairsPerOp += int64(len(g.conns)) * int64(bt.NumEvents())
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range groups {
			res, err := sim.ReplayBatch(g.bt, g.conns)
			if err != nil {
				b.Fatal(err)
			}
			replaySink = res
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(int64(b.N)*pairsPerOp), "ns/pair")
	b.ReportMetric(float64(archs), "archs")
}

// BenchmarkCaptureBehavior measures Phase A: sim.CaptureBehavior of a
// cache, a stream buffer, a self-indirect DMA and a direct-DRAM data
// structure over the 60k-access compress slice, once over the whole
// slice (full) and once over the on-windows of the default 1:9
// sampling plan (sampled); and the same two captures of each of the 24
// architectures of the Quick preset's APEX sweep on that slice
// (quick-full, quick-sampled), the cache-dominated mix the exploration
// workloads capture. ns/event divides the wall time by the events
// recorded.
func BenchmarkCaptureBehavior(b *testing.B) {
	tr := quickTrace(b)
	arch := &mem.Architecture{
		Name: "capture",
		Modules: []mem.Module{
			mem.MustCache(8192, 32, 2),
			mem.MustStreamBuffer(32, 8),
			mem.MustSelfIndirectDMA(512, 16, 0.8),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{1: 1, 2: 2, 3: mem.DirectDRAM},
		Default: 0,
	}
	res, err := apex.Explore(tr.Trace, nil, experiments.Quick().APEX)
	if err != nil {
		b.Fatal(err)
	}
	var quick []*mem.Architecture
	for _, dp := range res.All {
		quick = append(quick, dp.Arch)
	}
	sampled := sampling.Plan(tr.NumAccesses(), sampling.DefaultConfig())
	plans := []struct {
		name    string
		archs   []*mem.Architecture
		windows []sim.Window
	}{
		{"full", []*mem.Architecture{arch}, nil},
		{"sampled", []*mem.Architecture{arch}, sampled},
		{"quick-full", quick, nil},
		{"quick-sampled", quick, sampled},
	}
	for _, p := range plans {
		b.Run(p.name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				for _, a := range p.archs {
					bt, err := sim.CaptureBehavior(tr.Trace, a, p.windows)
					if err != nil {
						b.Fatal(err)
					}
					events += int64(bt.NumEvents())
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
		})
	}
}

// BenchmarkBTCacheRoundTrip measures the trace cache's codec, the CPU
// half of btcache store and load: btcache.Encode then btcache.Decode
// (which validates the entry in full) of a full-length compress
// capture over BenchmarkCaptureBehavior's architecture. entry-MB is the
// size of the encoded entry.
func BenchmarkBTCacheRoundTrip(b *testing.B) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	arch := &mem.Architecture{
		Name: "capture",
		Modules: []mem.Module{
			mem.MustCache(8192, 32, 2),
			mem.MustStreamBuffer(32, 8),
			mem.MustSelfIndirectDMA(512, 16, 0.8),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{1: 1, 2: 2, 3: mem.DirectDRAM},
		Default: 0,
	}
	bt, err := sim.CaptureBehavior(tr, arch, nil)
	if err != nil {
		b.Fatal(err)
	}
	const fp = 1
	b.ReportAllocs()
	b.ResetTimer()
	var entry int
	for i := 0; i < b.N; i++ {
		data := btcache.Encode(bt, fp)
		if decodeSink, err = btcache.Decode(data, fp); err != nil {
			b.Fatal(err)
		}
		entry = len(data)
	}
	b.ReportMetric(float64(entry)/1e6, "entry-MB")
}

// decodeSink keeps BenchmarkBTCacheRoundTrip's decoded trace live.
var decodeSink *sim.BehaviorTrace

// BenchmarkInstrumentedExploration is BenchmarkFigure4 with the full
// observability stack attached — event ring, JSONL-equivalent fan-out
// and metrics registry — so a before/after pair quantifies the
// enabled-path overhead, and the registry's eval-latency histograms
// surface as extra benchmark units via ReportMetric.
func BenchmarkInstrumentedExploration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ring := obs.NewRing(1 << 16)
		reg := obs.NewRegistry()
		opt := experiments.Quick()
		opt.ConEx.Engine = engine.New(0,
			engine.WithObserver(obs.NewObserver(ring)),
			engine.WithMetrics(reg))
		if _, err := experiments.Figure4(context.Background(), opt); err != nil {
			b.Fatal(err)
		}
		snap := reg.Snapshot()
		h := snap.Histograms["engine/eval_wall_us/sampled"]
		b.ReportMetric(float64(ring.Total()), "events")
		b.ReportMetric(h.P50, "eval-p50-us")
		b.ReportMetric(h.P95, "eval-p95-us")
		b.ReportMetric(h.P99, "eval-p99-us")
		// Batched-replay shape of the run: how many ReplayBatch
		// dispatches served the exploration and their median size.
		bs := snap.Histograms["engine/batch/size"]
		b.ReportMetric(float64(snap.Counters["engine/batch/dispatches"]), "batches")
		b.ReportMetric(bs.P50, "batch-size-p50")
	}
}
