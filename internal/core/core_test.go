package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/engine"
	"memorex/internal/mem"
	"memorex/internal/pareto"
	"memorex/internal/sampling"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

func testArch() *mem.Architecture {
	return &mem.Architecture{
		Name: "cache+stream",
		Modules: []mem.Module{
			mem.MustCache(4096, 32, 2),
			mem.MustStreamBuffer(32, 4),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{1: 1},
		Default: 0,
	}
}

func smallTrace() *trace.Trace {
	return workload.Synthetic(workload.SynStream, 30_000, 1<<18, 7)
}

func fastConfig() Config {
	cfg := DefaultConfig()
	cfg.Sampling = sampling.Config{OnWindow: 500, OffRatio: 9}
	cfg.MaxAssignPerLevel = 24
	cfg.KeepPerArch = 4
	return cfg
}

func TestBuildBRG(t *testing.T) {
	tr := smallTrace()
	arch := testArch()
	brg, err := BuildBRG(tr, arch)
	if err != nil {
		t.Fatal(err)
	}
	if len(brg.Channels) != len(arch.Channels()) {
		t.Fatal("BRG channel count mismatch")
	}
	// The stream structure is routed to the stream buffer, so the
	// CPU<->stream channel must carry all the demand traffic.
	var cpuStream, cpuCache float64
	for i, ch := range brg.Channels {
		if ch.Kind == mem.ChanCPUModule {
			if arch.Modules[ch.Module].Kind() == mem.KindStream {
				cpuStream = brg.Bandwidth(i)
			} else {
				cpuCache = brg.Bandwidth(i)
			}
		}
	}
	if cpuStream <= cpuCache {
		t.Fatalf("stream channel bandwidth %.3f should dominate cache channel %.3f", cpuStream, cpuCache)
	}
	if !strings.Contains(brg.String(), "B/acc") {
		t.Fatal("BRG String missing bandwidth labels")
	}
}

func TestBRGZeroAccesses(t *testing.T) {
	b := &BRG{Accesses: 0, Bytes: []int64{10}}
	if b.Bandwidth(0) != 0 {
		t.Fatal("bandwidth of empty trace should be 0")
	}
}

func TestClusteringLevels(t *testing.T) {
	tr := smallTrace()
	brg, err := BuildBRG(tr, testArch())
	if err != nil {
		t.Fatal(err)
	}
	levels := Levels(brg)
	if len(levels) < 2 {
		t.Fatalf("expected multiple clustering levels, got %d", len(levels))
	}
	// First level: one cluster per channel.
	if len(levels[0]) != len(brg.Channels) {
		t.Fatal("initial clustering is not one-per-channel")
	}
	// Each level merges exactly one pair: cluster count decreases by 1.
	for i := 1; i < len(levels); i++ {
		if len(levels[i]) != len(levels[i-1])-1 {
			t.Fatalf("level %d has %d clusters, want %d", i, len(levels[i]), len(levels[i-1])-1)
		}
	}
	// Bandwidth is conserved across levels, every channel stays covered,
	// and clusters never mix chip sides.
	total := 0.0
	for i := range brg.Channels {
		total += brg.Bandwidth(i)
	}
	for li, level := range levels {
		var sum float64
		seen := map[int]bool{}
		for _, cl := range level {
			sum += brg.ClusterBandwidth(cl)
			off := brg.Channels[cl[0]].OffChip
			for _, ch := range cl {
				if seen[ch] {
					t.Fatalf("level %d: channel %d in two clusters", li, ch)
				}
				seen[ch] = true
				if brg.Channels[ch].OffChip != off {
					t.Fatalf("level %d: cluster mixes chip sides", li)
				}
			}
		}
		if len(seen) != len(brg.Channels) {
			t.Fatalf("level %d: only %d channels covered", li, len(seen))
		}
		if diff := sum - total; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("level %d: bandwidth not conserved (%.6f vs %.6f)", li, sum, total)
		}
	}
	// Final level: one on-chip and one off-chip cluster.
	last := levels[len(levels)-1]
	if len(last) != 2 {
		t.Fatalf("final level has %d clusters, want 2", len(last))
	}
}

func TestMergeLowestPicksSmallest(t *testing.T) {
	// Synthetic BRG: three on-chip channels with bandwidths 1, 5, 10.
	b := &BRG{
		Arch:     &mem.Architecture{},
		Channels: []mem.Channel{{Kind: mem.ChanCPUModule}, {Kind: mem.ChanCPUModule}, {Kind: mem.ChanCPUModule}},
		Bytes:    []int64{10, 1, 5},
		Accesses: 1,
	}
	c, ok := MergeLowest(b, InitialClustering(b))
	if !ok {
		t.Fatal("merge should succeed")
	}
	// The merged cluster must contain channels 1 and 2 (bw 1 and 5).
	var merged []int
	for _, cl := range c {
		if len(cl) == 2 {
			merged = cl
		}
	}
	if len(merged) != 2 || merged[0] != 1 || merged[1] != 2 {
		t.Fatalf("merged wrong pair: %v", c)
	}
}

func TestMergeLowestStopsAtSingletons(t *testing.T) {
	b := &BRG{
		Arch:     &mem.Architecture{},
		Channels: []mem.Channel{{Kind: mem.ChanCPUModule}, {Kind: mem.ChanCPUDRAM, OffChip: true}},
		Bytes:    []int64{4, 4},
		Accesses: 1,
	}
	_, ok := MergeLowest(b, InitialClustering(b))
	if ok {
		t.Fatal("cannot merge across the chip boundary")
	}
}

func TestEnumerateAssignmentsFeasibility(t *testing.T) {
	tr := smallTrace()
	brg, err := BuildBRG(tr, testArch())
	if err != nil {
		t.Fatal(err)
	}
	lib := connect.Library()
	archs, dropped := EnumerateAssignments(brg, InitialClustering(brg), lib, 0)
	if len(archs) == 0 {
		t.Fatal("no assignments enumerated")
	}
	if dropped != 0 {
		t.Fatalf("uncapped enumeration dropped %d", dropped)
	}
	for _, a := range archs {
		if err := a.Validate(); err != nil {
			t.Fatalf("enumerated invalid architecture: %v", err)
		}
	}
	// Capping keeps the count bounded and still valid.
	capped, droppedCapped := EnumerateAssignments(brg, InitialClustering(brg), lib, 10)
	if len(capped) > 10 {
		t.Fatalf("cap not respected: %d", len(capped))
	}
	if droppedCapped != int64(len(archs)-len(capped)) {
		t.Fatalf("dropped count wrong: %d", droppedCapped)
	}
}

func TestEnumerateAssignmentsInfeasibleCluster(t *testing.T) {
	// A cluster needing more ports than any component offers.
	b := &BRG{
		Arch:     &mem.Architecture{},
		Channels: make([]mem.Channel, 20),
		Bytes:    make([]int64, 20),
		Accesses: 1,
	}
	cl := make([]int, 20)
	for i := range cl {
		cl[i] = i
	}
	archs, _ := EnumerateAssignments(b, Clustering{cl}, connect.Library(), 0)
	if archs != nil {
		t.Fatal("infeasible cluster should produce no assignments")
	}
}

func TestConnectivityExploration(t *testing.T) {
	tr := smallTrace()
	points, work, _, err := ConnectivityExploration(context.Background(), tr, testArch(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 10 {
		t.Fatalf("too few design points: %d", len(points))
	}
	if work == 0 {
		t.Fatal("no estimation work recorded")
	}
	for _, p := range points {
		if !p.Estimated {
			t.Fatal("phase I points must be marked estimated")
		}
		if p.Cost <= 0 || p.Latency <= 0 || p.Energy <= 0 {
			t.Fatalf("degenerate metrics: %+v", p)
		}
		if p.Cost <= p.MemArch.Gates() {
			t.Fatal("cost must include connectivity gates")
		}
	}
	// Different connectivity choices must actually spread the metrics.
	minLat, maxLat := points[0].Latency, points[0].Latency
	for _, p := range points {
		if p.Latency < minLat {
			minLat = p.Latency
		}
		if p.Latency > maxLat {
			maxLat = p.Latency
		}
	}
	if maxLat < minLat*1.2 {
		t.Fatalf("connectivity choice barely matters: %.3f..%.3f", minLat, maxLat)
	}
}

func TestSelectLocal(t *testing.T) {
	points := []DesignPoint{
		{Cost: 100, Latency: 10, Energy: 5},
		{Cost: 200, Latency: 5, Energy: 6},
		{Cost: 300, Latency: 4.9, Energy: 20},
		{Cost: 150, Latency: 20, Energy: 1},
		{Cost: 500, Latency: 30, Energy: 30}, // dominated everywhere
	}
	sel := SelectLocal(points, 10)
	for _, p := range sel {
		if p.Cost == 500 {
			t.Fatal("dominated point selected")
		}
	}
	if len(sel) < 3 {
		t.Fatalf("selection too aggressive: %d", len(sel))
	}
	// Thinning respects the cap.
	if got := SelectLocal(points, 2); len(got) > 2 {
		t.Fatalf("cap not respected: %d", len(got))
	}
	if SelectLocal(nil, 3) != nil {
		t.Fatal("empty selection should be nil")
	}
}

func TestExploreEndToEnd(t *testing.T) {
	tr := smallTrace()
	archs := []*mem.Architecture{
		testArch(),
		{
			Name:    "cache-only",
			Modules: []mem.Module{mem.MustCache(8192, 32, 2)},
			DRAM:    mem.DefaultDRAM(),
			Default: 0,
		},
	}
	res, err := Explore(context.Background(), tr, archs, fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerArch) != 2 {
		t.Fatal("per-arch results missing")
	}
	if len(res.Combined) == 0 || len(res.CostPerfFront) == 0 {
		t.Fatal("no combined/front results")
	}
	for _, p := range res.Combined {
		if p.Estimated {
			t.Fatal("phase II points must be fully simulated")
		}
	}
	// The front must be sorted by cost and strictly improving.
	for i := 1; i < len(res.CostPerfFront); i++ {
		if res.CostPerfFront[i].Cost <= res.CostPerfFront[i-1].Cost ||
			res.CostPerfFront[i].Latency >= res.CostPerfFront[i-1].Latency {
			t.Fatal("cost/perf front malformed")
		}
	}
	if res.EstimatedAccesses == 0 || res.SimulatedAccesses == 0 {
		t.Fatal("work counters not recorded")
	}
	// Sampling must have made phase I much cheaper per point than
	// phase II.
	perEst := float64(res.EstimatedAccesses) / float64(len(res.PerArch[0])+len(res.PerArch[1]))
	perSim := float64(res.SimulatedAccesses) / float64(len(res.Combined))
	if perEst >= perSim {
		t.Fatalf("estimation (%.0f acc/pt) should be cheaper than simulation (%.0f acc/pt)", perEst, perSim)
	}
}

// The engine returns batch results in submission order, so the whole
// exploration — including its pareto fronts — must be identical whether
// it runs on one worker or eight.
func TestParallelSerialEquivalence(t *testing.T) {
	tr := smallTrace()
	archs := func() []*mem.Architecture {
		return []*mem.Architecture{
			testArch(),
			{
				Name:    "cache-only",
				Modules: []mem.Module{mem.MustCache(8192, 32, 2)},
				DRAM:    mem.DefaultDRAM(),
				Default: 0,
			},
		}
	}
	run := func(workers int) *Result {
		cfg := fastConfig()
		cfg.Engine = engine.New(workers)
		res, err := Explore(context.Background(), tr, archs(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	serial, parallel := run(1), run(8)
	if len(serial.Combined) != len(parallel.Combined) {
		t.Fatalf("combined sizes differ: %d vs %d", len(serial.Combined), len(parallel.Combined))
	}
	for i := range serial.Combined {
		s, p := serial.Combined[i], parallel.Combined[i]
		if s.Cost != p.Cost || s.Latency != p.Latency || s.Energy != p.Energy {
			t.Fatalf("combined[%d] differs between 1 and 8 workers: %+v vs %+v", i, s, p)
		}
	}
	if len(serial.CostPerfFront) != len(parallel.CostPerfFront) {
		t.Fatalf("front sizes differ: %d vs %d", len(serial.CostPerfFront), len(parallel.CostPerfFront))
	}
	for i := range serial.CostPerfFront {
		s, p := serial.CostPerfFront[i], parallel.CostPerfFront[i]
		if s.Cost != p.Cost || s.Latency != p.Latency || s.Energy != p.Energy ||
			s.Label() != p.Label() {
			t.Fatalf("front[%d] differs between 1 and 8 workers:\n  %s\n  %s", i, s.Label(), p.Label())
		}
	}
}

// TestExploreBRGsMatchesPerArchComposition: estimating every
// architecture's candidates in one engine batch gives what the
// per-architecture composition gives — ConnectivityExploration and
// SelectLocal for each architecture on its own, then one Full batch of
// the survivors — at one worker and at two.
func TestExploreBRGsMatchesPerArchComposition(t *testing.T) {
	ctx := context.Background()
	tr := smallTrace()
	archs := []*mem.Architecture{
		testArch(),
		{
			Name:    "cache-only",
			Modules: []mem.Module{mem.MustCache(8192, 32, 2)},
			DRAM:    mem.DefaultDRAM(),
			Default: 0,
		},
	}
	sameDesigns := func(what string, got, want []DesignPoint) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d designs, want %d", what, len(got), len(want))
		}
		for i := range got {
			g, w := &got[i], &want[i]
			if g.Label() != w.Label() || g.Cost != w.Cost || g.Latency != w.Latency ||
				g.Energy != w.Energy || g.Estimated != w.Estimated {
				t.Fatalf("%s[%d] = %s %v/%v/%v, want %s %v/%v/%v", what, i,
					g.Label(), g.Cost, g.Latency, g.Energy, w.Label(), w.Cost, w.Latency, w.Energy)
			}
		}
	}
	for _, workers := range []int{1, 2} {
		cfg := fastConfig()
		cfg.Engine = engine.New(workers)
		var brgs []*BRG
		for _, a := range archs {
			brg, err := BuildBRG(tr, a)
			if err != nil {
				t.Fatal(err)
			}
			brgs = append(brgs, brg)
		}
		got, err := ExploreBRGs(ctx, tr, brgs, cfg)
		if err != nil {
			t.Fatal(err)
		}

		want := &Result{}
		per := cfg
		per.Engine = engine.New(workers)
		var phase2 []DesignPoint
		for _, a := range archs {
			points, work, dropped, err := ConnectivityExploration(ctx, tr, a, per)
			if err != nil {
				t.Fatal(err)
			}
			want.PerArch = append(want.PerArch, points)
			want.EstimatedAccesses += work
			want.DroppedAssignments += dropped
			phase2 = append(phase2, SelectLocal(points, cfg.KeepPerArch)...)
		}
		if _, err := Evaluate(ctx, per.Engine, tr, phase2, engine.Full, cfg.Sampling, ""); err != nil {
			t.Fatal(err)
		}
		want.Combined = phase2
		for _, p := range pareto.Front(want.Points(), pareto.Cost, pareto.Latency) {
			want.CostPerfFront = append(want.CostPerfFront, *p.Meta.(*DesignPoint))
		}

		if want.DroppedAssignments == 0 {
			t.Fatal("the enumeration cap dropped nothing; the test would not check DroppedAssignments")
		}
		if got.EstimatedAccesses != want.EstimatedAccesses || got.DroppedAssignments != want.DroppedAssignments {
			t.Fatalf("workers=%d: EstimatedAccesses %d, DroppedAssignments %d; want %d, %d", workers,
				got.EstimatedAccesses, got.DroppedAssignments, want.EstimatedAccesses, want.DroppedAssignments)
		}
		if len(got.PerArch) != len(want.PerArch) {
			t.Fatalf("workers=%d: %d PerArch clouds, want %d", workers, len(got.PerArch), len(want.PerArch))
		}
		for i := range want.PerArch {
			sameDesigns("PerArch", got.PerArch[i], want.PerArch[i])
		}
		sameDesigns("Combined", got.Combined, want.Combined)
		sameDesigns("CostPerfFront", got.CostPerfFront, want.CostPerfFront)
	}
}

func TestExploreValidation(t *testing.T) {
	tr := smallTrace()
	if _, err := Explore(context.Background(), tr, nil, fastConfig()); err == nil {
		t.Fatal("empty architecture list accepted")
	}
	bad := fastConfig()
	bad.Library = nil
	if _, err := Explore(context.Background(), tr, []*mem.Architecture{testArch()}, bad); err == nil {
		t.Fatal("empty library accepted")
	}
	bad = fastConfig()
	bad.KeepPerArch = 0
	if _, err := Explore(context.Background(), tr, []*mem.Architecture{testArch()}, bad); err == nil {
		t.Fatal("zero KeepPerArch accepted")
	}
}

func TestDesignPointLabel(t *testing.T) {
	tr := smallTrace()
	points, _, _, err := ConnectivityExploration(context.Background(), tr, testArch(), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	l := points[0].Label()
	if !strings.Contains(l, "cache+stream") || !strings.Contains(l, "[") {
		t.Fatalf("label malformed: %q", l)
	}
}

func TestLevelsDeterministic(t *testing.T) {
	tr := smallTrace()
	brg, err := BuildBRG(tr, testArch())
	if err != nil {
		t.Fatal(err)
	}
	l1, l2 := Levels(brg), Levels(brg)
	if len(l1) != len(l2) {
		t.Fatal("level counts differ between runs")
	}
	for i := range l1 {
		if len(l1[i]) != len(l2[i]) {
			t.Fatalf("level %d cluster counts differ", i)
		}
		for j := range l1[i] {
			if len(l1[i][j]) != len(l2[i][j]) {
				t.Fatalf("level %d cluster %d sizes differ", i, j)
			}
			for k := range l1[i][j] {
				if l1[i][j][k] != l2[i][j][k] {
					t.Fatalf("level %d cluster %d differs", i, j)
				}
			}
		}
	}
}

func TestEnumerateAssignmentsStrideDiversity(t *testing.T) {
	// Capped enumeration must still produce distinct assignments and
	// use more than one component per cluster when the cap allows.
	tr := smallTrace()
	brg, err := BuildBRG(tr, testArch())
	if err != nil {
		t.Fatal(err)
	}
	archs, _ := EnumerateAssignments(brg, InitialClustering(brg), connect.Library(), 16)
	if len(archs) == 0 {
		t.Fatal("no assignments")
	}
	sigs := map[string]bool{}
	compNames := map[string]bool{}
	for _, a := range archs {
		sig := ""
		for _, c := range a.Assign {
			sig += c.Name + "|"
			compNames[c.Name] = true
		}
		if sigs[sig] {
			t.Fatalf("duplicate assignment %q under stride sampling", sig)
		}
		sigs[sig] = true
	}
	if len(compNames) < 3 {
		t.Fatalf("stride sampling lost diversity: only %v", compNames)
	}
}

func TestFullSimulateMatchesEstimateRanking(t *testing.T) {
	// For two designs whose estimated latencies differ widely, full
	// simulation must preserve the order.
	tr := smallTrace()
	arch := testArch()
	cfg := fastConfig()
	points, _, _, err := ConnectivityExploration(context.Background(), tr, arch, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Pick the fastest and slowest estimated designs.
	best, worst := &points[0], &points[0]
	for i := range points {
		if points[i].Latency < best.Latency {
			best = &points[i]
		}
		if points[i].Latency > worst.Latency {
			worst = &points[i]
		}
	}
	if worst.Latency < best.Latency*1.5 {
		t.Skip("designs too close to test ranking")
	}
	fb, _, err := FullSimulate(tr, arch, best.Conn)
	if err != nil {
		t.Fatal(err)
	}
	fw, _, err := FullSimulate(tr, arch, worst.Conn)
	if err != nil {
		t.Fatal(err)
	}
	if fb.Latency >= fw.Latency {
		t.Fatalf("full simulation inverted the estimated ranking: %.2f vs %.2f",
			fb.Latency, fw.Latency)
	}
}

func TestSelectLocalKeepOne(t *testing.T) {
	points := []DesignPoint{
		{Cost: 100, Latency: 10, Energy: 5},
		{Cost: 200, Latency: 5, Energy: 6},
		{Cost: 300, Latency: 3, Energy: 9},
	}
	got := SelectLocal(points, 1)
	if len(got) != 1 {
		t.Fatalf("keep=1 returned %d designs", len(got))
	}
}

// TestOnePhaseReferenceAgreement pins the production evaluation path
// (one behavior capture per memory architecture, re-timed through
// sim.ReplayBatch) against the one-phase reference simulators at the
// exploration level: every Phase II design must equal FullSimulate bit
// for bit, and every Phase I estimate must lie within the sampling
// fidelity tolerance of sampling.Estimate.
func TestOnePhaseReferenceAgreement(t *testing.T) {
	tr := smallTrace()
	archs := []*mem.Architecture{
		testArch(),
		{
			Name:    "cache-only",
			Modules: []mem.Module{mem.MustCache(8192, 32, 2)},
			DRAM:    mem.DefaultDRAM(),
			Default: 0,
		},
	}
	cfg := fastConfig()
	res, err := Explore(context.Background(), tr, archs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Combined) == 0 {
		t.Fatal("no fully simulated designs")
	}
	for _, d := range res.Combined {
		ref, _, err := FullSimulate(tr, d.MemArch, d.Conn)
		if err != nil {
			t.Fatal(err)
		}
		if d.Cost != ref.Cost || d.Latency != ref.Latency || d.Energy != ref.Energy || d.Estimated {
			t.Errorf("%s: (%v, %v, %v, estimated=%v), one-phase reference (%v, %v, %v)",
				d.Label(), d.Cost, d.Latency, d.Energy, d.Estimated, ref.Cost, ref.Latency, ref.Energy)
		}
	}
	const tol = 0.02
	for _, points := range res.PerArch {
		for _, d := range points {
			ref, _, err := sampling.Estimate(tr, d.MemArch, d.Conn, cfg.Sampling)
			if err != nil {
				t.Fatal(err)
			}
			if !d.Estimated || d.Cost != d.MemArch.Gates()+d.Conn.Gates() {
				t.Errorf("%s: estimated=%v cost %v", d.Label(), d.Estimated, d.Cost)
			}
			if rel := math.Abs(d.Latency-ref.AvgLatency()) / ref.AvgLatency(); rel > tol {
				t.Errorf("%s: latency %.4f vs reference estimate %.4f", d.Label(), d.Latency, ref.AvgLatency())
			}
			if rel := math.Abs(d.Energy-ref.AvgEnergy()) / ref.AvgEnergy(); rel > tol {
				t.Errorf("%s: energy %.4f vs reference estimate %.4f", d.Label(), d.Energy, ref.AvgEnergy())
			}
		}
	}
}
