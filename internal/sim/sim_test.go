package sim

import (
	"context"
	"strings"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// buildConn assigns every on-chip channel to one named component and
// every off-chip channel to another, each in its own cluster.
func buildConn(t *testing.T, m *mem.Architecture, onChip, offChip string) *connect.Arch {
	t.Helper()
	lib := connect.Library()
	on, err := connect.ByName(lib, onChip)
	if err != nil {
		t.Fatal(err)
	}
	off, err := connect.ByName(lib, offChip)
	if err != nil {
		t.Fatal(err)
	}
	chans := m.Channels()
	a := &connect.Arch{Channels: chans}
	for i, ch := range chans {
		a.Clusters = append(a.Clusters, []int{i})
		if ch.OffChip {
			a.Assign = append(a.Assign, off)
		} else {
			a.Assign = append(a.Assign, on)
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("buildConn produced invalid arch: %v", err)
	}
	return a
}

func cacheArch(size int) *mem.Architecture {
	return &mem.Architecture{
		Name:    "cache-only",
		Modules: []mem.Module{mem.MustCache(size, 32, 2)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
}

func streamTrace(n int) *trace.Trace {
	return workload.Synthetic(workload.SynStream, n, 1<<20, 1)
}

func TestSimulatorBasicRun(t *testing.T) {
	m := cacheArch(8192)
	c := buildConn(t, m, "ded32", "off32")
	s, err := New(m, c)
	if err != nil {
		t.Fatal(err)
	}
	tr := streamTrace(10_000)
	r, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses != 10_000 {
		t.Fatalf("accesses = %d", r.Accesses)
	}
	if r.Hits+r.Misses != r.Accesses {
		t.Fatalf("hits+misses = %d, want %d", r.Hits+r.Misses, r.Accesses)
	}
	// A sequential sweep through a 32-byte-line cache misses 1/8 of the
	// time (4-byte loads).
	mr := r.MissRatio()
	if mr < 0.10 || mr > 0.15 {
		t.Fatalf("stream miss ratio = %.3f, want ~0.125", mr)
	}
	if r.AvgLatency() <= 1 {
		t.Fatalf("average latency %.2f implausibly low", r.AvgLatency())
	}
	if r.AvgEnergy() <= 0 {
		t.Fatal("no energy accounted")
	}
	if r.OffChipBytes == 0 {
		t.Fatal("no off-chip traffic recorded")
	}
}

func TestSimulatorChannelMismatch(t *testing.T) {
	m := cacheArch(8192)
	c := buildConn(t, m, "ded32", "off32")
	other := &mem.Architecture{
		Name:    "two-mod",
		Modules: []mem.Module{mem.MustCache(8192, 32, 2), mem.MustSRAM(1024)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
	if _, err := New(other, c); err == nil {
		t.Fatal("channel count mismatch accepted")
	}
}

func TestSimulatorRejectsInvalidArchitectures(t *testing.T) {
	m := cacheArch(8192)
	c := buildConn(t, m, "ded32", "off32")
	bad := &mem.Architecture{Name: "bad", Default: 3, DRAM: mem.DefaultDRAM()}
	if _, err := New(bad, c); err == nil {
		t.Fatal("invalid memory architecture accepted")
	}
	badConn := *c
	badConn.Clusters = [][]int{{0}}
	badConn.Assign = c.Assign[:1]
	if _, err := New(m, &badConn); err == nil {
		t.Fatal("invalid connectivity architecture accepted")
	}
}

func TestBiggerCacheLowerLatency(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 42})
	var lats []float64
	for _, size := range []int{512, 4096, 32768} {
		m := cacheArch(size)
		c := buildConn(t, m, "ded32", "off32")
		s, err := New(m, c)
		if err != nil {
			t.Fatal(err)
		}
		r, err := s.Run(tr)
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, r.AvgLatency())
	}
	if !(lats[0] > lats[1] && lats[1] > lats[2]) {
		t.Fatalf("bigger caches should lower latency on compress: %v", lats)
	}
}

func TestConnectivityMattersSlowBusSlower(t *testing.T) {
	tr := streamTrace(20_000)
	m := cacheArch(4096)
	fast, err := New(m, buildConn(t, m, "ded32", "off32"))
	if err != nil {
		t.Fatal(err)
	}
	slow, err := New(m, buildConn(t, m, "apb32", "off16"))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := fast.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := slow.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rs.AvgLatency() <= rf.AvgLatency() {
		t.Fatalf("APB+off16 (%.2f) should be slower than dedicated+off32 (%.2f)",
			rs.AvgLatency(), rf.AvgLatency())
	}
	// Miss behaviour is a property of the memory modules, not the bus.
	if rs.Misses != rf.Misses {
		t.Fatalf("miss counts diverged: %d vs %d", rs.Misses, rf.Misses)
	}
}

func TestSplitBusBeatsBlockingUnderMissTraffic(t *testing.T) {
	// Random accesses over a large footprint: high miss rate, so the
	// module<->DRAM bus is the bottleneck. AHB's split transactions and
	// the stream buffer's background prefetches should overlap better
	// than a blocking ASB... but with a single in-order CPU the gain is
	// modest; we only require it not to be slower.
	tr := workload.Synthetic(workload.SynStream, 30_000, 1<<22, 3)
	m := &mem.Architecture{
		Name:    "stream-arch",
		Modules: []mem.Module{mem.MustStreamBuffer(32, 8)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
	split, err := New(m, buildConn(t, m, "ahb32", "off32"))
	if err != nil {
		t.Fatal(err)
	}
	rSplit, err := split.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rSplit.AvgLatency() <= 0 {
		t.Fatal("no latency recorded")
	}
	// The stream buffer should convert almost all accesses into hits.
	if rSplit.MissRatio() > 0.01 {
		t.Fatalf("stream buffer miss ratio %.4f too high", rSplit.MissRatio())
	}
}

func TestDirectDRAMRouting(t *testing.T) {
	m := &mem.Architecture{
		Name:    "uncached",
		DRAM:    mem.DefaultDRAM(),
		Default: mem.DirectDRAM,
	}
	c := buildConn(t, m, "ded32", "off32")
	s, err := New(m, c)
	if err != nil {
		t.Fatal(err)
	}
	tr := streamTrace(5000)
	r, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Hits != 0 || r.Misses != 5000 {
		t.Fatalf("uncached accesses must all miss: %d hits %d misses", r.Hits, r.Misses)
	}
	// Every access pays at least arbitration + DRAM row hit.
	if r.AvgLatency() < 8 {
		t.Fatalf("uncached latency %.2f implausibly low", r.AvgLatency())
	}
}

func TestRunWindowBounds(t *testing.T) {
	m := cacheArch(4096)
	c := buildConn(t, m, "ded32", "off32")
	s, _ := New(m, c)
	tr := streamTrace(100)
	if _, err := s.RunWindow(tr, -1, 50); err == nil {
		t.Fatal("negative lo accepted")
	}
	if _, err := s.RunWindow(tr, 0, 101); err == nil {
		t.Fatal("hi beyond trace accepted")
	}
	if _, err := s.RunWindow(tr, 60, 50); err == nil {
		t.Fatal("inverted window accepted")
	}
}

func TestRunWindowAccumulates(t *testing.T) {
	m := cacheArch(4096)
	c := buildConn(t, m, "ded32", "off32")
	tr := streamTrace(10_000)

	whole, _ := New(m, c)
	rw, err := whole.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	parts, _ := New(m, c)
	if _, err := parts.RunWindow(tr, 0, 5000); err != nil {
		t.Fatal(err)
	}
	rp, err := parts.RunWindow(tr, 5000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if rp.Accesses != rw.Accesses || rp.Misses != rw.Misses {
		t.Fatalf("windowed run diverged: %+v vs %+v", rp, rw)
	}
	if rp.TotalLatency != rw.TotalLatency {
		t.Fatalf("windowed latency %d != whole-run latency %d", rp.TotalLatency, rw.TotalLatency)
	}
}

func TestSkipWindowKeepsModuleStateWarm(t *testing.T) {
	m := cacheArch(32768)
	c := buildConn(t, m, "ded32", "off32")
	tr := streamTrace(8192 / 4) // one pass over 8 KiB
	s, _ := New(m, c)
	s.SkipWindow(tr, 0, tr.NumAccesses())
	// Second pass over the same addresses should now hit.
	r, err := s.RunWindow(tr, 0, tr.NumAccesses())
	if err != nil {
		t.Fatal(err)
	}
	if r.Misses != 0 {
		t.Fatalf("warm cache should not miss, got %d misses", r.Misses)
	}
}

func TestResultAdd(t *testing.T) {
	a := &Result{Accesses: 10, TotalLatency: 50, EnergyNJ: 5, Hits: 8, Misses: 2,
		ChannelBytes: []int64{1, 2}}
	b := &Result{Accesses: 20, TotalLatency: 100, EnergyNJ: 10, Hits: 15, Misses: 5,
		ChannelBytes: []int64{3, 4}}
	a.Add(b)
	if a.Accesses != 30 || a.TotalLatency != 150 || a.Hits != 23 || a.Misses != 7 {
		t.Fatalf("Add wrong: %+v", a)
	}
	if a.ChannelBytes[0] != 4 || a.ChannelBytes[1] != 6 {
		t.Fatalf("channel bytes wrong: %v", a.ChannelBytes)
	}
	var zero Result
	zero.Add(b)
	if zero.ChannelBytes[1] != 4 {
		t.Fatal("Add into zero Result lost channel bytes")
	}
	if (&Result{}).AvgLatency() != 0 || (&Result{}).AvgEnergy() != 0 || (&Result{}).MissRatio() != 0 {
		t.Fatal("zero-result averages should be 0")
	}
}

func TestMemOnlyMatchesModuleBehaviour(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 42})
	m := cacheArch(8192)
	rs, err := MemOnly(context.Background(), tr, []*mem.Architecture{m}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r := rs[0]
	if r.Accesses != int64(tr.NumAccesses()) {
		t.Fatal("access count wrong")
	}
	if r.Hits+r.Misses != r.Accesses {
		t.Fatal("hit/miss accounting broken")
	}
	if r.MissRatio() <= 0 || r.MissRatio() >= 1 {
		t.Fatalf("miss ratio %.3f implausible", r.MissRatio())
	}
	// Full simulation with any connectivity must agree on miss counts
	// (module behaviour is timing-independent for caches).
	c := buildConn(t, m, "ahb32", "off32")
	s, _ := New(m, c)
	rf, _ := s.Run(tr)
	if rf.Misses != r.Misses {
		t.Fatalf("mem-only misses %d != full-sim misses %d", r.Misses, rf.Misses)
	}
}

func TestMemOnlySRAMMapping(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 42})
	// Find the htab data structure and map it to an SRAM.
	var htab trace.DSID
	for i, d := range tr.DS {
		if d.Name == "htab" {
			htab = trace.DSID(i)
		}
	}
	base := cacheArch(8192)
	mapped := &mem.Architecture{
		Name: "with-sram",
		Modules: []mem.Module{
			mem.MustCache(8192, 32, 2),
			mem.MustSRAM(int(tr.Info(htab).Size)),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{htab: 1},
		Default: 0,
	}
	rs, err := MemOnly(context.Background(), tr, []*mem.Architecture{base, mapped}, 1)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := rs[0], rs[1]
	if r1.Misses >= r0.Misses {
		t.Fatalf("mapping htab to SRAM should cut misses: %d -> %d", r0.Misses, r1.Misses)
	}
}

func TestMemOnlyValidates(t *testing.T) {
	tr := streamTrace(10)
	bad := &mem.Architecture{Name: "bad", Default: 5, DRAM: mem.DefaultDRAM()}
	if _, err := MemOnly(context.Background(), tr, []*mem.Architecture{bad}, 1); err == nil {
		t.Fatal("invalid architecture accepted")
	}
}

func TestSimulatorDoesNotMutateCallerModules(t *testing.T) {
	m := cacheArch(4096)
	c := buildConn(t, m, "ded32", "off32")
	s, _ := New(m, c)
	if _, err := s.Run(streamTrace(1000)); err != nil {
		t.Fatal(err)
	}
	if m.Modules[0].(*mem.Cache).Misses != 0 {
		t.Fatal("simulator mutated the caller's architecture")
	}
}

func TestDescribeRoundTrip(t *testing.T) {
	m := cacheArch(4096)
	c := buildConn(t, m, "ahb32", "off32")
	d := c.Describe(m)
	if !strings.Contains(d, "cpu<->cache4k-2w-32b") {
		t.Fatalf("describe missing channel label: %q", d)
	}
}

func TestContentionStats(t *testing.T) {
	// One shared bus for every CPU link: a multi-module architecture
	// must record arbitration waits on the shared cluster.
	m := &mem.Architecture{
		Name: "shared",
		Modules: []mem.Module{
			mem.MustCache(1024, 32, 1),
			mem.MustStreamBuffer(32, 8),
		},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{1: 1},
		Default: 0,
	}
	lib := connect.Library()
	apb, _ := connect.ByName(lib, "apb32")
	off, _ := connect.ByName(lib, "off16")
	chans := m.Channels()
	var on, offc []int
	for i, ch := range chans {
		if ch.OffChip {
			offc = append(offc, i)
		} else {
			on = append(on, i)
		}
	}
	c := &connect.Arch{Channels: chans, Clusters: [][]int{on, offc},
		Assign: []connect.Component{apb, off}}
	s, err := New(m, c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(workload.Synthetic(workload.SynStream, 20_000, 1<<22, 5))
	if err != nil {
		t.Fatal(err)
	}
	var transfers, waits int64
	for i := range r.ChannelTransfers {
		transfers += r.ChannelTransfers[i]
		waits += r.ChannelWait[i]
	}
	if transfers < r.Accesses {
		t.Fatalf("every access needs at least one transfer: %d < %d", transfers, r.Accesses)
	}
	// Stream prefetches share the off-chip bus with demand misses, so
	// some arbitration wait must have been observed.
	if waits == 0 {
		t.Fatal("no contention recorded on a shared-bus architecture")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	m := cacheArch(8192)
	c := buildConn(t, m, "ded32", "off32")
	s, _ := New(m, c)
	r, err := s.Run(streamTrace(20_000))
	if err != nil {
		t.Fatal(err)
	}
	p50 := r.LatencyPercentile(50)
	p99 := r.LatencyPercentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("percentiles inconsistent: p50=%d p99=%d", p50, p99)
	}
	// A stream through a cache: most accesses are cheap hits, the 99th
	// percentile includes miss latency.
	if p50 > 8 {
		t.Fatalf("p50=%d implausibly high for cache hits", p50)
	}
	if p99 < 8 {
		t.Fatalf("p99=%d should include miss latency", p99)
	}
	var total int64
	for _, c := range r.LatencyHist {
		total += c
	}
	if total != r.Accesses {
		t.Fatalf("histogram holds %d samples, want %d", total, r.Accesses)
	}
	if (&Result{}).LatencyPercentile(99) != 0 {
		t.Fatal("empty result percentile should be 0")
	}
}
