package sim

import (
	"math"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// richArch exercises every replay-relevant module kind at once: a cache
// default route, a stream buffer, a self-indirect DMA, a direct-DRAM
// data structure, and optionally a shared L2.
func richArch(withL2 bool) *mem.Architecture {
	a := &mem.Architecture{
		Name: "rich",
		Modules: []mem.Module{
			mem.MustCache(4096, 32, 2),
			mem.MustStreamBuffer(32, 8),
			mem.MustSelfIndirectDMA(512, 16, 0.8),
		},
		DRAM: mem.DefaultDRAM(),
		Route: map[trace.DSID]int{
			1: 1,
			2: 2,
			3: mem.DirectDRAM,
		},
		Default: 0,
	}
	if withL2 {
		a.L2 = mem.MustCache(32768, 32, 4)
	}
	return a
}

// relErr returns |got-want| / |want| (0 when both are 0).
func relErr(got, want float64) float64 {
	if want == 0 {
		if got == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(got-want) / math.Abs(want)
}

// runExact is the one-phase reference result.
func runExact(t *testing.T, m *mem.Architecture, c *connect.Arch, tr *trace.Trace) *Result {
	t.Helper()
	s, err := New(m, c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// replayOne re-times a behavior trace against one connectivity
// architecture: a K=1 ReplayBatch, the per-candidate production path.
func replayOne(t *testing.T, bt *BehaviorTrace, c *connect.Arch) *Result {
	t.Helper()
	res, err := ReplayBatch(bt, []*connect.Arch{c})
	if err != nil {
		t.Fatal(err)
	}
	return res[0]
}

// TestReplayFidelityLibrary is the acceptance fidelity gate: for every
// component of the connectivity library, on all three paper workloads,
// a full-trace capture + replay must match the exact simulator within
// 2% on average latency and energy. (The replay recomputes prefetch
// stalls exactly, so the match is in fact much tighter; the assertions
// additionally pin the timing-independent counters to exact equality.)
func TestReplayFidelityLibrary(t *testing.T) {
	const tol = 0.02
	workloads := []workload.Workload{workload.Compress{}, workload.Li{}, workload.Vocoder{}}
	for _, withL2 := range []bool{false, true} {
		m := richArch(withL2)
		for _, w := range workloads {
			tr := w.Generate(workload.DefaultConfig()).Slice(0, 40_000)
			bt, err := CaptureBehavior(tr, m, nil)
			if err != nil {
				t.Fatal(err)
			}
			for _, comp := range connect.Library() {
				on, off := comp.Name, "off32"
				if !comp.OnChip {
					on, off = "ahb32", comp.Name
				}
				c := buildConnT(t, m, on, off)
				exact := runExact(t, m, c, tr)
				got := replayOne(t, bt, c)
				name := tr.Name + "/" + comp.Name
				if withL2 {
					name += "/l2"
				}
				if e := relErr(got.AvgLatency(), exact.AvgLatency()); e > tol {
					t.Errorf("%s: avg latency %.4f vs exact %.4f (err %.2f%%)",
						name, got.AvgLatency(), exact.AvgLatency(), 100*e)
				}
				if e := relErr(got.AvgEnergy(), exact.AvgEnergy()); e > tol {
					t.Errorf("%s: avg energy %.4f vs exact %.4f (err %.2f%%)",
						name, got.AvgEnergy(), exact.AvgEnergy(), 100*e)
				}
				// Behavior counters are timing-independent: exact match.
				if got.Hits != exact.Hits || got.Misses != exact.Misses ||
					got.OffChipBytes != exact.OffChipBytes || got.Accesses != exact.Accesses {
					t.Errorf("%s: behavior counters diverged: %d/%d hits, %d/%d misses, %d/%d off-chip bytes",
						name, got.Hits, exact.Hits, got.Misses, exact.Misses,
						got.OffChipBytes, exact.OffChipBytes)
				}
			}
		}
	}
}

// buildConnT is buildConn for tests needing custom on/off components.
func buildConnT(t *testing.T, m *mem.Architecture, onChip, offChip string) *connect.Arch {
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
		t.Fatalf("buildConnT produced invalid arch: %v", err)
	}
	return a
}

// TestReplayExactOnFullTrace: a full-trace replay of a prefetch-free
// architecture is bit-exact — not just within tolerance.
func TestReplayExactOnFullTrace(t *testing.T) {
	m := cacheArch(4096)
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 30_000)
	bt, err := CaptureBehavior(tr, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, on := range []string{"ded32", "apb32", "ahb32"} {
		c := buildConnT(t, m, on, "off32")
		exact := runExact(t, m, c, tr)
		got := replayOne(t, bt, c)
		if got.TotalLatency != exact.TotalLatency || got.EnergyNJ != exact.EnergyNJ ||
			got.Cycles != exact.Cycles || got.LatencyHist != exact.LatencyHist {
			t.Fatalf("%s: full-trace replay not exact: latency %d vs %d, cycles %d vs %d",
				on, got.TotalLatency, exact.TotalLatency, got.Cycles, exact.Cycles)
		}
	}
}

// TestReplaySampledWindows: a windowed capture replayed must track the
// one-phase sampling estimator within the fidelity tolerance (the gap
// resync is the one approximation of the two-phase path).
func TestReplaySampledWindows(t *testing.T) {
	const tol = 0.02
	m := richArch(false)
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 50_000)
	var windows []Window
	const on, period = 2000, 20000
	for lo := 0; lo < tr.NumAccesses(); lo += period {
		hi := lo + on
		if hi > tr.NumAccesses() {
			hi = tr.NumAccesses()
		}
		windows = append(windows, Window{Lo: lo, Hi: hi})
	}
	bt, err := CaptureBehavior(tr, m, windows)
	if err != nil {
		t.Fatal(err)
	}
	for _, comp := range []string{"ded32", "ahb32", "apb32"} {
		c := buildConnT(t, m, comp, "off32")
		// One-phase sampled reference: same windows through RunWindow/SkipWindow.
		s, err := New(m, c)
		if err != nil {
			t.Fatal(err)
		}
		pos := 0
		var exact *Result
		for _, w := range windows {
			if w.Lo > pos {
				s.SkipWindow(tr, pos, w.Lo)
			}
			exact, err = s.RunWindow(tr, w.Lo, w.Hi)
			if err != nil {
				t.Fatal(err)
			}
			pos = w.Hi
		}
		got := replayOne(t, bt, c)
		if e := relErr(got.AvgLatency(), exact.AvgLatency()); e > tol {
			t.Errorf("%s: sampled avg latency %.4f vs exact %.4f (err %.2f%%)",
				comp, got.AvgLatency(), exact.AvgLatency(), 100*e)
		}
		if e := relErr(got.AvgEnergy(), exact.AvgEnergy()); e > tol {
			t.Errorf("%s: sampled avg energy %.4f vs exact %.4f (err %.2f%%)",
				comp, got.AvgEnergy(), exact.AvgEnergy(), 100*e)
		}
	}
}

// TestReplayRejectsMismatchedChannels: replaying against a connectivity
// architecture built for different channels must fail loudly.
func TestReplayRejectsMismatchedChannels(t *testing.T) {
	m := richArch(false)
	tr := streamTrace(1000)
	bt, err := CaptureBehavior(tr, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	other := cacheArch(4096)
	c := buildConnT(t, other, "ahb32", "off32")
	if _, err := ReplayBatch(bt, []*connect.Arch{c}); err == nil {
		t.Fatal("channel mismatch accepted")
	}
}

// TestCaptureValidatesWindows: overlapping or out-of-range windows are
// rejected.
func TestCaptureValidatesWindows(t *testing.T) {
	m := cacheArch(1024)
	tr := streamTrace(100)
	for _, ws := range [][]Window{
		{{Lo: 50, Hi: 40}},
		{{Lo: 0, Hi: 150}},
		{{Lo: 20, Hi: 60}, {Lo: 40, Hi: 80}},
	} {
		if _, err := CaptureBehavior(tr, m, ws); err == nil {
			t.Fatalf("invalid windows %v accepted", ws)
		}
	}
}

// TestLatBucket pins the bits.Len32 implementation to the original
// shift-loop reference.
func TestLatBucket(t *testing.T) {
	ref := func(lat int) int {
		b := 0
		for lat > 1 && b < 23 {
			lat >>= 1
			b++
		}
		return b
	}
	for lat := 0; lat < 1<<12; lat++ {
		if got, want := latBucket(lat), ref(lat); got != want {
			t.Fatalf("latBucket(%d) = %d, want %d", lat, got, want)
		}
	}
	for _, lat := range []int{1 << 22, 1<<23 - 1, 1 << 23, 1 << 25} {
		if got, want := latBucket(lat), ref(lat); got != want {
			t.Fatalf("latBucket(%d) = %d, want %d", lat, got, want)
		}
	}
}

// TestResultAddGrowsChannels: accumulating a result with more channels
// than the receiver has seen must grow the slices, not drop the tail.
func TestResultAddGrowsChannels(t *testing.T) {
	a := &Result{ChannelBytes: []int64{1}, ChannelWait: []int64{2}, ChannelTransfers: []int64{3}}
	b := &Result{ChannelBytes: []int64{10, 20}, ChannelWait: []int64{30, 40}, ChannelTransfers: []int64{50, 60}}
	a.Add(b)
	if len(a.ChannelBytes) != 2 || a.ChannelBytes[0] != 11 || a.ChannelBytes[1] != 20 {
		t.Fatalf("ChannelBytes = %v", a.ChannelBytes)
	}
	if len(a.ChannelWait) != 2 || a.ChannelWait[0] != 32 || a.ChannelWait[1] != 40 {
		t.Fatalf("ChannelWait = %v", a.ChannelWait)
	}
	if len(a.ChannelTransfers) != 2 || a.ChannelTransfers[0] != 53 || a.ChannelTransfers[1] != 60 {
		t.Fatalf("ChannelTransfers = %v", a.ChannelTransfers)
	}
}
