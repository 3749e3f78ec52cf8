package btcache

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"memorex/internal/mem"
	"memorex/internal/sampling"
	"memorex/internal/sim"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden fixtures")

// testBehaviorArch exercises every replay-relevant module kind: cache
// default route, stream buffer, self-indirect DMA, a direct-DRAM data
// structure, and optionally a shared L2 — mirroring the replay suite's
// richArch.
func testBehaviorArch(withL2 bool) *mem.Architecture {
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

// capture runs Phase A over a workload slice, full or sampled.
func captureWorkload(t *testing.T, w workload.Workload, sampledMode, withL2 bool) *sim.BehaviorTrace {
	t.Helper()
	tr := w.Generate(workload.DefaultConfig()).Slice(0, 20_000)
	var windows []sim.Window
	if sampledMode {
		windows = sampling.Plan(tr.NumAccesses(), sampling.Config{OnWindow: 500, OffRatio: 9})
	}
	bt, err := sim.CaptureBehavior(tr, testBehaviorArch(withL2), windows)
	if err != nil {
		t.Fatal(err)
	}
	return bt
}

// TestRoundTrip: serialize→deserialize is field-for-field identity for
// all three paper workloads, in full and sampled modes, with and
// without a shared L2.
func TestRoundTrip(t *testing.T) {
	workloads := map[string]workload.Workload{
		"compress": workload.Compress{},
		"li":       workload.Li{},
		"vocoder":  workload.Vocoder{},
	}
	for name, w := range workloads {
		for _, sampledMode := range []bool{false, true} {
			for _, withL2 := range []bool{false, true} {
				mode := map[bool]string{false: "full", true: "sampled"}[sampledMode]
				l2 := map[bool]string{false: "noL2", true: "L2"}[withL2]
				t.Run(name+"/"+mode+"/"+l2, func(t *testing.T) {
					bt := captureWorkload(t, w, sampledMode, withL2)
					const fp = 0xfeedface12345678
					data := Encode(bt, fp)
					got, err := Decode(data, fp)
					if err != nil {
						t.Fatalf("decode failed: %v", err)
					}
					if !reflect.DeepEqual(got, bt) {
						t.Fatalf("round trip diverged:\n got %+v\nwant %+v", got, bt)
					}
					// Re-encoding the decoded trace must be byte-identical:
					// the format has exactly one representation per trace.
					if !bytes.Equal(Encode(got, fp), data) {
						t.Fatal("re-encoding the decoded trace changed the bytes")
					}
				})
			}
		}
	}
}

// TestDecodeWrongFingerprint: an entry presented under a different key
// (a hash collision or a renamed file) is corruption, never a hit.
func TestDecodeWrongFingerprint(t *testing.T) {
	bt := captureWorkload(t, workload.Compress{}, false, false)
	data := Encode(bt, 111)
	if _, err := Decode(data, 222); !IsCorrupt(err) {
		t.Fatalf("decode under the wrong fingerprint returned %v, want a CorruptError", err)
	}
}

// goldenTrace is a small hand-built behavior trace covering every
// field of the format, including negative sentinels, empty prefetch
// legs and multi-window resync records. It must stay stable: the
// golden fixture pins its encoding.
func goldenTrace() *sim.BehaviorTrace {
	return &sim.BehaviorTrace{
		Channels: []mem.Channel{
			{Kind: mem.ChanCPUModule, Module: 0},
			{Kind: mem.ChanModuleDRAM, Module: 0, OffChip: true},
			{Kind: mem.ChanCPUDRAM, OffChip: true},
		},
		Modules: []sim.ModuleMeta{
			{Kind: mem.KindCache, Latency: 2, Energy: 0.125, Backed: true},
			{Kind: mem.KindStream, Latency: 1, Energy: 0.0625, LineBytes: 32, Depth: 4, Backed: true},
		},
		HasL2:       true,
		L2Latency:   6,
		L2Energy:    0.5,
		DRAMRowHit:  8,
		DRAMEnergy:  3.75,
		Route:       []int16{0, 1, -1, 0},
		Size:        []uint8{4, 2, 8, 1},
		Flags:       []uint8{1, 0, 0, 1},
		Stall:       []int32{0, 3, 0, 1},
		DemandBytes: []int32{0, 32, 8, 0},
		DemandL2Off: []int32{0, 32, 0, 0},
		DemandDRAM:  []int16{-1, 20, 8, -1},
		PrefBytes:   []int32{0, 64, 0, 0},
		PrefL2Off:   []int32{0, 0, 0, 0},
		PrefDRAM:    []int16{-1, 8, -1, -1},
		WindowLen:   []int32{3, 1},
		GapCycles:   []int64{0, 1 << 33},
		Resync:      []int32{0, -1, 5, 12, 7, -1, 0, 0},
		MaxBytes:    64,
		MaxDRAMLat:  20,
	}
}

// goldenFingerprint keys the golden fixture.
const goldenFingerprint = 0x0123456789abcdef

// TestGoldenFixture pins the binary format: the checked-in fixture
// must decode to the golden trace and the golden trace must encode to
// the fixture's exact bytes, so any accidental format drift — field
// order, widths, header layout — fails here instead of silently
// invalidating (or worse, misreading) every deployed cache.
func TestGoldenFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden_v1.btc")
	data := Encode(goldenTrace(), goldenFingerprint)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	fixture, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/btcache -update-golden` after an intentional format change)", err)
	}
	if !bytes.Equal(data, fixture) {
		t.Fatalf("encoding drifted from the golden fixture (%d vs %d bytes): bump FormatVersion and regenerate with -update-golden",
			len(data), len(fixture))
	}
	got, err := Decode(fixture, goldenFingerprint)
	if err != nil {
		t.Fatalf("golden fixture no longer decodes: %v", err)
	}
	if !reflect.DeepEqual(got, goldenTrace()) {
		t.Fatalf("golden fixture decoded to a different trace:\n got %+v\nwant %+v", got, goldenTrace())
	}
}

// TestSectionBoundaries: the boundary list is monotonically increasing
// from the header to the entry length.
func TestSectionBoundaries(t *testing.T) {
	data := Encode(goldenTrace(), goldenFingerprint)
	bounds, err := SectionBoundaries(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(bounds) != 2+sectionCount {
		t.Fatalf("got %d boundaries, want %d", len(bounds), 2+sectionCount)
	}
	if bounds[0] != headerSize {
		t.Fatalf("first boundary %d, want header end %d", bounds[0], headerSize)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			t.Fatalf("boundaries not increasing: %v", bounds)
		}
	}
	if last := bounds[len(bounds)-1]; last != len(data) {
		t.Fatalf("last boundary %d, want entry length %d", last, len(data))
	}
}

// largeTrace is a full-trace-shaped capture of n events in one window,
// with every column varying so a misplaced column would show.
func largeTrace(n int) *sim.BehaviorTrace {
	bt := goldenTrace()
	bt.Route = make([]int16, n)
	bt.Size = make([]uint8, n)
	bt.Flags = make([]uint8, n)
	bt.Stall = make([]int32, n)
	bt.DemandBytes = make([]int32, n)
	bt.DemandL2Off = make([]int32, n)
	bt.DemandDRAM = make([]int16, n)
	bt.PrefBytes = make([]int32, n)
	bt.PrefL2Off = make([]int32, n)
	bt.PrefDRAM = make([]int16, n)
	for i := range n {
		bt.Route[i] = int16(i%3 - 1)
		bt.Size[i] = uint8(1 << (i % 4))
		bt.Flags[i] = uint8(i % 2)
		bt.Stall[i] = int32(i % 5)
		bt.DemandBytes[i] = int32(i % 7 * 8)
		bt.DemandL2Off[i] = int32(i % 11)
		bt.DemandDRAM[i] = int16(i%13 - 1)
		bt.PrefBytes[i] = int32(i % 17 * 8)
		bt.PrefL2Off[i] = int32(i % 19)
		bt.PrefDRAM[i] = int16(i%23 - 1)
	}
	bt.WindowLen = []int32{int32(n)}
	bt.GapCycles = []int64{0}
	bt.Resync = make([]int32, len(bt.Modules)*2)
	return bt
}

// TestLargeCaptureRoundTrip: a capture of more than 2^20 events — a
// full-trace capture of li at scale 1 has about 2.5M — must round-trip
// through Encode/Decode and through the cache, not be rejected as an
// implausible count and quarantined.
func TestLargeCaptureRoundTrip(t *testing.T) {
	assertLargeRoundTrip(t, largeTrace(1<<20+3))
}

// TestManyWindowsRoundTrip: a capture of more than 2^20 sampling
// windows — the plan of {"benchmark":"li","sampling":{"on_window":1,
// "off_ratio":1}} has about 1.25M — must round-trip like a capture of
// many events, with its resync records too.
func TestManyWindowsRoundTrip(t *testing.T) {
	const n = 1<<20 + 1
	bt := largeTrace(n)
	bt.WindowLen = make([]int32, n)
	bt.GapCycles = make([]int64, n)
	bt.Resync = make([]int32, n*len(bt.Modules)*2)
	for i := range n {
		bt.WindowLen[i] = 1
		bt.GapCycles[i] = int64(i % 29)
	}
	for i := range bt.Resync {
		bt.Resync[i] = int32(i % 31)
	}
	assertLargeRoundTrip(t, bt)
}

// assertLargeRoundTrip checks that bt survives Encode/Decode and a
// Put/Get through a fresh cache unchanged.
func assertLargeRoundTrip(t *testing.T, bt *sim.BehaviorTrace) {
	t.Helper()
	const fp = 0x5eed
	got, err := Decode(Encode(bt, fp), fp)
	if err != nil {
		t.Fatalf("decode failed: %v", err)
	}
	if !reflect.DeepEqual(got, bt) {
		t.Fatal("large capture round trip diverged")
	}

	c, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(fp, bt); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(fp)
	if !ok {
		t.Fatal("cache missed a large capture it just stored")
	}
	if !reflect.DeepEqual(got, bt) {
		t.Fatal("large capture diverged through the cache")
	}
}
