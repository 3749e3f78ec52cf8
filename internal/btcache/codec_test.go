package btcache

import (
	"bytes"
	"encoding/binary"
	"flag"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"memorex/internal/connect"
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

// captureWorkload runs Phase A over a 20,000-access workload slice,
// full or sampled.
func captureWorkload(t *testing.T, w workload.Workload, sampledMode, withL2 bool) *sim.BehaviorTrace {
	t.Helper()
	return captureSlice(t, w, 20_000, sampledMode, withL2)
}

// captureSlice runs Phase A over the workload's first n accesses, full
// or sampled.
func captureSlice(t *testing.T, w workload.Workload, n int, sampledMode, withL2 bool) *sim.BehaviorTrace {
	t.Helper()
	tr := w.Generate(workload.DefaultConfig()).Slice(0, n)
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
// legs, a repeated class and multi-window resync records. It must stay
// stable: the golden fixture pins its encoding.
func goldenTrace() *sim.BehaviorTrace {
	bt := &sim.BehaviorTrace{
		Channels: []mem.Channel{
			{Kind: mem.ChanCPUModule, Module: 0},
			{Kind: mem.ChanCPUModule, Module: 1},
			{Kind: mem.ChanModuleL2, Module: 0},
			{Kind: mem.ChanModuleL2, Module: 1},
			{Kind: mem.ChanL2DRAM, OffChip: true},
			{Kind: mem.ChanCPUDRAM, OffChip: true},
		},
		Modules: []sim.ModuleMeta{
			{Kind: mem.KindCache, Latency: 2, Energy: 0.125, Backed: true},
			{Kind: mem.KindStream, Latency: 1, Energy: 0.0625, LineBytes: 32, Depth: 4, Backed: true},
		},
		HasL2:      true,
		L2Latency:  6,
		L2Energy:   0.5,
		DRAMRowHit: 8,
		DRAMEnergy: 3.75,
		WindowLen:  []int32{3, 2},
		GapCycles:  []int64{0, 1 << 33},
		Resync:     []int32{0, -1, 5, 12, 7, -1, 0, 0},
		MaxBytes:   64,
		MaxDRAMLat: 20,
	}
	bt.Classes = []sim.EventClass{
		{Event: sim.Event{Route: 0, Size: 4, Flags: 1, DemandDRAM: -1, PrefDRAM: -1}},
		{Event: sim.Event{Route: 1, Size: 2, Stall: 3, DemandBytes: 32, DemandL2Off: 32, DemandDRAM: 20, PrefBytes: 64, PrefDRAM: 8}},
		{Event: sim.Event{Route: -1, Size: 8, DemandBytes: 8, DemandDRAM: 8, PrefDRAM: -1}},
		{Event: sim.Event{Route: 0, Size: 1, Flags: 1, Stall: 1, DemandDRAM: -1, PrefDRAM: -1}},
	}
	bt.IDs = []uint32{0, 1, 2, 0, 3}
	return compiled(bt)
}

// compiled derives bt's class counts and replay views from its class
// table and ids, as Decode does.
func compiled(bt *sim.BehaviorTrace) *sim.BehaviorTrace {
	if err := bt.Compile(); err != nil {
		panic(err)
	}
	return bt
}

// goldenFingerprint keys the golden fixture.
const goldenFingerprint = 0x0123456789abcdef

// TestGoldenFixture pins the binary format: the checked-in fixture
// must decode to the golden trace and the golden trace must encode to
// the fixture's exact bytes, so any accidental format drift — field
// order, widths, header layout — fails here instead of silently
// invalidating (or worse, misreading) every deployed cache.
func TestGoldenFixture(t *testing.T) {
	path := filepath.Join("testdata", "golden_v2.btc")
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
	if _, err := sim.ReplayBatch(got, []*connect.Arch{testConn(t, got)}); err != nil {
		t.Fatalf("golden fixture does not replay: %v", err)
	}
}

// TestGoldenV1IsAMiss: an entry of format version 1, which stored one
// 28-byte row per event, is not read: Decode rejects it at the version
// check, and the cache counts it a miss and quarantines the file, so
// the engine recaptures.
func TestGoldenV1IsAMiss(t *testing.T) {
	v1, err := os.ReadFile(filepath.Join("testdata", "golden_v1.btc"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(v1, goldenFingerprint); !IsCorrupt(err) {
		t.Fatalf("Decode of a v1 entry returned %v, want a CorruptError", err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, entryName(goldenFingerprint))
	if err := os.WriteFile(path, v1, 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get(goldenFingerprint); ok {
		t.Fatal("a v1 entry was served as a hit")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("v1 entry still live after the miss (stat err %v)", err)
	}
	if _, err := os.Stat(filepath.Join(dir, quarantineDir, entryName(goldenFingerprint))); err != nil {
		t.Fatalf("v1 entry not quarantined: %v", err)
	}
	if st := c.Stats(); st.CorruptQuarantined != 1 || st.Misses != 1 {
		t.Fatalf("stats after a v1 entry = %+v, want 1 corrupt quarantine and 1 miss", st)
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
// each its own class, with every field varying so a misplaced field
// would show; its transfer and DRAM-latency bounds are the ones a
// capture would record.
func largeTrace(n int) *sim.BehaviorTrace {
	bt := goldenTrace()
	bt.Classes = make([]sim.EventClass, n)
	bt.IDs = make([]uint32, n)
	bt.MaxBytes, bt.MaxDRAMLat = 4, 0
	for i := range n {
		bt.IDs[i] = uint32(i)
		bt.Classes[i].Event = sim.Event{
			Route:       int16(i%3 - 1),
			Size:        uint8(1 << (i % 4)),
			Flags:       uint8(i % 2),
			Stall:       int32(i % 5),
			DemandBytes: int32(i % 7 * 8),
			DemandL2Off: int32(i % 11),
			DemandDRAM:  int16(i%13 - 1),
			PrefBytes:   int32(i % 17 * 8),
			PrefL2Off:   int32(i % 19),
			PrefDRAM:    int16(i%23 - 1),
		}
		ev := &bt.Classes[i].Event
		bt.MaxBytes = max(bt.MaxBytes, int(ev.Size), int(ev.DemandBytes), int(ev.DemandL2Off), int(ev.PrefBytes), int(ev.PrefL2Off))
		bt.MaxDRAMLat = max(bt.MaxDRAMLat, int(ev.DemandDRAM), int(ev.PrefDRAM))
	}
	bt.WindowLen = []int32{int32(n)}
	bt.GapCycles = []int64{0}
	bt.Resync = make([]int32, len(bt.Modules)*2)
	return compiled(bt)
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
	if !sameTrace(got, bt) {
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
	if !sameTrace(got, bt) {
		t.Fatal("large capture diverged through the cache")
	}
}

// sameTrace is reflect.DeepEqual for behavior traces, except that the
// long slices are compared with == element by element (so a nil and
// an empty slice compare equal): under the race detector, reflecting
// over a million classes took longer than the round trip it checks.
func sameTrace(a, b *sim.BehaviorTrace) bool {
	if !slices.Equal(a.Classes, b.Classes) || !slices.Equal(a.IDs, b.IDs) ||
		!slices.Equal(a.WindowLen, b.WindowLen) || !slices.Equal(a.GapCycles, b.GapCycles) ||
		!slices.Equal(a.Resync, b.Resync) {
		return false
	}
	short := func(bt *sim.BehaviorTrace) sim.BehaviorTrace {
		c := *bt
		c.Classes, c.IDs, c.WindowLen, c.GapCycles, c.Resync = nil, nil, nil, nil, nil
		return c
	}
	return reflect.DeepEqual(short(a), short(b))
}

// reseal recomputes an entry's payload checksum after a deliberate edit.
func reseal(data []byte) []byte {
	binary.LittleEndian.PutUint32(data[24:], crc32.Checksum(data[headerSize:], castagnoli))
	return data
}

// TestDecodeRejectsForgedEvents: an entry whose checksum is valid but
// whose events do not fit its architecture section, or whose class ids
// do not fit its class table, must be corrupt, never a trace. Rewriting
// an event's route to 99 in a three-module capture used to decode fine
// and then crash ReplayBatch with an index out of range.
func TestDecodeRejectsForgedEvents(t *testing.T) {
	bt := captureWorkload(t, workload.Compress{}, false, true)
	const fp = 7
	data := Encode(bt, fp)
	bounds, err := SectionBoundaries(data)
	if err != nil {
		t.Fatal(err)
	}
	// Section starts; class 0's row follows the class count, and the
	// ids follow the class rows and the event count.
	arch, class0 := bounds[1], bounds[2]+4
	ids := class0 + len(bt.Classes)*classBytes + 4
	nCh, nMod := len(bt.Channels), len(bt.Modules)
	channelKind := func(i int) int { return arch + 4 + i*channelBytes }
	channelModule := func(i int) int { return channelKind(i) + 4 }
	module := func(i int) int { return arch + 4 + nCh*channelBytes + 4 + i*moduleBytes }
	maxBytesOff := bounds[2] - 8
	put16 := func(off int, v int16) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint16(b[off:], uint16(v)) }
	}
	put32 := func(off int, v int32) func([]byte) {
		return func(b []byte) { binary.LittleEndian.PutUint32(b[off:], uint32(v)) }
	}
	// Field offsets within class 0's row.
	stall, demBytes, prefDRAM := class0+4, class0+8, class0+classBytes-2
	cases := []struct {
		name string
		edit func([]byte)
	}{
		{"route 99", put16(class0, 99)},
		{"route -2", put16(class0, -2)},
		{"channel module out of range", put32(channelModule(0), int32(nMod))},
		// Module 0, the default route, loses its CPU channel, then its
		// backing channel (channel nMod), to module 1.
		{"route to a module with no CPU channel", put32(channelModule(0), 1)},
		{"demand leg with no backing channel", put32(channelModule(nMod), 1)},
		// The capture has an L2: its modules back onto module-L2
		// channels, the first of them channel nMod.
		{"L2 channels with HasL2 false", func(b []byte) { b[module(nMod)] = 0 }},
		{"module-DRAM channel with HasL2 true", put32(channelKind(nMod), int32(mem.ChanModuleDRAM))},
		{"demand bytes above MaxBytes", put32(demBytes, int32(bt.MaxBytes+1))},
		{"negative demand bytes", put32(demBytes, -8)},
		{"DRAM latency above MaxDRAMLat", put16(prefDRAM, int16(bt.MaxDRAMLat+1))},
		{"DRAM latency below -1", put16(prefDRAM, -2)},
		{"inflated MaxBytes", put32(maxBytesOff, int32(bt.MaxBytes+1))},
		{"inflated MaxDRAMLat", put32(maxBytesOff+4, int32(bt.MaxDRAMLat+1))},
		// Kind 4294963459 is the value FuzzDecode found; 5 is the first
		// past mem.KindDRAM.
		{"module kind 4294963459", put32(module(0), -3837)},
		{"module kind 5", put32(module(0), 5)},
		{"stream depth 0", put32(module(1)+20, 0)},
		{"stream line 0", put32(module(1)+16, 0)},
		// A negative latency runs the replay clock backwards.
		{"negative module latency", put32(module(0)+4, -1)},
		{"negative L2 latency", put32(module(nMod)+1, -1)},
		{"negative DRAM row hit", put32(maxBytesOff-12, -1)},
		{"negative stall", put32(stall, -1)},
		{"class id past the class table", put32(ids, int32(len(bt.Classes)))},
		{"class id skipping class 0", put32(ids, 1)},
		{"class count overrunning the section", put32(bounds[2], 1<<30)},
	}
	for _, c := range cases {
		forged := bytes.Clone(data)
		c.edit(forged)
		if _, err := Decode(reseal(forged), fp); !IsCorrupt(err) {
			t.Errorf("%s: Decode returned %v, want a CorruptError", c.name, err)
		}
	}
	if _, err := Decode(data, fp); err != nil {
		t.Fatalf("the unedited entry no longer decodes: %v", err)
	}
}
