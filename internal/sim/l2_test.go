package sim

import (
	"context"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/workload"
)

// l2Arch builds a small L1 shielded by a large shared L2.
func l2Arch(l1, l2 int) *mem.Architecture {
	a := &mem.Architecture{
		Name:    "hier",
		Modules: []mem.Module{mem.MustCache(l1, 32, 2)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
	if l2 > 0 {
		a.L2 = mem.MustCache(l2, 32, 4)
	}
	return a
}

func TestL2Channels(t *testing.T) {
	a := l2Arch(1024, 32768)
	chans := a.Channels()
	// cpu<->l1, l1<->l2 (on-chip), l2<->dram (off-chip).
	if len(chans) != 3 {
		t.Fatalf("want 3 channels, got %v", chans)
	}
	kinds := map[mem.ChannelKind]bool{}
	for _, ch := range chans {
		kinds[ch.Kind] = true
		if ch.Kind == mem.ChanModuleL2 && ch.OffChip {
			t.Fatal("module<->l2 must be on-chip")
		}
		if ch.Kind == mem.ChanL2DRAM && !ch.OffChip {
			t.Fatal("l2<->dram must be off-chip")
		}
	}
	if !kinds[mem.ChanModuleL2] || !kinds[mem.ChanL2DRAM] {
		t.Fatalf("L2 channels missing: %v", chans)
	}
	if chans[1].Label(a) != "cache1k-2w-32b<->l2" || chans[2].Label(a) != "l2<->dram" {
		t.Fatalf("labels wrong: %q, %q", chans[1].Label(a), chans[2].Label(a))
	}
	// Gates include the L2; Describe mentions it.
	if a.Gates() <= l2Arch(1024, 0).Gates() {
		t.Fatal("L2 must add gates")
	}
	if s := a.Describe(nil); !contains(s, "l2:cache32k-4w-32b") {
		t.Fatalf("Describe missing L2: %q", s)
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

func buildL2Conn(t *testing.T, a *mem.Architecture) *connect.Arch {
	t.Helper()
	lib := connect.Library()
	ahb, _ := connect.ByName(lib, "ahb32")
	off, _ := connect.ByName(lib, "off32")
	c := &connect.Arch{Channels: a.Channels()}
	for i, ch := range c.Channels {
		c.Clusters = append(c.Clusters, []int{i})
		if ch.OffChip {
			c.Assign = append(c.Assign, off)
		} else {
			c.Assign = append(c.Assign, ahb)
		}
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestL2ShieldsDRAM(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 42}).Slice(0, 100_000)

	flat := l2Arch(1024, 0)
	hier := l2Arch(1024, 65536)

	sFlat, err := New(flat, buildL2Conn(t, flat))
	if err != nil {
		t.Fatal(err)
	}
	rFlat, err := sFlat.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	sHier, err := New(hier, buildL2Conn(t, hier))
	if err != nil {
		t.Fatal(err)
	}
	rHier, err := sHier.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	// Same L1 behaviour, so the same L1 miss count...
	if rHier.Misses != rFlat.Misses {
		t.Fatalf("L1 misses diverged: %d vs %d", rHier.Misses, rFlat.Misses)
	}
	// ...but the L2 absorbs most of the off-chip traffic...
	if rHier.OffChipBytes >= rFlat.OffChipBytes/2 {
		t.Fatalf("L2 should cut off-chip bytes: %d vs %d", rHier.OffChipBytes, rFlat.OffChipBytes)
	}
	// ...which also lowers latency and energy.
	if rHier.AvgLatency() >= rFlat.AvgLatency() {
		t.Fatalf("L2 should lower latency: %.2f vs %.2f", rHier.AvgLatency(), rFlat.AvgLatency())
	}
	if rHier.AvgEnergy() >= rFlat.AvgEnergy() {
		t.Fatalf("L2 should lower energy: %.2f vs %.2f", rHier.AvgEnergy(), rFlat.AvgEnergy())
	}
}

func TestL2MemOnlyAgrees(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 42}).Slice(0, 100_000)
	hier := l2Arch(1024, 65536)
	rms, err := MemOnly(context.Background(), tr, []*mem.Architecture{hier}, 1)
	if err != nil {
		t.Fatal(err)
	}
	rm := rms[0]
	s, err := New(hier, buildL2Conn(t, hier))
	if err != nil {
		t.Fatal(err)
	}
	rf, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Misses != rf.Misses {
		t.Fatalf("L1 miss counts diverge: %d vs %d", rm.Misses, rf.Misses)
	}
	// Off-chip bytes agree (deterministic L2 behaviour on the same
	// access sequence).
	if rm.OffChipBytes != rf.OffChipBytes {
		t.Fatalf("off-chip bytes diverge: %d vs %d", rm.OffChipBytes, rf.OffChipBytes)
	}
}

func TestL2WorksWithConExExploration(t *testing.T) {
	// The generic channel machinery must let ConEx cluster and assign
	// the L2 channels like any others — exercised via the memory
	// architecture's channel list and a simulation of a shared-bus
	// mapping of all on-chip channels.
	a := &mem.Architecture{
		Name: "hier2",
		Modules: []mem.Module{
			mem.MustCache(2048, 32, 2),
			mem.MustStreamBuffer(32, 4),
		},
		DRAM:    mem.DefaultDRAM(),
		L2:      mem.MustCache(32768, 32, 4),
		Default: 0,
	}
	lib := connect.Library()
	ahb, _ := connect.ByName(lib, "ahb32")
	off, _ := connect.ByName(lib, "off16")
	chans := a.Channels()
	var on, offc []int
	for i, ch := range chans {
		if ch.OffChip {
			offc = append(offc, i)
		} else {
			on = append(on, i)
		}
	}
	conn := &connect.Arch{
		Channels: chans,
		Clusters: [][]int{on, offc},
		Assign:   []connect.Component{ahb, off},
	}
	if err := conn.Validate(); err != nil {
		t.Fatal(err)
	}
	s, err := New(a, conn)
	if err != nil {
		t.Fatal(err)
	}
	tr := workload.Vocoder{}.Generate(workload.Config{Scale: 1, Seed: 1}).Slice(0, 50_000)
	r, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	if r.Accesses != 50_000 || r.AvgLatency() <= 0 {
		t.Fatalf("hierarchical shared-bus system failed to simulate: %+v", r)
	}
}
