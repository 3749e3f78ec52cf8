package connect

import (
	"strings"
	"testing"

	"memorex/internal/mem"
	"memorex/internal/rtable"
)

func TestLibraryShape(t *testing.T) {
	lib := Library()
	if len(lib) < 6 {
		t.Fatalf("library too small: %d entries", len(lib))
	}
	names := map[string]bool{}
	for _, c := range lib {
		if names[c.Name] {
			t.Fatalf("duplicate component name %q", c.Name)
		}
		names[c.Name] = true
		if c.WidthBytes <= 0 || c.BeatCycles <= 0 || c.MaxPorts < 2 {
			t.Fatalf("%s: nonsensical parameters %+v", c.Name, c)
		}
		if c.EnergyPerByte <= 0 || c.BaseGates <= 0 {
			t.Fatalf("%s: missing cost/energy model", c.Name)
		}
	}
	for _, want := range []string{"ahb32", "asb32", "apb32", "mux32", "ded32", "off32"} {
		if !names[want] {
			t.Fatalf("library missing paper component %q", want)
		}
	}
	if len(OnChipComponents(lib))+len(OffChipComponents(lib)) != len(lib) {
		t.Fatal("on/off chip filters do not partition the library")
	}
}

func TestLibraryQualitativeOrdering(t *testing.T) {
	lib := Library()
	get := func(n string) Component {
		c, err := ByName(lib, n)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ded, mux, apb, asb, ahb := get("ded32"), get("mux32"), get("apb32"), get("asb32"), get("ahb32")
	off := get("off32")

	// Latency ordering for a word transfer: dedicated/mux fastest,
	// then AHB, then ASB, then APB (paper Section 4).
	if !(ded.TransferCycles(4) <= mux.TransferCycles(4) &&
		mux.TransferCycles(4) < ahb.TransferCycles(4) &&
		ahb.TransferCycles(4) < asb.TransferCycles(4) &&
		asb.TransferCycles(4) < apb.TransferCycles(4)) {
		t.Fatal("latency ordering dedicated<=mux<ahb<asb<apb violated")
	}
	// Controller cost ordering: APB < ASB < AHB (paper Section 4).
	if !(apb.BaseGates < asb.BaseGates && asb.BaseGates < ahb.BaseGates) {
		t.Fatal("controller cost ordering apb<asb<ahb violated")
	}
	// Point-to-point wiring is more expensive per port than shared busses.
	if ded.WireGatesPerPort <= ahb.WireGatesPerPort {
		t.Fatal("dedicated links must pay more wire area than shared busses")
	}
	// Off-chip energy dominates on-chip energy.
	if off.EnergyPerByte < 4*ahb.EnergyPerByte {
		t.Fatal("off-chip transfers must be much more expensive than on-chip")
	}
	// Only AHB supports split transactions in the default library.
	if !ahb.Split || asb.Split || apb.Split {
		t.Fatal("split-transaction flags wrong")
	}
}

func TestBeatsAndTransferCycles(t *testing.T) {
	c := Component{WidthBytes: 4, ArbCycles: 1, BeatCycles: 2}
	if c.Beats(0) != 0 || c.Beats(1) != 1 || c.Beats(4) != 1 || c.Beats(5) != 2 || c.Beats(32) != 8 {
		t.Fatal("Beats wrong")
	}
	if c.TransferCycles(8) != 1+2*2 {
		t.Fatalf("TransferCycles(8) = %d, want 5", c.TransferCycles(8))
	}
}

func TestComponentTablePipelining(t *testing.T) {
	lib := Library()
	ahb, _ := ByName(lib, "ahb32")
	asb, _ := ByName(lib, "asb32")

	// Pipelined AHB: initiating a second 4-byte transfer can overlap;
	// MII should be well below the full transfer latency.
	ahbT := ahb.Table(16)
	asbT := asb.Table(16)
	if ahbT.MinInitiationInterval() >= asbT.MinInitiationInterval() {
		t.Fatalf("AHB MII (%d) should beat ASB MII (%d) for burst transfers",
			ahbT.MinInitiationInterval(), asbT.MinInitiationInterval())
	}
	// Non-pipelined component blocks for its whole latency.
	if asbT.MinInitiationInterval() < asb.TransferCycles(16) {
		t.Fatalf("non-pipelined ASB MII %d < full latency %d",
			asbT.MinInitiationInterval(), asb.TransferCycles(16))
	}
}

func TestComponentTableClampsLongBursts(t *testing.T) {
	lib := Library()
	off, _ := ByName(lib, "off16")
	// A huge burst must still produce a legal (<=64 cycle) table.
	tab := off.Table(4096)
	if tab.Length() > 64 {
		t.Fatalf("table length %d exceeds window", tab.Length())
	}
}

// TestOutlivesTransfer checks the invariant the replay's contention
// bypasses rely on: over a grid of valid timing shapes (zero and small
// values, and ones long enough to hit the StageWindow clamp) and every
// transfer size, no stage ends after TransferCycles(n).
func TestOutlivesTransfer(t *testing.T) {
	for _, width := range []int{1, 2, 4, 8} {
		for _, arb := range []int{0, 1, 2, 3, 24, 40, StageWindow} {
			for _, beat := range []int{1, 2, 3, 50} {
				for _, pipelined := range []bool{false, true} {
					c := Component{
						Name: "grid", WidthBytes: width, ArbCycles: arb, BeatCycles: beat,
						Pipelined: pipelined, MaxPorts: 2, EnergyPerByte: 1, BaseGates: 1,
					}
					if err := ValidateComponent(&c); err != nil {
						t.Fatalf("%+v: %v", c, err)
					}
					if n, st, ok := outlivingStage(&c, 64); !ok {
						t.Errorf("%+v: %d-byte stage %+v ends after TransferCycles = %d",
							c, n, st, c.TransferCycles(n))
					}
				}
			}
		}
	}
}

// outlivingStage returns the first transfer size in [1, maxN] and stage
// of c that ends after TransferCycles(n), and ok when there is none.
func outlivingStage(c *Component, maxN int) (int, rtable.Stage, bool) {
	for n := 1; n <= maxN; n++ {
		for _, st := range c.Stages(n) {
			if st.Start+st.Len > c.TransferCycles(n) {
				return n, st, false
			}
		}
	}
	return 0, rtable.Stage{}, true
}

func TestComponentSchedulingWithScheduler(t *testing.T) {
	lib := Library()
	ded, _ := ByName(lib, "ded32")
	s := rtable.NewScheduler(NumResources())
	g1 := s.EarliestIssue(0, ded.Stages(4))
	g2 := s.EarliestIssue(0, ded.Stages(4))
	if g1 != 0 {
		t.Fatalf("idle dedicated link should grant immediately, got %d", g1)
	}
	if g2 <= g1 {
		t.Fatalf("second transfer must serialize on the data path, got %d", g2)
	}
}

func TestGatesModel(t *testing.T) {
	lib := Library()
	ahb, _ := ByName(lib, "ahb32")
	if ahb.Gates(2) >= ahb.Gates(6) {
		t.Fatal("more ports must cost more gates")
	}
	if ahb.Gates(1) != ahb.Gates(2) {
		t.Fatal("port count below 2 should clamp to 2")
	}
}

func TestFits(t *testing.T) {
	lib := Library()
	ahb, _ := ByName(lib, "ahb32")
	off, _ := ByName(lib, "off32")
	if !ahb.Fits(3, false) || ahb.Fits(3, true) {
		t.Fatal("on-chip component placement rules wrong")
	}
	if !off.Fits(3, true) || off.Fits(3, false) {
		t.Fatal("off-chip component placement rules wrong")
	}
	if ahb.Fits(17, false) {
		t.Fatal("port limit not enforced")
	}
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName(Library(), "warp-bus"); err == nil {
		t.Fatal("ByName accepted unknown component")
	}
}

func memArch() *mem.Architecture {
	return &mem.Architecture{
		Name:    "m",
		Modules: []mem.Module{mem.MustCache(8192, 32, 2), mem.MustSRAM(4096)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
}

func testArch(t *testing.T) *Arch {
	t.Helper()
	m := memArch()
	chans := m.Channels() // cpu-cache, cpu-sram, cache-dram
	lib := Library()
	ahb, _ := ByName(lib, "ahb32")
	off, _ := ByName(lib, "off32")
	a := &Arch{
		Channels: chans,
		Clusters: [][]int{{0, 1}, {2}},
		Assign:   []Component{ahb, off},
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("valid connectivity architecture rejected: %v", err)
	}
	return a
}

func TestArchValidate(t *testing.T) {
	a := testArch(t)

	// Channel covered twice.
	bad := *a
	bad.Clusters = [][]int{{0, 1}, {2, 0}}
	if err := bad.Validate(); err == nil {
		t.Fatal("duplicate channel accepted")
	}
	// Channel missing.
	bad.Clusters = [][]int{{0}, {2}}
	if err := bad.Validate(); err == nil {
		t.Fatal("uncovered channel accepted")
	}
	// Mixing on-chip and off-chip in one cluster.
	bad.Clusters = [][]int{{0, 1, 2}}
	bad.Assign = a.Assign[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("mixed cluster accepted")
	}
	// Off-chip channel on on-chip bus.
	lib := Library()
	ahb, _ := ByName(lib, "ahb32")
	bad = *a
	bad.Assign = []Component{ahb, ahb}
	if err := bad.Validate(); err == nil {
		t.Fatal("off-chip channel on AHB accepted")
	}
	// Port overflow on dedicated link.
	ded, _ := ByName(lib, "ded32")
	bad = *a
	bad.Assign = []Component{ded, bad.Assign[1]}
	if err := bad.Validate(); err == nil {
		t.Fatal("3 ports on a 2-port dedicated link accepted")
	}
	// Empty cluster.
	bad = *a
	bad.Clusters = [][]int{{0, 1}, {2}, {}}
	bad.Assign = append(append([]Component{}, a.Assign...), ahb)
	if err := bad.Validate(); err == nil {
		t.Fatal("empty cluster accepted")
	}
	// Out-of-range channel index.
	bad = *a
	bad.Clusters = [][]int{{0, 1}, {7}}
	if err := bad.Validate(); err == nil {
		t.Fatal("out-of-range channel accepted")
	}
	// A component ValidateComponent rejects: no width, no beat cycles,
	// or an arbitration latency beyond the stage window.
	for _, mutate := range []func(*Component){
		func(c *Component) { c.WidthBytes = 0 },
		func(c *Component) { c.BeatCycles = 0 },
		func(c *Component) { c.ArbCycles = StageWindow + 1 },
	} {
		bad = *a
		bad.Assign = append([]Component(nil), a.Assign...)
		mutate(&bad.Assign[1])
		if err := bad.Validate(); err == nil {
			t.Fatalf("invalid component %+v accepted", bad.Assign[1])
		}
	}
	// Cluster/assignment count mismatch.
	bad = *a
	bad.Assign = a.Assign[:1]
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched assignment count accepted")
	}
}

func TestArchGatesAndDescribe(t *testing.T) {
	a := testArch(t)
	if a.Gates() <= 0 {
		t.Fatal("connectivity gates should be positive")
	}
	m := memArch()
	d := a.Describe(m)
	if !strings.Contains(d, "ahb32[") || !strings.Contains(d, "off32[") {
		t.Fatalf("Describe output unexpected: %q", d)
	}
	if a.ComponentOf(2) != 1 || a.ComponentOf(0) != 0 {
		t.Fatal("ComponentOf wrong")
	}
	if a.ComponentOf(9) != -1 {
		t.Fatal("ComponentOf should return -1 for unknown channels")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		Dedicated: "dedicated", Mux: "mux", APB: "apb",
		ASB: "asb", AHB: "ahb", OffChip: "offchip",
	} {
		if c.String() != want {
			t.Fatalf("Class(%d) = %q, want %q", c, c, want)
		}
	}
	if !strings.Contains(Class(42).String(), "42") {
		t.Fatal("unknown class should embed its value")
	}
}
