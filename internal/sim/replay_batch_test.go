package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/workload"
)

// batchConns builds the connectivity candidates the batch fidelity gate
// replays: one one-cluster-per-channel arch per library component (the
// off-chip entries paired with ahb32 on chip, mirroring
// TestReplayFidelityLibrary) plus a shared-cluster arch that maps all
// on-chip channels onto one bus, so cluster sharing and the off-chip
// split/dead-time paths are all exercised in one batch.
func batchConns(t *testing.T, m *mem.Architecture) []*connect.Arch {
	t.Helper()
	var conns []*connect.Arch
	for _, comp := range connect.Library() {
		on, off := comp.Name, "off32"
		if !comp.OnChip {
			on, off = "ahb32", comp.Name
		}
		conns = append(conns, buildConnT(t, m, on, off))
	}
	lib := connect.Library()
	ahb, err := connect.ByName(lib, "ahb32")
	if err != nil {
		t.Fatal(err)
	}
	off, err := connect.ByName(lib, "off16")
	if err != nil {
		t.Fatal(err)
	}
	chans := m.Channels()
	shared := &connect.Arch{Channels: chans}
	var on, offc []int
	for i, ch := range chans {
		if ch.OffChip {
			offc = append(offc, i)
		} else {
			on = append(on, i)
		}
	}
	shared.Clusters = [][]int{on, offc}
	shared.Assign = []connect.Component{ahb, off}
	if err := shared.Validate(); err != nil {
		t.Fatalf("shared-cluster arch invalid: %v", err)
	}
	return append(conns, shared)
}

// assertBatchExact replays the batch and asserts every member — in the
// batch and replayed alone as K=1 — is bit-exact against the per-arch
// replayReference: every counter, the float energy accumulator, the
// latency histogram and the scheduler statistics included.
func assertBatchExact(t *testing.T, name string, bt *BehaviorTrace, conns []*connect.Arch) {
	t.Helper()
	batch, err := ReplayBatch(bt, conns)
	if err != nil {
		t.Fatalf("%s: ReplayBatch: %v", name, err)
	}
	if len(batch) != len(conns) {
		t.Fatalf("%s: ReplayBatch returned %d results for %d archs", name, len(batch), len(conns))
	}
	for i, c := range conns {
		ref, err := replayReference(bt, c)
		if err != nil {
			t.Fatalf("%s[%d]: replayReference: %v", name, i, err)
		}
		if !reflect.DeepEqual(batch[i], ref) {
			t.Errorf("%s[%d]: batch result diverged from replayReference:\n got %+v\nwant %+v",
				name, i, batch[i], ref)
		}
		if one := replayOne(t, bt, c); !reflect.DeepEqual(one, ref) {
			t.Errorf("%s[%d]: K=1 result diverged from replayReference:\n got %+v\nwant %+v",
				name, i, one, ref)
		}
	}
}

// TestReplayBatchMatchesReplay is the batch fidelity gate: for every
// connectivity architecture in the library — across module kinds
// (cache, stream buffer, DMA, direct DRAM), with and without a shared
// L2, on full and windowed captures — ReplayBatch must be bit-exact
// against the per-arch replayReference. The mismatched-channel and
// nil-arch error paths are covered below.
func TestReplayBatchMatchesReplay(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 40_000)
	for _, withL2 := range []bool{false, true} {
		m := richArch(withL2)
		conns := batchConns(t, m)
		name := "full"
		if withL2 {
			name = "full/l2"
		}
		bt, err := CaptureBehavior(tr, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchExact(t, name, bt, conns)

		// Windowed capture: gap resync state must also replay
		// identically through the batch path.
		var windows []Window
		const on, period = 2000, 20000
		for lo := 0; lo < tr.NumAccesses(); lo += period {
			hi := lo + on
			if hi > tr.NumAccesses() {
				hi = tr.NumAccesses()
			}
			windows = append(windows, Window{Lo: lo, Hi: hi})
		}
		wbt, err := CaptureBehavior(tr, m, windows)
		if err != nil {
			t.Fatal(err)
		}
		assertBatchExact(t, name+"/windowed", wbt, conns)
	}

	// A prefetch-free architecture takes the fully scheduler-free path.
	m := cacheArch(4096)
	bt, err := CaptureBehavior(tr.Slice(0, 20_000), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	assertBatchExact(t, "cache", bt, batchConns(t, m))
}

// randConn builds a random connectivity architecture for m: a random
// partition of the on-chip and off-chip channel sets into clusters with
// random matching library components, retried until it validates.
func randConn(t *testing.T, rng *rand.Rand, m *mem.Architecture) *connect.Arch {
	t.Helper()
	lib := connect.Library()
	var onComps, offComps []connect.Component
	for _, c := range lib {
		if c.OnChip {
			onComps = append(onComps, c)
		} else {
			offComps = append(offComps, c)
		}
	}
	chans := m.Channels()
	for attempt := 0; attempt < 200; attempt++ {
		a := &connect.Arch{Channels: chans}
		build := func(idx []int, comps []connect.Component) {
			idx = append([]int(nil), idx...)
			rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
			for len(idx) > 0 {
				n := 1 + rng.Intn(len(idx))
				cl := append([]int(nil), idx[:n]...)
				idx = idx[n:]
				a.Clusters = append(a.Clusters, cl)
				a.Assign = append(a.Assign, comps[rng.Intn(len(comps))])
			}
		}
		var on, off []int
		for i, ch := range chans {
			if ch.OffChip {
				off = append(off, i)
			} else {
				on = append(on, i)
			}
		}
		build(on, onComps)
		build(off, offComps)
		if a.Validate() == nil {
			return a
		}
	}
	t.Fatal("randConn: no valid random architecture in 200 attempts")
	return nil
}

// TestReplayBatchProperty is the randomized batch gate: a random
// library of cluster assignments × component choices, replayed on full
// and windowed captures with and without a shared L2, must agree
// bit-for-bit between ReplayBatch and the per-arch replayReference.
func TestReplayBatchProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 12_000)
	for _, withL2 := range []bool{false, true} {
		m := richArch(withL2)
		for _, windowed := range []bool{false, true} {
			var windows []Window
			if windowed {
				for lo := 0; lo < tr.NumAccesses(); lo += 6000 {
					hi := lo + 1500
					if hi > tr.NumAccesses() {
						hi = tr.NumAccesses()
					}
					windows = append(windows, Window{Lo: lo, Hi: hi})
				}
			}
			bt, err := CaptureBehavior(tr, m, windows)
			if err != nil {
				t.Fatal(err)
			}
			conns := make([]*connect.Arch, 8)
			for i := range conns {
				conns[i] = randConn(t, rng, m)
			}
			batch, err := ReplayBatch(bt, conns)
			if err != nil {
				t.Fatal(err)
			}
			for i, c := range conns {
				want, err := replayReference(bt, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[i], want) {
					t.Errorf("l2=%v windowed=%v arch %d: ReplayBatch diverged", withL2, windowed, i)
				}
			}
		}
	}
}

// TestReplayBatchErrors: an empty batch is a no-op, a nil member and a
// channel-mismatched member fail loudly with the member's index.
func TestReplayBatchErrors(t *testing.T) {
	m := richArch(false)
	tr := streamTrace(1000)
	bt, err := CaptureBehavior(tr, m, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ReplayBatch(bt, nil)
	if err != nil || res != nil {
		t.Fatalf("empty batch = (%v, %v); want (nil, nil)", res, err)
	}
	good := buildConnT(t, m, "ahb32", "off32")
	if _, err := ReplayBatch(bt, []*connect.Arch{good, nil}); err == nil {
		t.Fatal("nil batch member accepted")
	}
	other := cacheArch(4096)
	mismatched := buildConnT(t, other, "ahb32", "off32")
	_, err = ReplayBatch(bt, []*connect.Arch{good, mismatched})
	if err == nil {
		t.Fatal("channel mismatch accepted")
	}
	if !strings.Contains(err.Error(), "batch arch 1") {
		t.Fatalf("mismatch error does not identify the member: %v", err)
	}
}

// TestInvalidComponentRejected: a component connect.ValidateComponent
// rejects (no width, no beat cycles) fails sim.New and ReplayBatch with
// an error instead of reaching the timing code, where a zero width
// divides by zero.
func TestInvalidComponentRejected(t *testing.T) {
	m := richArch(false)
	bt, err := CaptureBehavior(streamTrace(1000), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*connect.Component){
		"zero width": func(c *connect.Component) { c.WidthBytes = 0 },
		"zero beat":  func(c *connect.Component) { c.BeatCycles = 0 },
	} {
		for i := range m.Channels() {
			conn := buildConnT(t, m, "ahb32", "off32")
			mutate(&conn.Assign[i])
			if _, err := New(m, conn); err == nil {
				t.Errorf("%s on cluster %d: New accepted it", name, i)
			}
			if _, err := ReplayBatch(bt, []*connect.Arch{conn}); err == nil {
				t.Errorf("%s on cluster %d: ReplayBatch accepted it", name, i)
			}
		}
	}
}

// randComp draws a synthetic component for the contended stress test,
// one that connect.ValidateComponent accepts. A third of the draws put
// arbitration cycles at zero, so zero-arbitration non-pipelined shapes
// occur often; every beat takes at least one cycle.
func randComp(rng *rand.Rand, onChip bool) connect.Component {
	arb := 1 + rng.Intn(24)
	if rng.Intn(3) == 0 {
		arb = 0
	}
	c := connect.Component{
		Name:          "synthetic",
		Class:         connect.AHB,
		WidthBytes:    1 + rng.Intn(8),
		ArbCycles:     arb,
		BeatCycles:    1 + rng.Intn(50),
		Pipelined:     rng.Intn(2) == 0,
		Split:         rng.Intn(2) == 0,
		MaxPorts:      16,
		OnChip:        onChip,
		EnergyPerByte: float64(1+rng.Intn(100)) / 1000,
		BaseGates:     1,
	}
	if !onChip {
		c.Class = connect.OffChip
	}
	return c
}

// randSyntheticConn builds a random partition of m's channels into
// clusters, each assigned a fresh synthetic component.
func randSyntheticConn(t *testing.T, rng *rand.Rand, m *mem.Architecture) *connect.Arch {
	t.Helper()
	chans := m.Channels()
	a := &connect.Arch{Channels: chans}
	var on, off []int
	for i, ch := range chans {
		if ch.OffChip {
			off = append(off, i)
		} else {
			on = append(on, i)
		}
	}
	for _, idx := range [][]int{on, off} {
		idx = append([]int(nil), idx...)
		rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for len(idx) > 0 {
			n := 1 + rng.Intn(len(idx))
			a.Clusters = append(a.Clusters, append([]int(nil), idx[:n]...))
			a.Assign = append(a.Assign, randComp(rng, !chans[idx[0]].OffChip))
			idx = idx[n:]
		}
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("synthetic arch invalid: %v", err)
	}
	return a
}

// TestReplayBatchContendedStress drives the contended-cluster bypasses
// of ReplayBatch (prefetch horizon, window slides of skipped issues,
// the one-row scheduler of dead-time off-chip clusters) with synthetic
// components far outside the library: slow, narrow buses build long
// prefetch queues whose searches slide the scheduler window and make it
// forget reservations. Every member must equal replayReference bit for
// bit, on full and windowed captures, with and without an L2. The test
// counts the contended one-row clusters that scheduled a leg, and fails
// if it drove none.
func TestReplayBatchContendedStress(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 2000)
	type capture struct {
		name string
		m    *mem.Architecture
		bt   *BehaviorTrace
	}
	var caps []capture
	for _, withL2 := range []bool{false, true} {
		m := richArch(withL2)
		for _, windowed := range []bool{false, true} {
			var windows []Window
			if windowed {
				for lo := 0; lo < tr.NumAccesses(); lo += 700 {
					windows = append(windows, Window{Lo: lo, Hi: lo + 300})
				}
			}
			bt, err := CaptureBehavior(tr, m, windows)
			if err != nil {
				t.Fatal(err)
			}
			caps = append(caps, capture{fmt.Sprintf("l2=%v windowed=%v", withL2, windowed), m, bt})
		}
	}
	var rows int
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, c := range caps {
			conns := make([]*connect.Arch, 5)
			for i := range conns {
				conns[i] = randSyntheticConn(t, rng, c.m)
			}
			batch, err := ReplayBatch(c.bt, conns)
			if err != nil {
				t.Fatal(err)
			}
			// The same replay once more, with its clusters in reach.
			b := newBatchReplayer(c.bt, conns)
			b.run()
			for a := range b.archs {
				for _, cl := range b.archs[a].clusters {
					if cl.sched.Stats().Issues == 0 {
						continue
					}
					if cl.row {
						rows++
					}
				}
			}
			for i, conn := range conns {
				want, err := replayReference(c.bt, conn)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[i], want) {
					t.Errorf("seed %d %s arch %d %+v: ReplayBatch diverged:\n got %+v\nwant %+v",
						seed, c.name, i, conn.Assign, batch[i], want)
				}
			}
		}
	}
	t.Logf("contended one-row clusters driven: %d", rows)
	if rows == 0 {
		t.Error("drove no contended one-row cluster")
	}
}

// TestReplayBatchDeadTimeWithoutDRAM: a decoded trace may give a
// direct access no DRAM latency (noDRAM) and no bytes, and Compile
// accepts both. On a zero-arbitration off-chip component that leg's
// dead time is then -1 cycles; it must hold the bus for no cycle and
// slide the scheduler's window as replayReference's stage list does.
func TestReplayBatchDeadTimeWithoutDRAM(t *testing.T) {
	m := richArch(false)
	bt, err := CaptureBehavior(workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 4000), m, nil)
	if err != nil {
		t.Fatal(err)
	}
	direct := 0
	for ci := range bt.Classes {
		if ev := &bt.Classes[ci].Event; ev.Route < 0 {
			ev.DemandDRAM, ev.Size = noDRAM, 0
			direct++
		}
	}
	if direct == 0 {
		t.Fatal("capture has no direct access")
	}
	bt.MaxBytes, bt.MaxDRAMLat = bt.eventBounds()
	if err := bt.Compile(); err != nil {
		t.Fatal(err)
	}
	ahb, err := connect.ByName(connect.Library(), "ahb32")
	if err != nil {
		t.Fatal(err)
	}
	var conns []*connect.Arch
	for _, pipelined := range []bool{false, true} {
		c := &connect.Arch{Channels: bt.Channels}
		var off []int
		for i, ch := range bt.Channels {
			if ch.OffChip {
				off = append(off, i)
				continue
			}
			c.Clusters = append(c.Clusters, []int{i})
			c.Assign = append(c.Assign, ahb)
		}
		c.Clusters = append(c.Clusters, off)
		c.Assign = append(c.Assign, connect.Component{
			Name: "zero-arb", Class: connect.OffChip, WidthBytes: 4, BeatCycles: 1,
			Pipelined: pipelined, MaxPorts: 16, EnergyPerByte: 0.01, BaseGates: 1,
		})
		conns = append(conns, c)
	}
	assertBatchExact(t, "noDRAM", bt, conns)
}
