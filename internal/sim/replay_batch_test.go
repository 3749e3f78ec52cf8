package sim

import (
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

// TestChannelSignatures pins the per-channel signature contract: a
// signature changes exactly when the channel's timing (component
// parameters or cluster sharing) changes, and never with labels or
// area/port metadata.
func TestChannelSignatures(t *testing.T) {
	m := richArch(false)
	a := buildConnT(t, m, "ahb32", "off32")
	b := buildConnT(t, m, "ahb32", "off32")
	if !reflect.DeepEqual(ChannelSignatures(a), ChannelSignatures(b)) {
		t.Fatal("independently built identical archs have different signatures")
	}

	// Reordering clusters must not move any channel's signature: the
	// signature is indexed by channel, not by cluster position.
	r := buildConnT(t, m, "ahb32", "off32")
	for i, j := 0, len(r.Clusters)-1; i < j; i, j = i+1, j-1 {
		r.Clusters[i], r.Clusters[j] = r.Clusters[j], r.Clusters[i]
		r.Assign[i], r.Assign[j] = r.Assign[j], r.Assign[i]
	}
	if !reflect.DeepEqual(ChannelSignatures(a), ChannelSignatures(r)) {
		t.Fatal("cluster reordering changed per-channel signatures")
	}

	// Non-timing metadata is excluded.
	meta := buildConnT(t, m, "ahb32", "off32")
	meta.Assign[0].Name = "renamed"
	meta.Assign[0].MaxPorts += 3
	meta.Assign[0].BaseGates += 100
	meta.Assign[0].GatesPerPort += 10
	if !reflect.DeepEqual(ChannelSignatures(a), ChannelSignatures(meta)) {
		t.Fatal("non-timing component fields leaked into the signature")
	}

	// Every timing parameter must flip the owning cluster's channels —
	// and only those.
	mutations := []struct {
		name string
		mut  func(*connect.Component)
	}{
		{"width", func(c *connect.Component) { c.WidthBytes *= 2 }},
		{"arb", func(c *connect.Component) { c.ArbCycles++ }},
		{"beat", func(c *connect.Component) { c.BeatCycles++ }},
		{"pipelined", func(c *connect.Component) { c.Pipelined = !c.Pipelined }},
		{"split", func(c *connect.Component) { c.Split = !c.Split }},
		{"epb", func(c *connect.Component) { c.EnergyPerByte += 0.001 }},
	}
	base := ChannelSignatures(a)
	for _, mu := range mutations {
		mod := buildConnT(t, m, "ahb32", "off32")
		mu.mut(&mod.Assign[0])
		got := ChannelSignatures(mod)
		for ch := range got {
			inCluster := false
			for _, c := range mod.Clusters[0] {
				if c == ch {
					inCluster = true
				}
			}
			if inCluster && got[ch] == base[ch] {
				t.Errorf("%s: mutated cluster channel %d kept its signature", mu.name, ch)
			}
			if !inCluster && got[ch] != base[ch] {
				t.Errorf("%s: untouched channel %d changed signature", mu.name, ch)
			}
		}
	}

	// Cluster membership is part of the signature: merging two channels
	// onto one component changes their sharing, hence their timing.
	shared := &connect.Arch{Channels: m.Channels()}
	var on, off []int
	for i, ch := range shared.Channels {
		if ch.OffChip {
			off = append(off, i)
		} else {
			on = append(on, i)
		}
	}
	lib := connect.Library()
	ahb, err := connect.ByName(lib, "ahb32")
	if err != nil {
		t.Fatal(err)
	}
	off32, err := connect.ByName(lib, "off32")
	if err != nil {
		t.Fatal(err)
	}
	shared.Clusters = [][]int{on, off}
	shared.Assign = []connect.Component{ahb, off32}
	if err := shared.Validate(); err != nil {
		t.Fatal(err)
	}
	got := ChannelSignatures(shared)
	for _, ch := range on {
		if got[ch] == base[ch] {
			t.Errorf("channel %d: merging clusters did not change the signature", ch)
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
