package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/workload"
)

// randomEvents draws n events for bt's architecture that a capture
// could have recorded: every off-chip leg carries a DRAM latency, a
// prefetch leg only on a prefetching module, an L2 forward only in an
// L2 system. Without prefetch, events route only to the cache (module
// 0) and to DRAM directly.
func randomEvents(rng *rand.Rand, bt *BehaviorTrace, n int, prefetch bool) []Event {
	leg := func() (bytes, l2off int32, dram int16) {
		if rng.Intn(2) == 0 {
			return 0, 0, noDRAM
		}
		bytes, dram = int32(1+rng.Intn(96)), noDRAM
		if bt.HasL2 && rng.Intn(2) == 0 {
			l2off = int32(1 + rng.Intn(64))
		}
		if !bt.HasL2 || l2off > 0 {
			dram = int16(rng.Intn(40))
		}
		return bytes, l2off, dram
	}
	evs := make([]Event, n)
	for i := range evs {
		ev := &evs[i]
		ev.Size = uint8(1 + rng.Intn(8))
		ev.DemandDRAM, ev.PrefDRAM = noDRAM, noDRAM
		switch {
		case rng.Intn(8) == 0:
			ev.Route = -1
		case prefetch:
			ev.Route = int16(rng.Intn(len(bt.Modules)))
		}
		if ev.Route < 0 {
			ev.DemandDRAM = int16(rng.Intn(40))
			continue
		}
		ev.Flags = uint8(rng.Intn(2))
		ev.Stall = int32(rng.Intn(1 << 20))
		ev.DemandBytes, ev.DemandL2Off, ev.DemandDRAM = leg()
		if prefetch && ev.Route > 0 {
			ev.PrefBytes, ev.PrefL2Off, ev.PrefDRAM = leg()
		}
	}
	return evs
}

// TestManyClassTrace drives the class table far past real captures
// (which have at most a few dozen classes) and past any 16-bit class
// id: random in-bounds events with over 70,000 distinct classes,
// interned by the hashed class table below, must pass Compile and come back
// from the trace unchanged, and ReplayBatch must
// equal replayReference bit for bit on contended and uncontended
// architectures, on full and windowed traces, with and without an L2.
func TestManyClassTrace(t *testing.T) {
	const n, minClasses = 100_000, 70_000
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 100)
	rng := rand.New(rand.NewSource(19))
	for _, withL2 := range []bool{false, true} {
		m := richArch(withL2)
		shape, err := CaptureBehavior(tr, m, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range []struct {
			prefetch, windowed bool
		}{{true, false}, {true, true}, {false, false}} {
			name := fmt.Sprintf("l2=%v prefetch=%v windowed=%v", withL2, v.prefetch, v.windowed)
			bt := &BehaviorTrace{
				Channels: shape.Channels, Modules: shape.Modules,
				HasL2: shape.HasL2, L2Latency: shape.L2Latency, L2Energy: shape.L2Energy,
				DRAMRowHit: shape.DRAMRowHit, DRAMEnergy: shape.DRAMEnergy,
				MaxBytes: 4,
			}
			evs := randomEvents(rng, bt, n, v.prefetch)
			for _, ev := range evs {
				bt.MaxBytes = max(bt.MaxBytes, int(ev.Size), int(ev.DemandBytes), int(ev.DemandL2Off), int(ev.PrefBytes), int(ev.PrefL2Off))
				bt.MaxDRAMLat = max(bt.MaxDRAMLat, int(ev.DemandDRAM), int(ev.PrefDRAM))
			}
			windows := 1
			if v.windowed {
				windows = 8
			}
			nm := len(bt.Modules)
			bt.Resync = make([]int32, windows*nm*2)
			for w := 0; w < windows; w++ {
				bt.WindowLen = append(bt.WindowLen, int32(n/windows))
				gap := int64(0)
				if w > 0 {
					gap = 1 + rng.Int63n(5000)
				}
				bt.GapCycles = append(bt.GapCycles, gap)
				for mi, meta := range bt.Modules {
					rs := bt.Resync[(w*nm+mi)*2:]
					switch meta.Kind {
					case mem.KindStream:
						rs[0], rs[1] = int32(rng.Intn(20)), -1
						if gap > 0 && rng.Intn(2) == 0 {
							rs[1] = int32(rng.Int63n(gap))
						}
					case mem.KindDMA:
						rs[0] = int32(rng.Intn(1000))
					}
				}
			}
			ct := newClassTable(bt, n)
			for i := range evs {
				ct.add(&evs[i])
			}
			if err := bt.Compile(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(bt.Classes) <= minClasses {
				t.Fatalf("%s: %d classes, want more than %d", name, len(bt.Classes), minClasses)
			}
			for i := range evs {
				if got := bt.Event(i); got != evs[i] {
					t.Fatalf("%s: event %d came back as %+v, want %+v", name, i, got, evs[i])
				}
			}
			conns := []*connect.Arch{randConn(t, rng, m), randSyntheticConn(t, rng, m), randSyntheticConn(t, rng, m)}
			batch, err := ReplayBatch(bt, conns)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, c := range conns {
				want, err := replayReference(bt, c)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(batch[i], want) {
					t.Errorf("%s arch %d: ReplayBatch diverged:\n got %+v\nwant %+v", name, i, batch[i], want)
				}
			}
		}
	}
}

// classTable interns events into a trace's class table, through an
// open-addressing hash table of class ids over packed event keys; a key
// comparison is one branch. It is the one-pass capture's interner, kept
// for captureReference and for building the synthetic traces of
// TestManyClassTrace; CaptureBehavior maps events to classes through
// dense code tables instead.
type classTable struct {
	bt    *BehaviorTrace
	keys  []eventKey // class id -> packed event
	slots []uint32   // class id + 1, 0 for an empty slot
}

func newClassTable(bt *BehaviorTrace, events int) *classTable {
	bt.Classes = nil
	bt.IDs = make([]uint32, 0, events)
	return &classTable{bt: bt, slots: make([]uint32, 64)}
}

// add appends ev as the trace's next event.
func (ct *classTable) add(ev *Event) {
	id := ct.lookup(ev)
	ct.bt.Classes[id].Count++
	ct.bt.IDs = append(ct.bt.IDs, id)
}

// lookup returns the class id of ev, adding a class on first sight.
func (ct *classTable) lookup(ev *Event) uint32 {
	k := ev.key()
	if 2*(len(ct.keys)+1) > len(ct.slots) {
		ct.slots = make([]uint32, 2*len(ct.slots))
		for id := range ct.keys {
			ct.slots[ct.free(&ct.keys[id])] = uint32(id) + 1
		}
	}
	mask := uint32(len(ct.slots) - 1)
	for i := k.hash() & mask; ; i = (i + 1) & mask {
		s := ct.slots[i]
		if s == 0 {
			id := uint32(len(ct.keys))
			ct.keys = append(ct.keys, k)
			ct.bt.Classes = append(ct.bt.Classes, EventClass{Event: *ev})
			ct.slots[i] = id + 1
			return id
		}
		if ct.keys[s-1].eq(&k) {
			return s - 1
		}
	}
}

// free returns the first empty slot of k's probe sequence.
func (ct *classTable) free(k *eventKey) uint32 {
	mask := uint32(len(ct.slots) - 1)
	i := k.hash() & mask
	for ct.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// eventKey packs every field of an event into four words.
type eventKey struct{ a, b, c, d uint64 }

func (ev *Event) key() eventKey {
	return eventKey{
		a: uint64(uint16(ev.Route)) | uint64(ev.Size)<<16 | uint64(ev.Flags)<<24 | uint64(uint32(ev.Stall))<<32,
		b: uint64(uint32(ev.DemandBytes)) | uint64(uint32(ev.DemandL2Off))<<32,
		c: uint64(uint32(ev.PrefBytes)) | uint64(uint32(ev.PrefL2Off))<<32,
		d: uint64(uint16(ev.DemandDRAM)) | uint64(uint16(ev.PrefDRAM))<<16,
	}
}

// eq compares two keys without a branch per word.
func (k *eventKey) eq(o *eventKey) bool {
	return (k.a^o.a)|(k.b^o.b)|(k.c^o.c)|(k.d^o.d) == 0
}

// hash mixes the key's words with four independent multiplies.
func (k *eventKey) hash() uint32 {
	h := k.a*0x9e3779b97f4a7c15 + k.b*0xc2b2ae3d27d4eb4f + k.c*0x165667b19e3779f9 + k.d*0xd6e8feb86659fd93
	return uint32(h >> 32)
}
