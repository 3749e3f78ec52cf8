// Phase A of the two-phase simulator: behavior capture.
//
// The hit/miss behavior of every module in the memory IP library —
// which accesses hit, which lines are filled or written back, how much
// prefetch traffic is issued, which DRAM rows are opened — depends only
// on the access (address) sequence, never on interconnect timing.
// Timing influences only the *stall* cycles of the prefetching modules
// (stream buffers and the self-indirect DMA wait for in-flight
// fetches), and those stalls are pure functions of the replay clock and
// the architecture's fetch latency, so they can be recomputed exactly
// during connectivity replay.
//
// CaptureBehavior therefore runs the module model once per
// (trace, memory architecture, sampling plan) and records a compact
// event trace: the few distinct events (classes) and one class id per
// access. Phase B (ReplayBatch) re-times that event
// trace against any connectivity architecture without ever touching the
// module models again: per candidate it performs only bus arbitration,
// reservation-table scheduling, DRAM-latency bookkeeping and energy
// accounting. For architectures without prefetching modules the replay
// is exact; with them, the only approximation is the readiness state
// carried across sampling skip-windows (see gap resync below), which
// does not arise in full (non-sampled) runs.
package sim

import (
	"fmt"
	"unsafe"

	"memorex/internal/mem"
)

// Window is one fully simulated span of trace accesses [Lo, Hi). The
// sampling estimator passes its on-windows; a full run is one window
// covering the whole trace.
type Window struct {
	Lo, Hi int
}

// ModuleMeta is the per-module information the replay needs: static
// timing/energy figures plus the stream-buffer geometry used to
// reconstruct prefetch readiness.
type ModuleMeta struct {
	Kind    mem.Kind
	Latency int
	Energy  float64
	// LineBytes and Depth describe a stream buffer's FIFO (zero for
	// other kinds).
	LineBytes int
	Depth     int
	// Backed is true when the module has a backing channel (its fetch
	// latency depends on the connectivity architecture).
	Backed bool
}

// event flag bits.
const (
	flagHit = 1 << iota
)

// noDRAM marks an event leg that generates no DRAM transaction.
const noDRAM = int16(-1)

// Event is one recorded access: everything the replay needs to know
// about its module behavior. The fields are ordered to leave no
// padding.
type Event struct {
	Route       int16 // module index, or -1 for a direct DRAM access
	Size        uint8 // CPU access width in bytes
	Flags       uint8 // flagHit
	Stall       int32 // module-internal stall (0 for stream buffers and DMA: the replay recomputes theirs)
	DemandBytes int32 // demand traffic on the backing channel
	DemandL2Off int32 // demand traffic the L2 forwards to DRAM (L2 systems)
	PrefBytes   int32 // background prefetch traffic on the backing channel
	PrefL2Off   int32 // prefetch traffic the L2 forwards to DRAM
	DemandDRAM  int16 // DRAM latency of the demand leg (noDRAM if none)
	PrefDRAM    int16 // DRAM latency of the prefetch leg (noDRAM if none)
}

// EventClass is one distinct event of a behavior trace: the event, how
// often it occurs, and its decoded replay view.
type EventClass struct {
	Event
	Count int64
	view  access
}

// BehaviorTrace is the memoized Phase A artifact: one event per
// simulated access, stored as a table of distinct event classes plus
// one class id per event, the per-gap skip bookkeeping of the sampling
// plan, and the architecture-level constants the replay needs. It is
// immutable once captured and safe for concurrent replay.
type BehaviorTrace struct {
	// Channels is the channel list of the captured memory architecture;
	// replayed connectivity architectures must cover exactly these.
	Channels []mem.Channel
	// Modules holds the replay-relevant metadata of each module.
	Modules []ModuleMeta

	// HasL2, L2Latency and L2Energy describe the shared L2 (if any).
	HasL2     bool
	L2Latency int
	L2Energy  float64
	// DRAMRowHit and DRAMEnergy mirror the DRAM constants the exact
	// simulator uses for fetch-latency and energy accounting.
	DRAMRowHit int
	DRAMEnergy float64

	// Classes holds the distinct events in order of first occurrence;
	// IDs holds one index into Classes per simulated access, in trace
	// order. Real captures have a few dozen classes at most, so the
	// trace costs four bytes per event.
	Classes []EventClass
	IDs     []uint32

	// WindowLen[i] is the number of events of window i. GapCycles[i] is
	// the clock advance of the skip region preceding window i (0 when
	// the window starts where the previous ended; the skip clock
	// advances by behavior-determined constants, so gap lengths are
	// timing-independent). Resync carries each module's prefetch
	// activity across that gap as two int32s per module, at
	// [(i*len(Modules)+m)*2]:
	//
	//	stream buffer: [0] line refills issued since the last stream
	//	restart in the gap (the whole gap if none), [1] the restart's
	//	offset from the gap start in cycles, or -1 for no restart.
	//	The replay re-chains its queue through those refills at the
	//	actual fetch latency, reproducing the estimator's readiness
	//	drift on slow fetch paths.
	//
	//	DMA: [0] idle cycles since the last touch, [1] unused.
	WindowLen []int32
	GapCycles []int64
	Resync    []int32

	// MaxBytes and MaxDRAMLat bound the transfer sizes and DRAM
	// latencies occurring in the events (the replay sizes its dense
	// stage tables from them).
	MaxBytes   int
	MaxDRAMLat int
}

// NumEvents returns the number of recorded access events.
func (bt *BehaviorTrace) NumEvents() int { return len(bt.IDs) }

// Event returns the i-th recorded event.
func (bt *BehaviorTrace) Event(i int) Event { return bt.Classes[bt.IDs[i]].Event }

// MemoryBytes estimates the footprint of the class table, the per-event
// class ids and the window bookkeeping, for cache accounting and stats.
func (bt *BehaviorTrace) MemoryBytes() int64 {
	return int64(len(bt.IDs))*4 + int64(len(bt.Classes))*int64(unsafe.Sizeof(EventClass{})) +
		int64(len(bt.WindowLen))*4 + int64(len(bt.GapCycles))*8 + int64(len(bt.Resync))*4
}

// access is the decoded replay view of an event class: the channels
// its legs use and the figures the replay would otherwise derive from
// the event every time it occurs.
type access struct {
	cpu      int32 // CPU channel (direct DRAM channel when Route < 0); -1 if missing
	back     int32 // backing channel (-1 if none)
	topup    int32 // stream-buffer lines the event's prefetch tops up
	hit      bool
	hasDem   bool // a demand leg
	prefBack bool // a prefetch leg with a backing channel
}

// chanMap resolves the channel roles of a behavior trace's channel
// list: each module's CPU and backing channel, the direct CPU<->DRAM
// and the L2<->DRAM channel (-1 where absent).
type chanMap struct {
	cpu, back          []int32 // per module
	direct, l2DRAMChan int32
}

func newChanMap(bt *BehaviorTrace) chanMap {
	cm := chanMap{
		cpu:        make([]int32, len(bt.Modules)),
		back:       make([]int32, len(bt.Modules)),
		direct:     -1,
		l2DRAMChan: -1,
	}
	for m := range cm.cpu {
		cm.cpu[m], cm.back[m] = -1, -1
	}
	for ci, ch := range bt.Channels {
		switch ch.Kind {
		case mem.ChanCPUModule:
			cm.cpu[ch.Module] = int32(ci)
		case mem.ChanModuleDRAM, mem.ChanModuleL2:
			cm.back[ch.Module] = int32(ci)
		case mem.ChanCPUDRAM:
			cm.direct = int32(ci)
		case mem.ChanL2DRAM:
			cm.l2DRAMChan = int32(ci)
		}
	}
	return cm
}

// view decodes an event against the trace's module metadata.
func (cm *chanMap) view(bt *BehaviorTrace, ev *Event) access {
	if ev.Route < 0 {
		return access{cpu: cm.direct, back: -1}
	}
	e := access{
		cpu:    cm.cpu[ev.Route],
		back:   cm.back[ev.Route],
		hit:    ev.Flags&flagHit != 0,
		hasDem: ev.DemandBytes > 0,
	}
	e.prefBack = ev.PrefBytes > 0 && e.back != -1
	if lb := bt.Modules[ev.Route].LineBytes; lb > 0 {
		e.topup = ev.PrefBytes / int32(lb)
	}
	return e
}

// setViews decodes every class's replay view once the class table is
// complete.
func (bt *BehaviorTrace) setViews() {
	cm := newChanMap(bt)
	for i := range bt.Classes {
		bt.Classes[i].view = cm.view(bt, &bt.Classes[i].Event)
	}
}

// nominal interconnect used during capture: an AHB32-like on-chip path
// and an off32-like chip boundary. The nominal clock never influences
// recorded behavior (which is timing-independent); it only scales the
// gap-resync bookkeeping, so a mid-library shape keeps that
// approximation centred.
func nomTransfer(n int) int64 { return int64(1 + (n+3)/4) }

func nomOffChipDone(at int64, n, dramLat int) int64 {
	return at + int64(2+dramLat+(n+3)/4)
}

// buildRouteTable flattens an architecture's route map into a dense
// per-DSID table (index = DSID, value = module index or DirectDRAM).
// IDs beyond the table take the default route.
func buildRouteTable(a *mem.Architecture) ([]int16, int16) {
	maxDS := 0
	for ds := range a.Route {
		if int(ds) > maxDS {
			maxDS = int(ds)
		}
	}
	def := int16(a.Default)
	tab := make([]int16, maxDS+1)
	for i := range tab {
		tab[i] = def
	}
	for ds, r := range a.Route {
		tab[ds] = int16(r)
	}
	return tab, def
}

// eventBounds returns the largest transfer size, at least the 4-byte
// address phase of a split transaction, and the largest DRAM latency
// among the trace's events.
func (bt *BehaviorTrace) eventBounds() (maxBytes, maxDRAMLat int) {
	maxBytes = 4
	for ci := range bt.Classes {
		ev := &bt.Classes[ci].Event
		maxBytes = max(maxBytes, int(ev.Size), int(ev.DemandBytes), int(ev.DemandL2Off), int(ev.PrefBytes), int(ev.PrefL2Off))
		maxDRAMLat = max(maxDRAMLat, int(ev.DemandDRAM), int(ev.PrefDRAM))
	}
	return maxBytes, maxDRAMLat
}

// Bounds a compiled trace may declare. Captures record far smaller
// values; the bounds keep a forged cache entry from sizing the replay's
// per-byte tables or stream queues beyond reason.
const (
	maxTransferBytes = 1 << 16
	maxStreamDepth   = 1 << 16
)

// Compile validates a trace whose fields, class table, ids and windows
// included, are set, and derives each class's Count and replay view:
// the decoder's counterpart of CaptureBehavior, with a fixed amount of
// work per class, per id and per window. It is the one definition of a
// valid behavior trace. It validates everything the replay indexes by:
// channel module indices and routes in range, channel kinds that agree
// with HasL2 (an L2 trace backs its modules through the L2, so it lists
// no module-DRAM channel; a trace without one lists no module-L2 or
// L2-DRAM channel), module kinds among mem.Kind's five, stream geometry
// positive, module, L2 and DRAM latencies and stalls not negative,
// transfer sizes in [0, MaxBytes], DRAM latencies noDRAM or in
// [0, MaxDRAMLat], MaxBytes and MaxDRAMLat exactly the bounds a capture
// records for these events, every channel an event uses listed, every
// id in range, with the ids introducing the classes in first-occurrence
// order, the order capture assigns (so every class is used), one gap
// per window and two resync records per window and module, and window
// lengths not negative that sum to the event count. It does not check that the classes are
// distinct: a repeated class replays like the one it repeats.
func (bt *BehaviorTrace) Compile() error {
	nm := len(bt.Modules)
	for ci, ch := range bt.Channels {
		switch ch.Kind {
		case mem.ChanCPUModule, mem.ChanModuleDRAM, mem.ChanModuleL2:
			if ch.Module < 0 || ch.Module >= nm {
				return fmt.Errorf("sim: channel %d names module %d of %d", ci, ch.Module, nm)
			}
		}
		l2Kind := ch.Kind == mem.ChanModuleL2 || ch.Kind == mem.ChanL2DRAM
		if (ch.Kind == mem.ChanModuleDRAM && bt.HasL2) || (l2Kind && !bt.HasL2) {
			return fmt.Errorf("sim: channel %d is a %v channel, but HasL2 is %v", ci, ch.Kind, bt.HasL2)
		}
	}
	for mi, m := range bt.Modules {
		if m.Kind < mem.KindCache || m.Kind > mem.KindDRAM {
			return fmt.Errorf("sim: module %d has unknown kind %d", mi, int(m.Kind))
		}
		if m.Latency < 0 {
			return fmt.Errorf("sim: module %d has latency %d", mi, m.Latency)
		}
		if m.Kind == mem.KindStream && (m.LineBytes <= 0 || m.Depth <= 0 || m.Depth > maxStreamDepth) {
			return fmt.Errorf("sim: stream module %d has line %d bytes, depth %d", mi, m.LineBytes, m.Depth)
		}
	}
	if bt.L2Latency < 0 || bt.DRAMRowHit < 0 {
		return fmt.Errorf("sim: L2 latency %d, DRAM row hit %d cycles", bt.L2Latency, bt.DRAMRowHit)
	}
	if bt.MaxBytes > maxTransferBytes {
		return fmt.Errorf("sim: transfer bound %d exceeds %d bytes", bt.MaxBytes, maxTransferBytes)
	}
	for ci := range bt.Classes {
		bt.Classes[ci].Count = 0
		ev := &bt.Classes[ci].Event
		if ev.Route < -1 || int(ev.Route) >= nm {
			return fmt.Errorf("sim: event class %d routes to module %d of %d", ci, ev.Route, nm)
		}
		if min(ev.Stall, ev.DemandBytes, ev.DemandL2Off, ev.PrefBytes, ev.PrefL2Off) < 0 || min(ev.DemandDRAM, ev.PrefDRAM) < noDRAM {
			return fmt.Errorf("sim: event class %d has a negative stall, byte count or DRAM latency", ci)
		}
	}
	var next uint32 // the id of the first class no event has used yet
	for i, id := range bt.IDs {
		if id > next || id >= uint32(len(bt.Classes)) {
			return fmt.Errorf("sim: event %d has class %d, but the next new class is %d of %d", i, id, next, len(bt.Classes))
		}
		if id == next {
			next++
		}
		bt.Classes[id].Count++
	}
	if int(next) != len(bt.Classes) {
		return fmt.Errorf("sim: class %d of %d is never used", next, len(bt.Classes))
	}
	// With nothing negative, bounds equal to the events' maxima put every
	// byte count in [0, MaxBytes] and every DRAM latency in
	// [noDRAM, MaxDRAMLat].
	if maxBytes, maxDRAM := bt.eventBounds(); maxBytes != bt.MaxBytes || maxDRAM != bt.MaxDRAMLat {
		return fmt.Errorf("sim: declared bounds %d bytes, %d DRAM cycles; the events need %d, %d",
			bt.MaxBytes, bt.MaxDRAMLat, maxBytes, maxDRAM)
	}
	if want := len(bt.WindowLen) * nm * 2; len(bt.Resync) != want || len(bt.GapCycles) != len(bt.WindowLen) {
		return fmt.Errorf("sim: %d resync records and %d gaps for %d windows of %d modules",
			len(bt.Resync), len(bt.GapCycles), len(bt.WindowLen), nm)
	}
	var events int64
	for _, wl := range bt.WindowLen {
		if wl < 0 {
			return fmt.Errorf("sim: negative window length %d", wl)
		}
		events += int64(wl)
	}
	if events != int64(len(bt.IDs)) {
		return fmt.Errorf("sim: window lengths sum to %d events, the trace holds %d", events, len(bt.IDs))
	}
	bt.setViews()
	// A capture lists the CPU channel of every module an event uses and
	// the backing channel of every module with a demand leg; a forged
	// entry need not.
	for ci := range bt.Classes {
		if e := &bt.Classes[ci].view; e.cpu < 0 || (e.hasDem && e.back < 0) {
			return fmt.Errorf("sim: event class %d uses a channel the behavior trace does not list", ci)
		}
	}
	return nil
}
