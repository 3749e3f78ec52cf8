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
	"memorex/internal/trace"
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

// classTable interns events into a trace's class table while capture
// records it, through an open-addressing hash table of class ids over
// packed event keys; a key comparison is one branch. Checking the
// previous event's class first was measured slower: in real traces
// consecutive events alternate between classes often enough that the
// mispredicted check cost more than the hash it saved. The table is
// dropped once the trace is complete.
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

// setViews decodes every class's replay view once the class table is
// complete.
func (bt *BehaviorTrace) setViews() {
	cm := newChanMap(bt)
	for i := range bt.Classes {
		bt.Classes[i].view = cm.view(bt, &bt.Classes[i].Event)
	}
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

// capture drives Phase A: a cloned memory architecture, the dense route
// table, and the trace being recorded with its class interner.
type capture struct {
	arch     *mem.Architecture
	routeTab []int16
	routeDef int16
	bt       *BehaviorTrace
	classes  *classTable
	now      int64
	// Per-module stream bookkeeping of the current skip gap: line
	// fetches issued since the last restart, and the restart's clock
	// (-1 when the gap has none).
	refills   []int32
	gapStart  int64
	lastReset []int64
}

// CaptureBehavior runs the memory-module model over the given
// on-windows of the trace (nil = one window covering everything) and
// returns the recorded event trace. The architecture is cloned, so the
// caller's module state is untouched.
func CaptureBehavior(t *trace.Trace, memArch *mem.Architecture, windows []Window) (*BehaviorTrace, error) {
	if err := memArch.Validate(); err != nil {
		return nil, err
	}
	n := t.NumAccesses()
	if len(windows) == 0 {
		windows = []Window{{0, n}}
	}
	pos := 0
	total := 0
	for _, w := range windows {
		if w.Lo < pos || w.Hi > n || w.Lo > w.Hi {
			return nil, fmt.Errorf("sim: capture window [%d,%d) out of order (trace has %d accesses)", w.Lo, w.Hi, n)
		}
		pos = w.Hi
		total += w.Hi - w.Lo
	}

	arch := memArch.Clone()
	c := &capture{arch: arch, bt: &BehaviorTrace{Channels: memArch.Channels()}}
	c.routeTab, c.routeDef = buildRouteTable(arch)
	bt := c.bt
	bt.Modules = make([]ModuleMeta, len(arch.Modules))
	for i, m := range arch.Modules {
		meta := ModuleMeta{Kind: m.Kind(), Latency: m.Latency(), Energy: m.Energy()}
		if sb, ok := m.(*mem.StreamBuffer); ok {
			meta.LineBytes = sb.LineBytes
			meta.Depth = sb.Depth
		}
		switch m.Kind() {
		case mem.KindCache, mem.KindStream, mem.KindDMA:
			meta.Backed = true
		}
		bt.Modules[i] = meta
	}
	if arch.L2 != nil {
		bt.HasL2 = true
		bt.L2Latency = arch.L2.Latency()
		bt.L2Energy = arch.L2.Energy()
	}
	bt.DRAMRowHit = arch.DRAM.RowHitCycles
	bt.DRAMEnergy = arch.DRAM.Energy()

	// Nominal fetch latency, mirroring sim.New's readiness wiring.
	nomFetch := int(nomTransfer(32))
	if arch.L2 != nil {
		nomFetch += arch.L2.Latency()
	} else {
		nomFetch += arch.DRAM.RowHitCycles
	}
	for i, m := range arch.Modules {
		if bt.Modules[i].Backed {
			m.SetFetchLatency(nomFetch)
		}
	}

	c.classes = newClassTable(bt, total)
	bt.WindowLen = make([]int32, len(windows))
	bt.GapCycles = make([]int64, len(windows))
	bt.Resync = make([]int32, len(windows)*len(arch.Modules)*2)

	pos = 0
	nm := len(arch.Modules)
	for wi, w := range windows {
		if w.Lo > pos {
			start := c.now
			c.skip(t, pos, w.Lo)
			bt.GapCycles[wi] = c.now - start
			c.resync(bt.Resync[wi*nm*2 : (wi+1)*nm*2])
		}
		for i := w.Lo; i < w.Hi; i++ {
			c.record(t.Accesses[i])
		}
		bt.WindowLen[wi] = int32(w.Hi - w.Lo)
		pos = w.Hi
	}
	bt.setViews()
	bt.MaxBytes, bt.MaxDRAMLat = bt.eventBounds()
	return bt, nil
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

// Compile validates a trace whose fields, class table and ids included,
// are set, and derives each class's Count and replay view: the
// decoder's counterpart of CaptureBehavior, with a fixed amount of work
// per class and per id. It validates everything the replay indexes by:
// channel module
// indices and routes in range, module kinds among mem.Kind's five,
// stream geometry positive, module, L2 and DRAM latencies and stalls
// not negative, transfer sizes in [0, MaxBytes], DRAM latencies noDRAM
// or in [0, MaxDRAMLat], MaxBytes and MaxDRAMLat exactly the bounds a
// capture records for these events, every channel an event uses
// listed, and every id in range, with the ids introducing the classes
// in first-occurrence order, the order capture assigns (so every class
// is used). It does not check that the classes are distinct: a repeated
// class replays like the one it repeats.
func (bt *BehaviorTrace) Compile() error {
	nm := len(bt.Modules)
	for ci, ch := range bt.Channels {
		switch ch.Kind {
		case mem.ChanCPUModule, mem.ChanModuleDRAM, mem.ChanModuleL2:
			if ch.Module < 0 || ch.Module >= nm {
				return fmt.Errorf("sim: channel %d names module %d of %d", ci, ch.Module, nm)
			}
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

// routeOf returns the module index serving ds (DirectDRAM for none).
func (c *capture) routeOf(ds trace.DSID) int16 {
	if int(ds) < len(c.routeTab) {
		return c.routeTab[ds]
	}
	return c.routeDef
}

// record simulates one access at nominal timing and appends its event.
func (c *capture) record(a trace.Access) {
	route := c.routeOf(a.DS)
	var (
		flags                              uint8
		stall                              int32
		demBytes, demL2, prefBytes, prefL2 int32
		demDRAM, prefDRAM                  = noDRAM, noDRAM
	)
	var lat int64
	if route < 0 {
		dramLat := c.arch.DRAM.AccessLatency(a.Addr)
		demDRAM = int16(dramLat)
		lat = nomOffChipDone(c.now, int(a.Size), dramLat) - c.now
	} else {
		m := c.arch.Modules[route]
		t := c.now + nomTransfer(int(a.Size))
		r := m.Access(a, t)
		t += int64(m.Latency() + r.Stall)
		// Stream and DMA stalls depend on timing and the replay
		// recomputes them, so only the other kinds' stalls are recorded
		// (which also keeps the class table small).
		if k := c.bt.Modules[route].Kind; k != mem.KindStream && k != mem.KindDMA {
			stall = int32(r.Stall)
		}
		if r.Hit {
			flags |= flagHit
		}
		if r.OffChipBytes > 0 {
			demBytes = int32(r.OffChipBytes)
			t, demL2, demDRAM = c.backing(r.OffChipBytes, a, t)
		}
		if r.PrefetchBytes > 0 {
			prefBytes = int32(r.PrefetchBytes)
			pf := a
			pf.Addr += 64
			_, prefL2, prefDRAM = c.backing(r.PrefetchBytes, pf, t)
		}
		lat = t - c.now
	}
	c.classes.add(&Event{
		Route: route, Size: a.Size, Flags: flags, Stall: stall,
		DemandBytes: demBytes, DemandL2Off: demL2, DemandDRAM: demDRAM,
		PrefBytes: prefBytes, PrefL2Off: prefL2, PrefDRAM: prefDRAM,
	})
	c.now += lat + 1
}

// backing mirrors Simulator.backingTransaction at nominal timing,
// returning the completion cycle plus the recorded L2 forwarding bytes
// and DRAM latency of the leg.
func (c *capture) backing(n int, a trace.Access, at int64) (int64, int32, int16) {
	if c.arch.L2 == nil {
		dramLat := c.arch.DRAM.AccessLatency(a.Addr)
		return nomOffChipDone(at, n, dramLat), 0, int16(dramLat)
	}
	t := at + nomTransfer(n)
	lr := c.arch.L2.Access(a, t)
	t += int64(c.arch.L2.Latency() + lr.Stall)
	if lr.OffChipBytes > 0 {
		dramLat := c.arch.DRAM.AccessLatency(a.Addr)
		return nomOffChipDone(t, lr.OffChipBytes, dramLat), int32(lr.OffChipBytes), int16(dramLat)
	}
	return t, 0, noDRAM
}

// skip mirrors Simulator.SkipWindow: cheap hit/miss bookkeeping that
// keeps module and L2 state warm through an off-sampling region. Stream
// line refills and restarts are tallied per module for the gap resync.
func (c *capture) skip(t *trace.Trace, lo, hi int) {
	if c.refills == nil {
		c.refills = make([]int32, len(c.arch.Modules))
		c.lastReset = make([]int64, len(c.arch.Modules))
	}
	for i := range c.refills {
		c.refills[i] = 0
		c.lastReset[i] = -1
	}
	c.gapStart = c.now
	for i := lo; i < hi; i++ {
		a := t.Accesses[i]
		route := c.routeOf(a.DS)
		if route < 0 {
			c.now += 8
			continue
		}
		m := c.arch.Modules[route]
		r := m.Access(a, c.now)
		if c.bt.Modules[route].Kind == mem.KindStream {
			if !r.Hit {
				// Restart: the stream's readiness chain re-anchors here.
				c.refills[route] = 0
				c.lastReset[route] = c.now
			}
			if lb := c.bt.Modules[route].LineBytes; lb > 0 && r.PrefetchBytes > 0 {
				c.refills[route] += int32(r.PrefetchBytes / lb)
			}
		}
		if r.Hit {
			c.now += int64(m.Latency()) + 2
		} else {
			if c.arch.L2 != nil && r.OffChipBytes > 0 {
				c.arch.L2.Access(a, c.now)
			}
			c.now += 16
		}
	}
}

// resync records each prefetching module's gap activity: stream buffers
// report their refill count since the last restart plus the restart's
// position (their readiness chain is rebuilt by the replay, in its own
// clock and at the actual fetch latency), DMA modules how long ago they
// were last touched.
func (c *capture) resync(out []int32) {
	for i, m := range c.arch.Modules {
		switch mod := m.(type) {
		case *mem.StreamBuffer:
			out[2*i] = c.refills[i]
			if c.lastReset[i] >= 0 {
				off := c.lastReset[i] - c.gapStart
				if off > 1<<30 {
					off = 1 << 30
				}
				out[2*i+1] = int32(off)
			} else {
				out[2*i+1] = -1
			}
		case *mem.SelfIndirectDMA:
			idle := mod.SinceLastTouch(c.now)
			if idle > 1<<30 {
				idle = 1 << 30
			}
			out[2*i] = int32(idle)
		}
	}
}
