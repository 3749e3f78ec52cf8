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
// struct-of-arrays event trace. Phase B (ReplayBatch) re-times that event
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

// BehaviorTrace is the memoized Phase A artifact: one event per
// simulated access, stored as parallel flat arrays, plus the per-gap
// skip bookkeeping of the sampling plan and the architecture-level
// constants the replay needs. It is immutable once captured and safe
// for concurrent replay.
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

	// Per-event arrays (one entry per simulated access, in trace order).
	Route       []int16 // module index, or -1 for a direct DRAM access
	Size        []uint8 // CPU access width in bytes
	Flags       []uint8 // flagHit
	Stall       []int32 // module-internal stall (used for non-prefetching kinds)
	DemandBytes []int32 // demand traffic on the backing channel
	DemandL2Off []int32 // demand traffic the L2 forwards to DRAM (L2 systems)
	DemandDRAM  []int16 // DRAM latency of the demand leg (noDRAM if none)
	PrefBytes   []int32 // background prefetch traffic on the backing channel
	PrefL2Off   []int32 // prefetch traffic the L2 forwards to DRAM
	PrefDRAM    []int16 // DRAM latency of the prefetch leg (noDRAM if none)

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
func (bt *BehaviorTrace) NumEvents() int { return len(bt.Route) }

// MemoryBytes estimates the footprint of the event arrays, for cache
// accounting and stats.
func (bt *BehaviorTrace) MemoryBytes() int64 {
	per := int64(2 + 1 + 1 + 4 + 4 + 4 + 2 + 4 + 4 + 2)
	return int64(len(bt.Route))*per + int64(len(bt.Resync))*4 + int64(len(bt.GapCycles))*8
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
// table, and the trace being recorded.
type capture struct {
	arch     *mem.Architecture
	routeTab []int16
	routeDef int16
	bt       *BehaviorTrace
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
	bt.MaxBytes = 4 // split-transaction address phase

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

	bt.Route = make([]int16, 0, total)
	bt.Size = make([]uint8, 0, total)
	bt.Flags = make([]uint8, 0, total)
	bt.Stall = make([]int32, 0, total)
	bt.DemandBytes = make([]int32, 0, total)
	bt.DemandL2Off = make([]int32, 0, total)
	bt.DemandDRAM = make([]int16, 0, total)
	bt.PrefBytes = make([]int32, 0, total)
	bt.PrefL2Off = make([]int32, 0, total)
	bt.PrefDRAM = make([]int16, 0, total)
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
	return bt, nil
}

// routeOf returns the module index serving ds (DirectDRAM for none).
func (c *capture) routeOf(ds trace.DSID) int16 {
	if int(ds) < len(c.routeTab) {
		return c.routeTab[ds]
	}
	return c.routeDef
}

// noteBytes keeps the transfer-size and DRAM-latency bounds current.
func (c *capture) noteBytes(n int) {
	if n > c.bt.MaxBytes {
		c.bt.MaxBytes = n
	}
}

func (c *capture) noteDRAM(lat int) int16 {
	if lat > c.bt.MaxDRAMLat {
		c.bt.MaxDRAMLat = lat
	}
	return int16(lat)
}

// record simulates one access at nominal timing and appends its event.
func (c *capture) record(a trace.Access) {
	bt := c.bt
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
		demDRAM = c.noteDRAM(dramLat)
		c.noteBytes(int(a.Size))
		lat = nomOffChipDone(c.now, int(a.Size), dramLat) - c.now
	} else {
		m := c.arch.Modules[route]
		t := c.now + nomTransfer(int(a.Size))
		c.noteBytes(int(a.Size))
		r := m.Access(a, t)
		t += int64(m.Latency() + r.Stall)
		stall = int32(r.Stall)
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
	bt.Route = append(bt.Route, route)
	bt.Size = append(bt.Size, a.Size)
	bt.Flags = append(bt.Flags, flags)
	bt.Stall = append(bt.Stall, stall)
	bt.DemandBytes = append(bt.DemandBytes, demBytes)
	bt.DemandL2Off = append(bt.DemandL2Off, demL2)
	bt.DemandDRAM = append(bt.DemandDRAM, demDRAM)
	bt.PrefBytes = append(bt.PrefBytes, prefBytes)
	bt.PrefL2Off = append(bt.PrefL2Off, prefL2)
	bt.PrefDRAM = append(bt.PrefDRAM, prefDRAM)
	c.now += lat + 1
}

// backing mirrors Simulator.backingTransaction at nominal timing,
// returning the completion cycle plus the recorded L2 forwarding bytes
// and DRAM latency of the leg.
func (c *capture) backing(n int, a trace.Access, at int64) (int64, int32, int16) {
	c.noteBytes(n)
	if c.arch.L2 == nil {
		dramLat := c.arch.DRAM.AccessLatency(a.Addr)
		return nomOffChipDone(at, n, dramLat), 0, c.noteDRAM(dramLat)
	}
	t := at + nomTransfer(n)
	lr := c.arch.L2.Access(a, t)
	t += int64(c.arch.L2.Latency() + lr.Stall)
	if lr.OffChipBytes > 0 {
		c.noteBytes(lr.OffChipBytes)
		dramLat := c.arch.DRAM.AccessLatency(a.Addr)
		return nomOffChipDone(t, lr.OffChipBytes, dramLat), int32(lr.OffChipBytes), c.noteDRAM(dramLat)
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
