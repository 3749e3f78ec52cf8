// captureReference is the one-pass Phase A capture that
// CaptureBehavior must agree with under reflect.DeepEqual. It is the
// original capture loop, kept in the tests as the reference for
// TestCaptureMatchesReference: every access runs through its module's
// Access in trace order at the nominal clock, and every event is
// interned through the hashed class table (classes_test.go).
package sim

import (
	"fmt"

	"memorex/internal/mem"
	"memorex/internal/trace"
)

// refCapture drives Phase A: a cloned memory architecture, the dense route
// table, and the trace being recorded with its class interner.
type refCapture struct {
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

// captureReference runs the memory-module model over the given
// on-windows of the trace (nil = one window covering everything) and
// returns the recorded event trace. The architecture is cloned, so the
// caller's module state is untouched.
func captureReference(t *trace.Trace, memArch *mem.Architecture, windows []Window) (*BehaviorTrace, error) {
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
	c := &refCapture{arch: arch, bt: &BehaviorTrace{Channels: memArch.Channels()}}
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

// routeOf returns the module index serving ds (DirectDRAM for none).
func (c *refCapture) routeOf(ds trace.DSID) int16 {
	if int(ds) < len(c.routeTab) {
		return c.routeTab[ds]
	}
	return c.routeDef
}

// record simulates one access at nominal timing and appends its event.
func (c *refCapture) record(a trace.Access) {
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
func (c *refCapture) backing(n int, a trace.Access, at int64) (int64, int32, int16) {
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
func (c *refCapture) skip(t *trace.Trace, lo, hi int) {
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
func (c *refCapture) resync(out []int32) {
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
