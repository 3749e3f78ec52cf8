// replayReference is the one-architecture, one-pass connectivity
// replay that ReplayBatch must agree with bit for bit. It is the
// original Phase B kernel, kept in the tests as the reference for
// TestReplayBatchMatchesReplay and TestReplayBatchProperty.
//
// It consumes the event trace captured by CaptureBehavior and re-times
// it against one connectivity architecture. The hot loop performs only
// the connectivity-dependent work — bus arbitration through the
// reservation-table schedulers, transfer and DRAM-latency arithmetic,
// and energy accounting — with all module behavior read event by event
// through BehaviorTrace.Event. Routes, per-channel components and reservation-stage
// lists are resolved through dense precomputed tables.
//
// Prefetch stalls (stream buffers, self-indirect DMA) are recomputed in
// the replay's own clock from the recorded prefetch structure and the
// replayed architecture's actual fetch latency, exactly as the modules
// themselves would; see behavior.go for the one sampling-mode
// approximation.
package sim

import (
	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/rtable"
)

// replayReference re-times a captured behavior trace against the given
// connectivity architecture and returns the accumulated result, exactly
// shaped like Simulator.Run's.
func replayReference(bt *BehaviorTrace, connArch *connect.Arch) (*Result, error) {
	if err := checkReplayArch(bt, connArch); err != nil {
		return nil, err
	}
	r := newReplayer(bt, connArch)
	r.run()
	res := r.res
	return &res, nil
}

// replayer holds the per-run state of one connectivity replay.
type replayer struct {
	bt   *BehaviorTrace
	conn *connect.Arch

	scheds    []*rtable.Scheduler
	clusterOf []int32 // channel -> cluster index
	comps     []*connect.Component

	cpuChan    []int32 // module -> CPU channel
	backChan   []int32 // module -> backing channel (-1 if none)
	directChan int32
	l2DRAMChan int32

	// Dense reservation-stage tables: plain[cluster][bytes] and
	// dead[cluster][bytes*(maxDead+1)+dead], built lazily.
	plain [][][]rtable.Stage
	dead  [][][]rtable.Stage

	fetch   []int64   // module -> actual fetch latency on this architecture
	streamQ [][]int64 // stream module -> readyAt FIFO (len == Depth once touched)
	dmaLast []int64   // DMA module -> last touch cycle

	res Result
	now int64
}

func newReplayer(bt *BehaviorTrace, connArch *connect.Arch) *replayer {
	r := &replayer{
		bt:         bt,
		conn:       connArch,
		clusterOf:  make([]int32, len(bt.Channels)),
		comps:      make([]*connect.Component, len(bt.Channels)),
		cpuChan:    make([]int32, len(bt.Modules)),
		backChan:   make([]int32, len(bt.Modules)),
		directChan: -1,
		l2DRAMChan: -1,
		fetch:      make([]int64, len(bt.Modules)),
		streamQ:    make([][]int64, len(bt.Modules)),
		dmaLast:    make([]int64, len(bt.Modules)),
	}
	for i := range r.backChan {
		r.backChan[i] = -1
	}
	for ci, ch := range bt.Channels {
		cl := connArch.ComponentOf(ci)
		r.clusterOf[ci] = int32(cl)
		r.comps[ci] = &connArch.Assign[cl]
		switch ch.Kind {
		case mem.ChanCPUModule:
			r.cpuChan[ch.Module] = int32(ci)
		case mem.ChanModuleDRAM, mem.ChanModuleL2:
			r.backChan[ch.Module] = int32(ci)
		case mem.ChanCPUDRAM:
			r.directChan = int32(ci)
		case mem.ChanL2DRAM:
			r.l2DRAMChan = int32(ci)
		}
	}
	r.scheds = make([]*rtable.Scheduler, len(connArch.Clusters))
	for i := range r.scheds {
		r.scheds[i] = rtable.NewScheduler(connect.NumResources())
	}
	r.plain = make([][][]rtable.Stage, len(connArch.Clusters))
	r.dead = make([][][]rtable.Stage, len(connArch.Clusters))
	// Actual fetch latencies, mirroring sim.New's readiness wiring.
	for mi := range bt.Modules {
		if bc := r.backChan[mi]; bc != -1 {
			f := r.comps[bc].TransferCycles(32)
			if bt.HasL2 {
				f += bt.L2Latency
			} else {
				f += bt.DRAMRowHit
			}
			r.fetch[mi] = int64(f)
		}
	}
	r.res.ChannelBytes = make([]int64, len(bt.Channels))
	r.res.ChannelWait = make([]int64, len(bt.Channels))
	r.res.ChannelTransfers = make([]int64, len(bt.Channels))
	return r
}

// plainStages returns the memoized plain-transfer stages of n bytes on
// channel ch (dense per-cluster table, built on first use).
func (r *replayer) plainStages(ch int32, n int) []rtable.Stage {
	cl := r.clusterOf[ch]
	tab := r.plain[cl]
	if tab == nil {
		tab = make([][]rtable.Stage, r.bt.MaxBytes+1)
		r.plain[cl] = tab
	}
	if st := tab[n]; st != nil {
		return st
	}
	st := r.conn.Assign[cl].Stages(n)
	tab[n] = st
	return st
}

// deadStages returns the memoized stages of a non-split off-chip
// transaction of n bytes holding the bus through dead DRAM cycles, dead
// in [noDRAM, MaxDRAMLat].
func (r *replayer) deadStages(ch int32, n, dead int) []rtable.Stage {
	cl := r.clusterOf[ch]
	tab := r.dead[cl]
	if tab == nil {
		tab = make([][]rtable.Stage, (r.bt.MaxBytes+1)*(r.bt.MaxDRAMLat+2))
		r.dead[cl] = tab
	}
	idx := n*(r.bt.MaxDRAMLat+2) + dead - int(noDRAM)
	if st := tab[idx]; st != nil {
		return st
	}
	st := deadTimeStages(&r.conn.Assign[cl], n, dead)
	tab[idx] = st
	return st
}

// run replays every window of the behavior trace.
func (r *replayer) run() {
	bt := r.bt
	nmods := len(bt.Modules)
	pos := 0
	for wi, wlen := range bt.WindowLen {
		if bt.GapCycles[wi] > 0 {
			gapStart := r.now
			r.now += bt.GapCycles[wi]
			r.applyResync(bt.Resync[wi*nmods*2:(wi+1)*nmods*2], gapStart)
		}
		for i := pos; i < pos+int(wlen); i++ {
			lat := r.event(i)
			r.res.Accesses++
			r.res.TotalLatency += int64(lat)
			r.res.LatencyHist[latBucket(lat)]++
			r.res.Cycles += int64(lat) + 1
			r.now += int64(lat) + 1
		}
		pos += int(wlen)
	}
	r.res.SchedIssues, r.res.SchedConflicts = schedTotals(r.scheds)
}

// applyResync rebuilds prefetch readiness after a sampling skip gap.
//
// For a stream buffer the capture records the gap's line refills since
// its last restart and the restart's position — both timing-independent,
// since skipped hit/miss behavior is address-only. The replay re-chains
// its queue through those refills in its own clock, spreading them
// uniformly over the relevant span and applying the stream model's
// chaining rule (readyAt = max(refillTime, last) + fetchLatency) with
// the replayed architecture's actual fetch latency. A restart resets
// the chain to its own clock, exactly as StreamBuffer.Access does. This
// reproduces both regimes of the exact estimator: a fast fetch path
// tracks the skip clock (queue ready at the window start), a slow one
// accumulates readiness drift — the large stalls the estimator reports
// for under-provisioned backing buses. Uniform refill spacing inside
// the span is the two-phase path's one approximation.
//
// DMA modules carry no chain; the recorded idle time since the last
// touch transfers directly.
func (r *replayer) applyResync(resync []int32, gapStart int64) {
	gap := r.now - gapStart
	for mi := range r.bt.Modules {
		switch r.bt.Modules[mi].Kind {
		case mem.KindStream:
			refills := int64(resync[2*mi])
			anchor := int64(resync[2*mi+1])
			q := r.streamQ[mi]
			if len(q) == 0 && refills == 0 && anchor < 0 {
				continue // never touched: nothing to rebuild
			}
			f := r.fetch[mi]
			start, span := gapStart, gap
			var chain int64
			if anchor >= 0 {
				// Restart inside the gap: the chain re-anchors there and
				// the prior queue is gone.
				start = gapStart + anchor
				span = gap - anchor
				chain = start
			} else {
				chain = gapStart
				if len(q) > 0 && q[len(q)-1] > chain {
					chain = q[len(q)-1]
				}
			}
			for i := int64(1); i <= refills; i++ {
				if t := start + i*span/(refills+1); t > chain {
					chain = t
				}
				chain += f
			}
			depth := r.bt.Modules[mi].Depth
			if cap(q) < depth {
				q = make([]int64, depth)
			} else {
				q = q[:depth]
			}
			for j := range q {
				rj := chain - int64(depth-1-j)*f
				if rj < r.now {
					rj = r.now
				}
				q[j] = rj
			}
			r.streamQ[mi] = q
		case mem.KindDMA:
			r.dmaLast[mi] = r.now - int64(resync[2*mi])
		}
	}
}

// event replays one access event and returns its latency in cycles,
// mirroring Simulator.access.
func (r *replayer) event(i int) int {
	bt := r.bt
	ev := bt.Event(i)
	route := ev.Route
	size := int(ev.Size)
	if route < 0 {
		done, energy := r.offChip(r.directChan, size, int(ev.DemandDRAM), r.now)
		r.res.Misses++
		r.res.EnergyNJ += energy
		r.res.OffChipBytes += int64(size)
		r.res.ChannelBytes[r.directChan] += int64(size)
		return int(done - r.now)
	}

	// 1. CPU <-> module link.
	cpuCh := r.cpuChan[route]
	comp := r.comps[cpuCh]
	grant := r.scheds[r.clusterOf[cpuCh]].EarliestIssue(r.now, r.plainStages(cpuCh, size))
	t := grant + int64(comp.TransferCycles(size))
	r.res.EnergyNJ += comp.TransferEnergy(size)
	r.res.ChannelBytes[cpuCh] += int64(size)
	r.res.ChannelWait[cpuCh] += grant - r.now
	r.res.ChannelTransfers[cpuCh]++

	// 2. The module: behavior from the event, prefetch stalls recomputed
	// in this architecture's clock.
	meta := &bt.Modules[route]
	hit := ev.Flags&flagHit != 0
	var stall int64
	switch meta.Kind {
	case mem.KindStream:
		stall = r.streamStall(route, i, t, hit)
	case mem.KindDMA:
		stall = r.dmaStall(route, t, hit)
	default:
		stall = int64(ev.Stall)
	}
	t += int64(meta.Latency) + stall
	r.res.EnergyNJ += meta.Energy
	if hit {
		r.res.Hits++
	} else {
		r.res.Misses++
	}

	// 3. Demand backing traffic.
	if ev.DemandBytes > 0 {
		t = r.backing(r.backChan[route], int(ev.DemandBytes), int(ev.DemandL2Off), int(ev.DemandDRAM), t)
	}

	// 4. Background prefetch traffic (does not hold up the CPU).
	if ev.PrefBytes > 0 {
		if bc := r.backChan[route]; bc != -1 {
			r.backing(bc, int(ev.PrefBytes), int(ev.PrefL2Off), int(ev.PrefDRAM), t)
		}
	}
	return int(t - r.now)
}

// streamStall reproduces StreamBuffer.Access's timing: pop the consumed
// lines, stall until the hit line's fetch lands, top the FIFO back up.
func (r *replayer) streamStall(route int16, i int, t int64, hit bool) int64 {
	bt := r.bt
	meta := &bt.Modules[route]
	f := r.fetch[route]
	q := r.streamQ[route]
	if q == nil {
		q = make([]int64, 0, meta.Depth)
	}
	topup := 0
	if meta.LineBytes > 0 {
		topup = int(bt.Event(i).PrefBytes) / meta.LineBytes
	}
	if !hit {
		// Restart: the demand line lands at t, the lookahead chains
		// behind it at the fetch latency.
		q = q[:0]
		last := t
		q = append(q, last)
		for j := 0; j < topup && len(q) < meta.Depth; j++ {
			last += f
			q = append(q, last)
		}
		r.streamQ[route] = q
		return 0
	}
	// Hit: the consumed-line count equals the recorded top-up.
	k := topup
	if k >= len(q) {
		k = len(q) - 1
	}
	if k < 0 {
		k = 0
	}
	var stall int64
	if len(q) > 0 {
		if q[k] > t {
			stall = q[k] - t
		}
		q = q[:copy(q, q[k:])]
	}
	base := t + stall
	last := base
	if len(q) > 0 && q[len(q)-1] > last {
		last = q[len(q)-1]
	}
	for j := 0; j < topup && len(q) < meta.Depth; j++ {
		last += f
		q = append(q, last)
	}
	r.streamQ[route] = q
	return stall
}

// dmaStall reproduces SelfIndirectDMA.Access's timing: a chain hit
// stalls until the fetch started at the previous touch lands.
func (r *replayer) dmaStall(route int16, t int64, hit bool) int64 {
	last := r.dmaLast[route]
	r.dmaLast[route] = t
	if !hit {
		return 0
	}
	if ready := last + r.fetch[route]; ready > t {
		return ready - t
	}
	return 0
}

// backing mirrors Simulator.backingTransaction with the recorded
// behavior: module<->L2 (or module<->DRAM) transfer, L2 latency, and
// the L2's forwarded DRAM transaction when the leg missed.
func (r *replayer) backing(backCh int32, n, l2off, dramLat int, at int64) int64 {
	if !r.bt.HasL2 {
		done, energy := r.offChip(backCh, n, dramLat, at)
		r.res.EnergyNJ += energy
		r.res.OffChipBytes += int64(n)
		r.res.ChannelBytes[backCh] += int64(n)
		return done
	}
	comp := r.comps[backCh]
	grant := r.scheds[r.clusterOf[backCh]].EarliestIssue(at, r.plainStages(backCh, n))
	r.res.ChannelWait[backCh] += grant - at
	r.res.ChannelTransfers[backCh]++
	r.res.ChannelBytes[backCh] += int64(n)
	r.res.EnergyNJ += comp.TransferEnergy(n)
	t := grant + int64(comp.TransferCycles(n))

	t += int64(r.bt.L2Latency)
	r.res.EnergyNJ += r.bt.L2Energy
	if l2off > 0 && r.l2DRAMChan != -1 {
		done, energy := r.offChip(r.l2DRAMChan, l2off, dramLat, t)
		r.res.EnergyNJ += energy
		r.res.OffChipBytes += int64(l2off)
		r.res.ChannelBytes[r.l2DRAMChan] += int64(l2off)
		t = done
	}
	return t
}

// offChip mirrors Simulator.offChipTransaction with the DRAM latency
// read from the event instead of the live DRAM model.
func (r *replayer) offChip(ch int32, n, dramLat int, at int64) (int64, float64) {
	comp := r.comps[ch]
	sched := r.scheds[r.clusterOf[ch]]
	energy := comp.TransferEnergy(n) + r.bt.DRAMEnergy

	r.res.ChannelTransfers[ch]++
	if comp.Split {
		addrGrant := sched.EarliestIssue(at, r.plainStages(ch, 4))
		ready := addrGrant + int64(comp.TransferCycles(4)) + int64(dramLat)
		dataGrant := sched.EarliestIssue(ready, r.plainStages(ch, n))
		r.res.ChannelWait[ch] += (addrGrant - at) + (dataGrant - ready)
		return dataGrant + int64(comp.TransferCycles(n)), energy
	}
	stages := r.deadStages(ch, n, dramLat)
	grant := sched.EarliestIssue(at, stages)
	r.res.ChannelWait[ch] += grant - at
	return grant + int64(comp.ArbCycles+dramLat+comp.Beats(n)*comp.BeatCycles), energy
}
