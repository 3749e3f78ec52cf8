// Phase B of the two-phase simulator: connectivity replay. One pass
// over the behavior event trace re-times K connectivity architectures
// simultaneously; a single candidate is simply K=1.
//
// ReplayBatch performs only the connectivity-dependent work — bus
// arbitration through the reservation-table schedulers, transfer and
// DRAM-latency arithmetic, and energy accounting — with all module
// behavior read from the flat event arrays. ConEx enumerates hundreds
// of connectivity mappings per memory architecture, so the batch
// shares everything that does not depend on the connectivity:
//
//   - Each event is decoded once per batch into a small struct, then
//     applied to every architecture in an inner loop over dense
//     per-architecture state: each architecture owns a window of the
//     batch's flat per-channel wiring and per-module prefetch arrays.
//
//   - Counters that are the same for every architecture (accesses,
//     hits, misses, off-chip, per-channel bytes and transfers) are
//     added up once per event and copied into each Result at the end;
//     scheduler issues follow from the transfer counts.
//
//   - Transfer-cycle, transfer-energy and reservation-stage tables
//     depend only on a component's timing parameters, so architectures
//     assigning the same library component share one set of tables.
//     The stages of a dead-time off-chip leg depend only on their
//     (clamped) length and come from one package-level table.
//
// Contention. The replayed CPU is blocking: it has one outstanding
// access, and the clock advances past every demand leg before the next
// leg asks. Every stage list of a transfer ends by the time the
// transfer completes, so a demand reservation can never overlap a
// later query; only background prefetch legs can. Hence:
//
//   - A cluster that backs no prefetching module (nor is the L2<->DRAM
//     cluster of a prefetching system, which prefetch misses forward
//     to) is uncontended: every grant is the asking cycle, and it has
//     no scheduler at all.
//
//   - A contended cluster keeps a prefetch horizon, the latest end of
//     any prefetch reservation. Demand legs are never reserved: one
//     asking at or after the horizon is granted its asking cycle with
//     no search (rtable Grant), an earlier one is searched but not
//     reserved (Query). A prefetch leg at or after the horizon is
//     reserved with no search (Reserve); an earlier one is scheduled in
//     full (EarliestIssue).
//
// Each bypass still counts its issue and slides the scheduler's window
// exactly as EarliestIssue would. That matters: the window forgets
// reservations that fall behind it, so a prefetch pushed far into the
// future makes later, earlier-asking queries read older reservations as
// free, and results stay bit-exact only if every window slide happens
// where the reference makes it. A component with a stage that outlives
// its transfer (non-pipelined, no arbitration cycles, no beat cycles:
// the arbiter is held one cycle for a zero-cycle transfer) breaks the
// precondition (connect.Component.OutlivesTransfer), so a contended
// cluster using one schedules and reserves every leg.
//
// Prefetch stalls (stream buffers, self-indirect DMA) are recomputed in
// the replay's own clock from the recorded prefetch structure and each
// architecture's actual fetch latency, exactly as the modules
// themselves would, so a full-trace replay reproduces the one-phase
// simulator's timing; see behavior.go for the one sampling-mode
// approximation. Energy is accumulated with the same sequence of
// float64 additions as a one-architecture replay — shared tables hold
// the very values TransferEnergy returns — so results do not depend on
// which architectures share a batch.
package sim

import (
	"fmt"
	"math"
	"sort"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/rtable"
)

// checkReplayArch validates a connectivity architecture against a
// behavior trace.
func checkReplayArch(bt *BehaviorTrace, connArch *connect.Arch) error {
	if err := connArch.Validate(); err != nil {
		return err
	}
	if len(connArch.Channels) != len(bt.Channels) {
		return fmt.Errorf("sim: connectivity architecture covers %d channels, behavior trace has %d",
			len(connArch.Channels), len(bt.Channels))
	}
	for i := range bt.Channels {
		if bt.Channels[i] != connArch.Channels[i] {
			return fmt.Errorf("sim: channel %d mismatch between behavior trace and connectivity architecture", i)
		}
	}
	return nil
}

// ReplayBatch re-times a captured behavior trace against K connectivity
// architectures in a single pass over the event arrays and returns one
// Result per architecture, in input order, each shaped like
// Simulator.Run's. Every Result is bit-exact equal to the K=1 replay
// of archs[i] alone — including energy, histogram and scheduler
// counters. The behavior trace is read-only; distinct batches may run
// concurrently.
func ReplayBatch(bt *BehaviorTrace, archs []*connect.Arch) ([]*Result, error) {
	for i, a := range archs {
		if a == nil {
			return nil, fmt.Errorf("sim: batch arch %d is nil", i)
		}
		if err := checkReplayArch(bt, a); err != nil {
			return nil, fmt.Errorf("sim: batch arch %d: %w", i, err)
		}
	}
	if len(archs) == 0 {
		return nil, nil
	}
	b := newBatchReplayer(bt, archs)
	b.run()
	out := make([]*Result, len(archs))
	for i := range b.res {
		out[i] = &b.res[i]
	}
	return out, nil
}

// compTables is the per-distinct-component set of dense timing tables,
// shared by every (arch, channel) slot of the batch that resolves to a
// component with identical timing parameters. plain is allocated once
// a contended cluster uses the component and filled on first use.
type compTables struct {
	comp  *connect.Component // the first component with these parameters
	cyc   []int32            // n -> TransferCycles(n)
	en    []float64          // n -> TransferEnergy(n)
	plain [][]rtable.Stage   // n -> Stages(n)
}

// stages returns the memoized plain-transfer stages of n bytes.
func (ct *compTables) stages(n int) []rtable.Stage {
	if st := ct.plain[n]; st != nil {
		return st
	}
	st := ct.comp.Stages(n)
	ct.plain[n] = st
	return st
}

// compSig identifies a component up to replay timing and energy: name,
// class, port bounds and area are deliberately excluded.
type compSig struct {
	width, arb, beat int
	pipelined        bool
	epb              float64
}

// deadStages[n] is the stage list of a non-split off-chip transaction
// holding the bus for n cycles through its DRAM dead time, as
// deadTimeStages builds it; the length is clamped to 62 there.
var deadStages = func() (t [63][]rtable.Stage) {
	for n := range t {
		t[n] = []rtable.Stage{{Res: 0, Start: 0, Len: n}, {Res: 1, Start: 0, Len: n}}
	}
	return t
}()

// cluster is the reservation state of one contended cluster of one
// architecture.
type cluster struct {
	sched   *rtable.Scheduler
	horizon int64 // latest end of any prefetch reservation
	exact   bool  // a stage outlives its transfer: schedule and reserve every leg
}

// leg returns the grant of a transfer with stages st asking at cycle
// at; pref marks background prefetch traffic. See the package comment
// for why skipped searches and reservations leave every grant
// unchanged.
func (c *cluster) leg(at int64, st []rtable.Stage, pref bool) int64 {
	switch {
	case c.exact:
		return c.sched.EarliestIssue(at, st)
	case !pref && at >= c.horizon:
		c.sched.Grant(at, st)
		return at
	case !pref:
		return c.sched.Query(at, st)
	}
	g := at
	if at >= c.horizon {
		c.sched.Reserve(at, st)
	} else {
		g = c.sched.EarliestIssue(at, st)
	}
	for _, s := range st {
		if end := g + int64(s.Start+s.Len); end > c.horizon {
			c.horizon = end
		}
	}
	return g
}

// slot is the wiring of one (arch, channel) pair.
type slot struct {
	tab   *compTables
	cl    *cluster // nil when uncontended: every grant is the asking cycle
	split bool     // split-transaction component
}

// backLeg is the recorded traffic of one backing transaction.
type backLeg struct {
	n, l2off, dram int
}

// access is one behavior-trace event, decoded once per batch.
type access struct {
	route    int16
	size     int
	hit      bool
	pure     bool // on-chip hit with no stall and no backing traffic
	stall    int64
	topup    int // stream-buffer lines the event's prefetch tops up
	meta     *ModuleMeta
	cpu      int32 // CPU channel (direct DRAM channel when route < 0)
	back     int32 // backing channel (-1 if none)
	demand   backLeg
	pref     backLeg
	hasDem   bool
	prefBack bool // a prefetch leg with a backing channel
}

// modState is the prefetch state of one module on one architecture.
type modState struct {
	fetch   int64   // actual fetch latency on this architecture
	streamQ []int64 // stream buffer: readyAt FIFO (len == Depth once touched)
	dmaLast int64   // DMA: last touch cycle
}

// archState is the replay state of one architecture of the batch. Its
// slots and mods are windows of flat arrays shared by the batch.
type archState struct {
	now        int64
	res        *Result
	slots      []slot     // channel -> wiring
	mods       []modState // module -> prefetch state
	clusters   []*cluster // contended clusters
	splitChans []int32    // off-chip channels on split components (two issues per leg)
}

// batchReplayer holds the state of one ReplayBatch pass.
type batchReplayer struct {
	bt *BehaviorTrace

	// Shared, behavior-trace-derived (identical for every arch).
	cpuChan    []int32 // module -> CPU channel
	backChan   []int32 // module -> backing channel (-1 if none)
	directChan int32
	l2DRAMChan int32
	shared     Result // the architecture-independent counters

	archs []archState
	res   []Result
}

func newBatchReplayer(bt *BehaviorTrace, archs []*connect.Arch) *batchReplayer {
	k, nc, nm := len(archs), len(bt.Channels), len(bt.Modules)
	b := &batchReplayer{
		bt:         bt,
		cpuChan:    make([]int32, nm),
		backChan:   make([]int32, nm),
		directChan: -1,
		l2DRAMChan: -1,
		archs:      make([]archState, k),
		res:        make([]Result, k),
	}
	slots := make([]slot, k*nc)
	mods := make([]modState, k*nm)
	b.shared.ChannelBytes = make([]int64, nc)
	b.shared.ChannelTransfers = make([]int64, nc)
	for m := range b.backChan {
		b.backChan[m] = -1
	}
	for ci, ch := range bt.Channels {
		switch ch.Kind {
		case mem.ChanCPUModule:
			b.cpuChan[ch.Module] = int32(ci)
		case mem.ChanModuleDRAM, mem.ChanModuleL2:
			b.backChan[ch.Module] = int32(ci)
		case mem.ChanCPUDRAM:
			b.directChan = int32(ci)
		case mem.ChanL2DRAM:
			b.l2DRAMChan = int32(ci)
		}
	}

	// Which modules generate background prefetch traffic: the only
	// source of scheduler contention (see the package comment).
	modHasPref := make([]bool, nm)
	anyPref := false
	for i, route := range bt.Route {
		if route >= 0 && bt.PrefBytes[i] > 0 {
			modHasPref[route] = true
			anyPref = true
		}
	}

	// Per-architecture wiring: shared component tables, contended
	// clusters, schedulers only where contention is possible.
	intern := map[compSig]*compTables{}
	clusterOf := make([]int, nc) // per-arch scratch
	for a, arch := range archs {
		st := &b.archs[a]
		st.res = &b.res[a]
		st.slots = slots[a*nc : (a+1)*nc]
		st.mods = mods[a*nm : (a+1)*nm]
		for ci := range bt.Channels {
			clusterOf[ci] = arch.ComponentOf(ci)
		}
		contCl := make([]bool, len(arch.Clusters))
		if anyPref {
			for m := range modHasPref {
				if modHasPref[m] && b.backChan[m] != -1 {
					contCl[clusterOf[b.backChan[m]]] = true
				}
			}
			if bt.HasL2 && b.l2DRAMChan != -1 {
				contCl[clusterOf[b.l2DRAMChan]] = true
			}
		}
		cls := make([]*cluster, len(arch.Clusters))
		for ci := range bt.Channels {
			cl := clusterOf[ci]
			comp := &arch.Assign[cl]
			sig := compSig{comp.WidthBytes, comp.ArbCycles, comp.BeatCycles, comp.Pipelined, comp.EnergyPerByte}
			ct := intern[sig]
			if ct == nil {
				ct = &compTables{
					comp: comp,
					cyc:  make([]int32, bt.MaxBytes+1),
					en:   make([]float64, bt.MaxBytes+1),
				}
				for n := 0; n <= bt.MaxBytes; n++ {
					ct.cyc[n] = int32(comp.TransferCycles(n))
					ct.en[n] = comp.TransferEnergy(n)
				}
				intern[sig] = ct
			}
			s := &st.slots[ci]
			s.tab = ct
			s.split = comp.Split
			if comp.Split && bt.Channels[ci].OffChip {
				st.splitChans = append(st.splitChans, int32(ci))
			}
			if contCl[cl] {
				if cls[cl] == nil {
					if ct.plain == nil {
						ct.plain = make([][]rtable.Stage, bt.MaxBytes+1)
					}
					cls[cl] = &cluster{sched: rtable.NewScheduler(connect.NumResources()), exact: comp.OutlivesTransfer()}
					st.clusters = append(st.clusters, cls[cl])
				}
				s.cl = cls[cl]
			}
		}
		// Actual fetch latencies, mirroring sim.New's readiness wiring.
		for m := 0; m < nm; m++ {
			if bc := b.backChan[m]; bc != -1 {
				f := arch.Assign[clusterOf[bc]].TransferCycles(32)
				if bt.HasL2 {
					f += bt.L2Latency
				} else {
					f += bt.DRAMRowHit
				}
				st.mods[m].fetch = int64(f)
			}
		}
		st.res.ChannelWait = make([]int64, nc)
	}
	return b
}

// decode reads event i into e and adds its architecture-independent
// counters to the shared result.
func (b *batchReplayer) decode(i int, e *access) {
	bt := b.bt
	sh := &b.shared
	sh.Accesses++
	e.route = bt.Route[i]
	e.size = int(bt.Size[i])
	e.demand = backLeg{int(bt.DemandBytes[i]), int(bt.DemandL2Off[i]), int(bt.DemandDRAM[i])}
	if e.route < 0 {
		e.cpu = b.directChan
		e.pure = false
		sh.Misses++
		sh.OffChipBytes += int64(e.size)
		sh.ChannelBytes[e.cpu] += int64(e.size)
		sh.ChannelTransfers[e.cpu]++
		return
	}
	e.meta = &bt.Modules[e.route]
	e.cpu = b.cpuChan[e.route]
	e.back = b.backChan[e.route]
	e.hit = bt.Flags[i]&flagHit != 0
	e.stall = int64(bt.Stall[i])
	e.pref = backLeg{int(bt.PrefBytes[i]), int(bt.PrefL2Off[i]), int(bt.PrefDRAM[i])}
	e.hasDem = e.demand.n > 0
	hasPref := e.pref.n > 0
	e.prefBack = hasPref && e.back != -1
	e.topup = 0
	if e.meta.LineBytes > 0 {
		e.topup = e.pref.n / e.meta.LineBytes
	}
	kind := e.meta.Kind
	e.pure = e.hit && e.stall == 0 && !e.hasDem && !hasPref && kind != mem.KindStream && kind != mem.KindDMA
	sh.ChannelBytes[e.cpu] += int64(e.size)
	sh.ChannelTransfers[e.cpu]++
	if e.hit {
		sh.Hits++
	} else {
		sh.Misses++
	}
	if e.hasDem {
		b.countBacking(e.back, e.demand)
	}
	if e.prefBack {
		b.countBacking(e.back, e.pref)
	}
}

// countBacking adds the shared counters of one backing transaction,
// mirroring backing's accounting.
func (b *batchReplayer) countBacking(back int32, l backLeg) {
	sh := &b.shared
	sh.ChannelBytes[back] += int64(l.n)
	sh.ChannelTransfers[back]++
	if !b.bt.HasL2 {
		sh.OffChipBytes += int64(l.n)
		return
	}
	if l.l2off > 0 && b.l2DRAMChan != -1 {
		sh.OffChipBytes += int64(l.l2off)
		sh.ChannelBytes[b.l2DRAMChan] += int64(l.l2off)
		sh.ChannelTransfers[b.l2DRAMChan]++
	}
}

// run replays every window of the behavior trace for every arch.
func (b *batchReplayer) run() {
	bt := b.bt
	nmods := len(bt.Modules)
	var e access
	pos := 0
	for wi, wlen := range bt.WindowLen {
		if bt.GapCycles[wi] > 0 {
			rs := bt.Resync[wi*nmods*2 : (wi+1)*nmods*2]
			for a := range b.archs {
				st := &b.archs[a]
				gapStart := st.now
				st.now += bt.GapCycles[wi]
				b.applyResync(st, rs, gapStart)
			}
		}
		for i := pos; i < pos+int(wlen); i++ {
			b.decode(i, &e)
			if !e.pure {
				for a := range b.archs {
					st := &b.archs[a]
					st.retire(b.event(st, &e))
				}
				continue
			}
			// A pure on-chip hit: the CPU link and the module latency.
			// The two energy adds stay separate and ordered to match
			// event().
			ch := int(e.cpu)
			modLat := int64(e.meta.Latency)
			modEnergy := e.meta.Energy
			for a := range b.archs {
				st := &b.archs[a]
				s := &st.slots[ch]
				r := st.res
				lat := int64(s.tab.cyc[e.size]) + modLat
				if s.cl != nil {
					wait := s.cl.leg(st.now, s.tab.stages(e.size), false) - st.now
					r.ChannelWait[ch] += wait
					lat += wait
				}
				r.EnergyNJ += s.tab.en[e.size]
				r.EnergyNJ += modEnergy
				st.retire(lat)
			}
		}
		pos += int(wlen)
	}
	sh := &b.shared
	var legs int64
	for _, n := range sh.ChannelTransfers {
		legs += n
	}
	for a := range b.archs {
		st := &b.archs[a]
		r := st.res
		r.Accesses = sh.Accesses
		r.Hits = sh.Hits
		r.Misses = sh.Misses
		r.OffChipBytes = sh.OffChipBytes
		r.ChannelBytes = append([]int64(nil), sh.ChannelBytes...)
		r.ChannelTransfers = append([]int64(nil), sh.ChannelTransfers...)
		r.Cycles = r.TotalLatency + r.Accesses // one CPU cycle per access
		// Every transfer is one scheduler issue; a split off-chip
		// transfer issues its address and data phases separately.
		r.SchedIssues = legs
		for _, ch := range st.splitChans {
			r.SchedIssues += sh.ChannelTransfers[ch]
		}
		for _, c := range st.clusters {
			r.SchedConflicts += c.sched.Stats().Conflicts
		}
	}
}

// retire books one access of latency lat.
func (st *archState) retire(lat int64) {
	st.res.TotalLatency += lat
	st.res.LatencyHist[latBucket(int(lat))]++
	st.now += lat + 1
}

// applyResync mirrors (*replayer).applyResync for one architecture.
func (b *batchReplayer) applyResync(st *archState, resync []int32, gapStart int64) {
	now := st.now
	gap := now - gapStart
	for mi := range b.bt.Modules {
		ms := &st.mods[mi]
		switch b.bt.Modules[mi].Kind {
		case mem.KindStream:
			refills := int64(resync[2*mi])
			anchor := int64(resync[2*mi+1])
			q := ms.streamQ
			if len(q) == 0 && refills == 0 && anchor < 0 {
				continue // never touched: nothing to rebuild
			}
			f := ms.fetch
			start, span := gapStart, gap
			var chain int64
			if anchor >= 0 {
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
			depth := b.bt.Modules[mi].Depth
			if cap(q) < depth {
				q = make([]int64, depth)
			} else {
				q = q[:depth]
			}
			for j := range q {
				rj := chain - int64(depth-1-j)*f
				if rj < now {
					rj = now
				}
				q[j] = rj
			}
			ms.streamQ = q
		case mem.KindDMA:
			ms.dmaLast = now - int64(resync[2*mi])
		}
	}
}

// event replays one decoded access for one architecture and returns
// its latency, mirroring (*replayer).event step for step.
func (b *batchReplayer) event(st *archState, e *access) int64 {
	now := st.now
	r := st.res
	if e.route < 0 {
		done, energy := b.offChip(st, e.cpu, e.size, e.demand.dram, now, false)
		r.EnergyNJ += energy
		return done - now
	}

	// 1. CPU <-> module link.
	s := &st.slots[e.cpu]
	grant := now
	if s.cl != nil {
		grant = s.cl.leg(now, s.tab.stages(e.size), false)
		r.ChannelWait[e.cpu] += grant - now
	}
	t := grant + int64(s.tab.cyc[e.size])
	r.EnergyNJ += s.tab.en[e.size]

	// 2. The module: behavior from the event, prefetch stalls recomputed
	// in this architecture's clock.
	stall := e.stall
	switch e.meta.Kind {
	case mem.KindStream:
		stall = streamStall(&st.mods[e.route], e, t)
	case mem.KindDMA:
		stall = dmaStall(&st.mods[e.route], t, e.hit)
	}
	t += int64(e.meta.Latency) + stall
	r.EnergyNJ += e.meta.Energy

	// 3. Demand backing traffic.
	if e.hasDem {
		t = b.backing(st, e.back, e.demand, t, false)
	}

	// 4. Background prefetch traffic (does not hold up the CPU).
	if e.prefBack {
		b.backing(st, e.back, e.pref, t, true)
	}
	return t - now
}

// streamStall mirrors (*replayer).streamStall for one stream module's
// state.
func streamStall(ms *modState, e *access, t int64) int64 {
	depth := e.meta.Depth
	f := ms.fetch
	q := ms.streamQ
	if q == nil {
		q = make([]int64, 0, depth)
	}
	if !e.hit {
		q = q[:0]
		last := t
		q = append(q, last)
		for j := 0; j < e.topup && len(q) < depth; j++ {
			last += f
			q = append(q, last)
		}
		ms.streamQ = q
		return 0
	}
	k := e.topup
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
	for j := 0; j < e.topup && len(q) < depth; j++ {
		last += f
		q = append(q, last)
	}
	ms.streamQ = q
	return stall
}

// dmaStall mirrors (*replayer).dmaStall for one DMA module's state.
func dmaStall(ms *modState, t int64, hit bool) int64 {
	last := ms.dmaLast
	ms.dmaLast = t
	if !hit {
		return 0
	}
	if ready := last + ms.fetch; ready > t {
		return ready - t
	}
	return 0
}

// backing mirrors (*replayer).backing for one architecture.
func (b *batchReplayer) backing(st *archState, backCh int32, l backLeg, at int64, pref bool) int64 {
	r := st.res
	if !b.bt.HasL2 {
		done, energy := b.offChip(st, backCh, l.n, l.dram, at, pref)
		r.EnergyNJ += energy
		return done
	}
	s := &st.slots[backCh]
	grant := at
	if s.cl != nil {
		grant = s.cl.leg(at, s.tab.stages(l.n), pref)
		r.ChannelWait[backCh] += grant - at
	}
	r.EnergyNJ += s.tab.en[l.n]
	t := grant + int64(s.tab.cyc[l.n])

	t += int64(b.bt.L2Latency)
	r.EnergyNJ += b.bt.L2Energy
	if l.l2off > 0 && b.l2DRAMChan != -1 {
		done, energy := b.offChip(st, b.l2DRAMChan, l.l2off, l.dram, t, pref)
		r.EnergyNJ += energy
		t = done
	}
	return t
}

// offChip mirrors (*replayer).offChip for one architecture. On
// uncontended clusters every grant is the asking cycle (for split
// components both the address and the data phase).
func (b *batchReplayer) offChip(st *archState, ch int32, n, dramLat int, at int64, pref bool) (int64, float64) {
	r := st.res
	s := &st.slots[ch]
	ct := s.tab
	energy := ct.en[n] + b.bt.DRAMEnergy
	if s.split {
		if s.cl == nil {
			return at + int64(ct.cyc[4]) + int64(dramLat) + int64(ct.cyc[n]), energy
		}
		addrGrant := s.cl.leg(at, ct.stages(4), pref)
		ready := addrGrant + int64(ct.cyc[4]) + int64(dramLat)
		dataGrant := s.cl.leg(ready, ct.stages(n), pref)
		r.ChannelWait[ch] += (addrGrant - at) + (dataGrant - ready)
		return dataGrant + int64(ct.cyc[n]), energy
	}
	grant := at
	if s.cl != nil {
		held := int(ct.cyc[n]) + dramLat
		if held > 62 {
			held = 62
		}
		grant = s.cl.leg(at, deadStages[held], pref)
		r.ChannelWait[ch] += grant - at
	}
	return grant + int64(ct.cyc[n]) + int64(dramLat), energy
}

// FNV-1a parameters for the per-channel signature hash.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// ChannelSignatures returns one 64-bit timing signature per channel of
// the architecture: a digest of the owning cluster's component timing
// parameters (width, arbitration, beat, pipelining, split transactions,
// energy per byte) and the cluster's sorted channel-member list. Two
// channels with equal signatures on two architectures are served by
// timing-identical components with identical scheduler sharing, so
// their per-event timing and energy contributions are interchangeable.
// Names, classes, port bounds and gate counts are deliberately
// excluded.
func ChannelSignatures(arch *connect.Arch) []uint64 {
	sigs := make([]uint64, len(arch.Channels))
	var members []int
	for cl := range arch.Clusters {
		comp := &arch.Assign[cl]
		members = append(members[:0], arch.Clusters[cl]...)
		sort.Ints(members)
		h := uint64(fnvOffset64)
		h = fnvMix(h, uint64(comp.WidthBytes))
		h = fnvMix(h, uint64(comp.ArbCycles))
		h = fnvMix(h, uint64(comp.BeatCycles))
		h = fnvMix(h, boolBit(comp.Pipelined))
		h = fnvMix(h, boolBit(comp.Split))
		h = fnvMix(h, math.Float64bits(comp.EnergyPerByte))
		h = fnvMix(h, uint64(len(members)))
		for _, m := range members {
			h = fnvMix(h, uint64(m))
		}
		for _, ch := range arch.Clusters[cl] {
			sigs[ch] = h
		}
	}
	return sigs
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
