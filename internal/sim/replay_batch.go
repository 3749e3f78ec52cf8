// Phase B of the two-phase simulator: connectivity replay. ReplayBatch
// re-times a behavior trace against K connectivity architectures; a
// single candidate is simply K=1.
//
// ReplayBatch performs only the connectivity-dependent work — bus
// arbitration through the reservation-table schedulers, transfer and
// DRAM-latency arithmetic, and energy accounting — with all module
// behavior read from the trace's event classes. ConEx enumerates
// hundreds of connectivity mappings per memory architecture, so the
// batch shares everything that does not depend on the connectivity:
//
//   - Counters that are the same for every architecture (accesses,
//     hits, misses, off-chip, per-channel bytes and transfers) are
//     computed once from the class counts and copied into each Result;
//     scheduler issues follow from the transfer counts.
//
//   - Transfer-cycle, transfer-energy and reservation-stage tables
//     depend only on a component's timing parameters, so architectures
//     assigning the same library component share one set of tables.
//     The stages of a dead-time off-chip leg depend only on their
//     (clamped) length and come from one package-level table.
//
// Per (architecture, class) the batch then builds a row. Energy never
// depends on timing, so every row holds the event's energy addends, in
// the order replayReference adds them. A class is fast when its module
// is neither a stream buffer nor a DMA and none of the channels it uses
// is in a contended cluster (below): its latency is then a constant,
// read off once by replaying the class at cycle 0. The trace is walked
// twice, neither pass touching the per-event fields:
//
//   - The clock pass, for each architecture with slow classes: a fast
//     event advances the clock by its constant, a slow one runs the
//     full event path on the class's decoded view. Fast latencies are
//     booked as count × constant at the end; integer sums may be
//     reordered.
//
//   - The energy pass, four architectures side by side: each adds its
//     addends in trace order, so every float sum is the very one
//     replayReference builds, and results do not depend on which
//     architectures share a batch.
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
// approximation.
package sim

import (
	"fmt"

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
// architectures and returns one Result per architecture, in input
// order, each shaped like Simulator.Run's. Every Result is bit-exact
// equal to the K=1 replay of archs[i] alone — including energy,
// histogram and scheduler counters. The behavior trace is read-only;
// distinct batches may run concurrently.
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

// modState is the prefetch state of one module on one architecture.
type modState struct {
	fetch   int64   // actual fetch latency on this architecture
	streamQ []int64 // stream buffer: readyAt FIFO (len == Depth once touched)
	dmaLast int64   // DMA: last touch cycle
}

// classRow is how one architecture replays one event class: the
// event's energy addends are addends[lo:hi]; a fast class has the
// constant latency lat, a slow one runs event.
type classRow struct {
	lat    int64
	lo, hi int32
	slow   bool
}

// archState is the replay state of one architecture of the batch. Its
// slots, mods and rows are windows of flat arrays shared by the batch.
type archState struct {
	now        int64
	res        *Result
	slots      []slot     // channel -> wiring
	mods       []modState // module -> prefetch state
	rows       []classRow // event class -> replay plan
	anySlow    bool       // some class is slow: the clock must be kept
	clusters   []*cluster // contended clusters
	splitChans []int32    // off-chip channels on split components (two issues per leg)
}

// batchReplayer holds the state of one ReplayBatch pass.
type batchReplayer struct {
	bt     *BehaviorTrace
	chans  chanMap
	shared Result // the architecture-independent counters

	// addends holds the energy addends of every (arch, class) pair.
	addends []float64

	archs []archState
	res   []Result
}

func newBatchReplayer(bt *BehaviorTrace, archs []*connect.Arch) *batchReplayer {
	k, nc, nm, ncl := len(archs), len(bt.Channels), len(bt.Modules), len(bt.Classes)
	b := &batchReplayer{
		bt:    bt,
		chans: newChanMap(bt),
		archs: make([]archState, k),
		res:   make([]Result, k),
	}
	slots := make([]slot, k*nc)
	mods := make([]modState, k*nm)
	rows := make([]classRow, k*ncl)
	b.countShared()

	// Which modules generate background prefetch traffic: the only
	// source of scheduler contention (see the package comment).
	modHasPref := make([]bool, nm)
	anyPref := false
	for ci := range bt.Classes {
		if ev := &bt.Classes[ci].Event; ev.Route >= 0 && ev.PrefBytes > 0 {
			modHasPref[ev.Route] = true
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
		st.rows = rows[a*ncl : (a+1)*ncl]
		for ci := range bt.Channels {
			clusterOf[ci] = arch.ComponentOf(ci)
		}
		contCl := make([]bool, len(arch.Clusters))
		if anyPref {
			for m := range modHasPref {
				if modHasPref[m] && b.chans.back[m] != -1 {
					contCl[clusterOf[b.chans.back[m]]] = true
				}
			}
			if bt.HasL2 && b.chans.l2DRAMChan != -1 {
				contCl[clusterOf[b.chans.l2DRAMChan]] = true
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
			if bc := b.chans.back[m]; bc != -1 {
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
		b.planClasses(st)
	}
	return b
}

// planClasses fills an architecture's class rows. A fast class is
// replayed once, at cycle 0, to read off its latency.
func (b *batchReplayer) planClasses(st *archState) {
	for ci := range b.bt.Classes {
		c := &b.bt.Classes[ci]
		row := &st.rows[ci]
		row.lo = int32(len(b.addends))
		b.addends = b.energy(st, c, b.addends)
		row.hi = int32(len(b.addends))
		if b.slow(st, c) {
			row.slow = true
			st.anySlow = true
		} else {
			row.lat = b.event(st, c)
		}
	}
}

// energy appends the energy addends of one event of class c in the
// order replayReference adds them. None depends on timing, so they are
// constants of (architecture, class) for every class.
func (b *batchReplayer) energy(st *archState, c *EventClass, out []float64) []float64 {
	e := &c.view
	if c.Route < 0 {
		return append(out, st.slots[e.cpu].tab.en[c.Size]+b.bt.DRAMEnergy)
	}
	out = append(out, st.slots[e.cpu].tab.en[c.Size], b.bt.Modules[c.Route].Energy)
	if e.hasDem {
		out = b.backingEnergy(st, e.back, int(c.DemandBytes), int(c.DemandL2Off), out)
	}
	if e.prefBack {
		out = b.backingEnergy(st, e.back, int(c.PrefBytes), int(c.PrefL2Off), out)
	}
	return out
}

// backingEnergy appends the energy addends of one backing transaction
// of n bytes, l2off of which the L2 forwards to DRAM.
func (b *batchReplayer) backingEnergy(st *archState, back int32, n, l2off int, out []float64) []float64 {
	if !b.bt.HasL2 {
		return append(out, st.slots[back].tab.en[n]+b.bt.DRAMEnergy)
	}
	out = append(out, st.slots[back].tab.en[n], b.bt.L2Energy)
	if l2 := b.chans.l2DRAMChan; l2off > 0 && l2 != -1 {
		out = append(out, st.slots[l2].tab.en[l2off]+b.bt.DRAMEnergy)
	}
	return out
}

// slow reports whether class c depends on the replay clock on this
// architecture: its module recomputes prefetch stalls, or one of the
// channels it uses is in a contended cluster.
func (b *batchReplayer) slow(st *archState, c *EventClass) bool {
	e := &c.view
	if c.Route >= 0 {
		if k := b.bt.Modules[c.Route].Kind; k == mem.KindStream || k == mem.KindDMA {
			return true
		}
	}
	if st.slots[e.cpu].cl != nil {
		return true
	}
	if !e.hasDem && !e.prefBack {
		return false
	}
	if st.slots[e.back].cl != nil {
		return true
	}
	l2 := b.chans.l2DRAMChan
	if !b.bt.HasL2 || l2 == -1 || st.slots[l2].cl == nil {
		return false
	}
	return (e.hasDem && c.DemandL2Off > 0) || (e.prefBack && c.PrefL2Off > 0)
}

// countShared adds up the architecture-independent counters from the
// class counts, mirroring event's and backing's accounting.
func (b *batchReplayer) countShared() {
	bt := b.bt
	sh := &b.shared
	sh.ChannelBytes = make([]int64, len(bt.Channels))
	sh.ChannelTransfers = make([]int64, len(bt.Channels))
	for ci := range bt.Classes {
		c := &bt.Classes[ci]
		e := &c.view
		n := c.Count
		size := int64(c.Size)
		sh.Accesses += n
		sh.ChannelBytes[e.cpu] += n * size
		sh.ChannelTransfers[e.cpu] += n
		if c.Route < 0 {
			sh.Misses += n
			sh.OffChipBytes += n * size
			continue
		}
		if e.hit {
			sh.Hits += n
		} else {
			sh.Misses += n
		}
		if e.hasDem {
			b.countBacking(e.back, n, int64(c.DemandBytes), int64(c.DemandL2Off))
		}
		if e.prefBack {
			b.countBacking(e.back, n, int64(c.PrefBytes), int64(c.PrefL2Off))
		}
	}
}

// countBacking adds the shared counters of n backing transactions of
// bytes bytes, l2off of which the L2 forwards to DRAM.
func (b *batchReplayer) countBacking(back int32, n, bytes, l2off int64) {
	sh := &b.shared
	sh.ChannelBytes[back] += n * bytes
	sh.ChannelTransfers[back] += n
	if !b.bt.HasL2 {
		sh.OffChipBytes += n * bytes
		return
	}
	if l2 := b.chans.l2DRAMChan; l2off > 0 && l2 != -1 {
		sh.OffChipBytes += n * l2off
		sh.ChannelBytes[l2] += n * l2off
		sh.ChannelTransfers[l2] += n
	}
}

// run replays the behavior trace for every arch and fills in the
// results: the clock of every arch with slow classes, one arch at a
// time, and the energy of all archs, four side by side.
func (b *batchReplayer) run() {
	for a := range b.archs {
		if st := &b.archs[a]; st.anySlow {
			b.runClock(st)
		}
	}
	for a := 0; a < len(b.archs); a += energyLanes {
		b.runEnergy(b.archs[a:min(a+energyLanes, len(b.archs))])
	}
	sh := &b.shared
	var legs int64
	for _, n := range sh.ChannelTransfers {
		legs += n
	}
	for a := range b.archs {
		st := &b.archs[a]
		r := st.res
		for ci, row := range st.rows {
			if !row.slow {
				n := b.bt.Classes[ci].Count
				r.TotalLatency += n * row.lat
				r.LatencyHist[latBucket(int(row.lat))] += n
			}
		}
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

// energyLanes is the number of archs runEnergy sums side by side.
const energyLanes = 4

// runEnergy adds up the energy of up to energyLanes archs. A class has
// the same number of energy addends on every arch, so the group's
// addends are laid out lane-interleaved per class: each arch's sum
// still adds its addends in trace order, so it is the very float sum
// replayReference builds, and the lanes are independent chains the CPU
// overlaps. Every class is padded with +0 addends to the longest
// list, so the inner loop has one trip count and its exit is never
// mispredicted. The padding changes no sum: adding +0 leaves every
// value but -0 unchanged, and a sum that starts at +0 never becomes -0
// under round-to-nearest.
func (b *batchReplayer) runEnergy(group []archState) {
	bt := b.bt
	w := 0
	for _, r := range group[0].rows {
		w = max(w, int(r.hi-r.lo))
	}
	stride := w * energyLanes
	tab := make([]float64, len(bt.Classes)*stride)
	for lane := range group {
		for c, r := range group[lane].rows {
			for j, x := range b.addends[r.lo:r.hi] {
				tab[c*stride+energyLanes*j+lane] = x
			}
		}
	}
	var e0, e1, e2, e3 float64
	for _, id := range bt.IDs {
		t := tab[int(id)*stride : int(id)*stride+stride]
		for j := 0; j+3 < len(t); j += energyLanes {
			e0 += t[j]
			e1 += t[j+1]
			e2 += t[j+2]
			e3 += t[j+3]
		}
	}
	sums := [energyLanes]float64{e0, e1, e2, e3}
	for lane := range group {
		group[lane].res.EnergyNJ = sums[lane]
	}
}

// runClock replays every window of the behavior trace for one arch with
// slow classes: a fast event only advances the clock (its latency is
// booked per class by run), a slow one runs event.
func (b *batchReplayer) runClock(st *archState) {
	bt := b.bt
	rows := st.rows
	nmods := len(bt.Modules)
	pos := 0
	for wi, wlen := range bt.WindowLen {
		if bt.GapCycles[wi] > 0 {
			gapStart := st.now
			st.now += bt.GapCycles[wi]
			b.applyResync(st, bt.Resync[wi*nmods*2:(wi+1)*nmods*2], gapStart)
		}
		for _, id := range bt.IDs[pos : pos+int(wlen)] {
			if r := &rows[id]; !r.slow {
				st.now += r.lat + 1
				continue
			}
			lat := b.event(st, &bt.Classes[id])
			st.res.TotalLatency += lat
			st.res.LatencyHist[latBucket(int(lat))]++
			st.now += lat + 1
		}
		pos += int(wlen)
	}
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
			// The refills land at t_i = start + i*span/(R+1), i = 1..R,
			// and chain = max(chain, t_i) + f after each, so the chain
			// ends at max(chain + R*f, max_i t_i + (R-i+1)*f). Steps of
			// t_i take one of two adjacent integer values, so t_i - i*f
			// is monotone for any integer f and the inner maximum is at
			// i = 1 or i = R: no need to walk every refill.
			if r := refills; r > 0 {
				chain = max(chain+r*f, start+span/(r+1)+r*f, start+r*span/(r+1)+f)
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

// event replays the timing of one access of class c for one
// architecture and returns its latency, mirroring (*replayer).event step
// for step; its energy comes from the class's addends.
func (b *batchReplayer) event(st *archState, c *EventClass) int64 {
	now := st.now
	e := &c.view
	size := int(c.Size)
	if c.Route < 0 {
		return b.offChip(st, e.cpu, size, int(c.DemandDRAM), now, false) - now
	}

	// 1. CPU <-> module link.
	s := &st.slots[e.cpu]
	grant := now
	if s.cl != nil {
		grant = s.cl.leg(now, s.tab.stages(size), false)
		st.res.ChannelWait[e.cpu] += grant - now
	}
	t := grant + int64(s.tab.cyc[size])

	// 2. The module: behavior from the event, prefetch stalls recomputed
	// in this architecture's clock.
	meta := &b.bt.Modules[c.Route]
	stall := int64(c.Stall)
	switch meta.Kind {
	case mem.KindStream:
		stall = streamStall(&st.mods[c.Route], meta.Depth, int(e.topup), e.hit, t)
	case mem.KindDMA:
		stall = dmaStall(&st.mods[c.Route], t, e.hit)
	}
	t += int64(meta.Latency) + stall

	// 3. Demand backing traffic.
	if e.hasDem {
		t = b.backing(st, e.back, backLeg{int(c.DemandBytes), int(c.DemandL2Off), int(c.DemandDRAM)}, t, false)
	}

	// 4. Background prefetch traffic (does not hold up the CPU).
	if e.prefBack {
		b.backing(st, e.back, backLeg{int(c.PrefBytes), int(c.PrefL2Off), int(c.PrefDRAM)}, t, true)
	}
	return t - now
}

// streamStall mirrors (*replayer).streamStall for one stream module's
// state.
func streamStall(ms *modState, depth, topup int, hit bool, t int64) int64 {
	f := ms.fetch
	q := ms.streamQ
	if q == nil {
		q = make([]int64, 0, depth)
	}
	if !hit {
		q = q[:0]
		last := t
		q = append(q, last)
		for j := 0; j < topup && len(q) < depth; j++ {
			last += f
			q = append(q, last)
		}
		ms.streamQ = q
		return 0
	}
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
	for j := 0; j < topup && len(q) < depth; j++ {
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

// backing mirrors the timing of (*replayer).backing for one
// architecture.
func (b *batchReplayer) backing(st *archState, backCh int32, l backLeg, at int64, pref bool) int64 {
	if !b.bt.HasL2 {
		return b.offChip(st, backCh, l.n, l.dram, at, pref)
	}
	s := &st.slots[backCh]
	grant := at
	if s.cl != nil {
		grant = s.cl.leg(at, s.tab.stages(l.n), pref)
		st.res.ChannelWait[backCh] += grant - at
	}
	t := grant + int64(s.tab.cyc[l.n]) + int64(b.bt.L2Latency)
	if l2 := b.chans.l2DRAMChan; l.l2off > 0 && l2 != -1 {
		t = b.offChip(st, l2, l.l2off, l.dram, t, pref)
	}
	return t
}

// offChip mirrors the timing of (*replayer).offChip for one
// architecture and returns the completion cycle. On uncontended
// clusters every grant is the asking cycle (for split components both
// the address and the data phase).
func (b *batchReplayer) offChip(st *archState, ch int32, n, dramLat int, at int64, pref bool) int64 {
	s := &st.slots[ch]
	ct := s.tab
	if s.split {
		if s.cl == nil {
			return at + int64(ct.cyc[4]) + int64(dramLat) + int64(ct.cyc[n])
		}
		addrGrant := s.cl.leg(at, ct.stages(4), pref)
		ready := addrGrant + int64(ct.cyc[4]) + int64(dramLat)
		dataGrant := s.cl.leg(ready, ct.stages(n), pref)
		st.res.ChannelWait[ch] += (addrGrant - at) + (dataGrant - ready)
		return dataGrant + int64(ct.cyc[n])
	}
	grant := at
	if s.cl != nil {
		held := int(ct.cyc[n]) + dramLat
		if held > 62 {
			held = 62
		}
		grant = s.cl.leg(at, deadStages[held], pref)
		st.res.ChannelWait[ch] += grant - at
	}
	return grant + int64(ct.cyc[n]) + int64(dramLat)
}
