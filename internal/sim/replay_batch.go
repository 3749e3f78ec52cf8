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
//
// Per (architecture, class) the batch then compiles the class into a
// plan: the legs of its access on the architecture's wiring, each with
// its cluster, its stages or run length, the cycles before its ask and
// the channel its wait is booked to, plus the module's latency and,
// for a stream buffer or DMA, what its stall is recomputed from. A
// transfer on an uncontended cluster (below) is granted at its asking
// cycle, so it folds into the cycles around the contended legs. A
// class is fast when its plan has no contended leg and no recomputed
// stall: its latency is then a constant, read off once by running the
// plan at cycle 0. Energy never depends on timing, so every class's
// row holds the event's energy addends, in the order replayReference
// adds them. The trace is walked twice, neither pass touching the
// per-event fields:
//
//   - The clock pass, for each architecture with slow classes: a fast
//     event advances the clock by its constant, a slow one interprets
//     its plan, the one timing path of the batch. Fast latencies are
//     booked as count × constant at the end; integer sums may be
//     reordered.
//
//   - The energy pass, which never needs the clock: each architecture's
//     sum is the very float sum replayReference builds in trace order,
//     so results do not depend on which architectures share a batch.
//     Within each binade of the running sum, adding an addend is adding
//     its rounded count of the binade's ulps, so a class adds a fixed
//     integer per event and a block of events adds Σ count × integer
//     from a class histogram the batch builds once; only an event
//     leaving its binade, ties and a few corner cases are added in
//     floats (energy.go has the argument).
//
// Contention. The replayed CPU is blocking: it has one outstanding
// access, and the clock advances past every demand leg before the next
// leg asks. Every stage list of a transfer ends by the time the
// transfer completes (checkReplayArch admits only components that
// connect.ValidateComponent accepts, whose tables guarantee it), so a
// demand reservation can never overlap a later query; only background
// prefetch legs can. Hence:
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
//   - A contended cluster on a non-split component whose channels
//     carry only off-chip transactions (the direct and L2<->DRAM
//     channels, and the backing channels of a system without an L2)
//     carries only dead-time legs, whose two stages hold resources 0
//     and 1 over the same cycles. Its scheduler's two rows therefore
//     stay equal, and a search tests resource 0 first and reaches
//     resource 1 only where 0 is free, so it finds the same grants and
//     conflicts on one row: such a cluster gets a one-row scheduler
//     and rtable's run form. Split and on-chip clusters keep the
//     stage lists.
//
// Each bypass still counts its issue and slides the scheduler's window
// exactly as EarliestIssue would. That matters: the window forgets
// reservations that fall behind it, so a prefetch pushed far into the
// future makes later, earlier-asking queries read older reservations as
// free, and results stay bit-exact only if every window slide happens
// where the reference makes it.
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
	"slices"

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
// a contended stage-list cluster uses the component and filled on
// first use.
type compTables struct {
	comp  *connect.Component // the first component with these parameters
	cyc   []int32            // n -> TransferCycles(n)
	en    []float64          // n -> TransferEnergy(n)
	plain [][]rtable.Stage   // n -> Stages(n)
}

// stages returns the memoized plain-transfer stages of n bytes.
func (ct *compTables) stages(n int) *[]rtable.Stage {
	st := &ct.plain[n]
	if *st == nil {
		*st = ct.comp.Stages(n)
	}
	return st
}

// compSig identifies a component up to replay timing and energy: name,
// class, port bounds and area are deliberately excluded.
type compSig struct {
	width, arb, beat int
	pipelined        bool
	epb              float64
}

// cluster is the reservation state of one contended cluster of one
// architecture.
type cluster struct {
	sched   *rtable.Scheduler
	horizon int64 // latest end of any prefetch reservation
	row     bool  // dead-time legs only: one resource, run form
}

// leg returns the grant of leg l asking l.pre cycles after cycle t and
// books its wait; pref marks background prefetch traffic. See the
// package comment for why skipped searches and reservations leave
// every grant unchanged.
func (st *archState) leg(l *busLeg, t int64, pref bool) int64 {
	at := t + l.pre
	c := l.cl
	search := at < c.horizon
	s := c.sched
	g := at
	if l.st == nil {
		n := int(l.n)
		switch {
		case search && pref:
			g = s.EarliestIssueRun(at, n)
		case search:
			g = s.QueryRun(at, n)
		case pref:
			s.ReserveRun(at, n)
		default:
			s.GrantRun(at, n)
		}
	} else {
		switch {
		case search && pref:
			g = s.EarliestIssue(at, *l.st)
		case search:
			g = s.Query(at, *l.st)
		case pref:
			s.Reserve(at, *l.st)
		default:
			s.Grant(at, *l.st)
		}
	}
	if pref {
		c.horizon = max(c.horizon, g+int64(l.n))
	}
	st.wait[l.wait] += g - at
	return g
}

// slot is the wiring of one (arch, channel) pair.
type slot struct {
	tab   *compTables
	cl    *cluster // nil when uncontended: every grant is the asking cycle
	split bool     // split-transaction component
}

// modState is the prefetch state of one module on one architecture.
type modState struct {
	fetch   int64   // actual fetch latency on this architecture
	streamQ []int64 // stream buffer: readyAt FIFO (len == Depth once touched)
	dmaLast int64   // DMA: last touch cycle
}

// classRow is how one architecture replays one event class: the
// event's energy addends are addends[lo:hi]; a fast class has the
// constant latency lat and plan -1, a slow one is replayed by
// interpreting plans[plan].
type classRow struct {
	lat    int64
	lo, hi int32
	plan   int32
}

// busLeg is one transfer of a compiled plan on a contended cluster.
// It asks pre cycles after the previous leg's grant (or the start of
// its path). On a one-row cluster it holds the run [0, n) of its grant
// and st is nil; elsewhere it holds the stages *st, which end n cycles
// after the grant. Its wait is booked to channel wait.
type busLeg struct {
	cl   *cluster
	st   *[]rtable.Stage
	pre  int64
	n    int32
	wait int32
}

// plan is an event class compiled for one architecture: everything its
// timing needs, read from the class, the module metadata and the
// architecture's wiring once instead of at every event. It has three
// paths, each a chain of n[i] legs ending tail[i] cycles after the
// last grant (or after its start, when it has no legs): uncontended
// transfers are granted at their asking cycle, so they fold into the
// cycles around the contended ones. The paths are
//
//  0. the CPU link, or a direct access's off-chip transaction;
//  1. the module's latency and recorded stall, then the demand backing;
//  2. the background prefetch backing, from the demand's end.
//
// Their legs are legs[lo:] of the batch, path after path. A stream
// buffer or a DMA (pf) recomputes its stall between paths 0 and 1 from
// its state mods[mod]; a stream event tops up topup lines.
type plan struct {
	tail  [3]int64
	lo    int32
	n     [3]uint8
	pf    uint8
	hit   bool
	mod   int16
	topup int32
}

// Prefetch stalls a plan recomputes.
const (
	pfNone = iota
	pfStream
	pfDMA
)

// slow reports whether the plan depends on the replay clock: it waits
// on a contended cluster or recomputes a prefetch stall.
func (p *plan) slow() bool {
	return p.n != [3]uint8{} || p.pf != pfNone
}

// archState is the replay state of one architecture of the batch. Its
// slots, mods and rows are windows of flat arrays shared by the batch.
type archState struct {
	now        int64
	res        *Result
	wait       []int64    // res.ChannelWait
	slots      []slot     // channel -> wiring
	mods       []modState // module -> prefetch state
	rows       []classRow // event class -> replay plan
	anySlow    bool       // some class is slow: the clock must be kept
	clusters   []*cluster // contended clusters
	splitChans []int32    // off-chip channels on split components (two issues per leg)
	energy     energySum  // see runEnergy
}

// batchReplayer holds the state of one ReplayBatch pass.
type batchReplayer struct {
	bt     *BehaviorTrace
	chans  chanMap
	shared Result // the architecture-independent counters

	// addends holds the energy addends of every (arch, class) pair.
	addends []float64
	// plans holds the compiled plan of every slow (arch, class) pair,
	// legs their contended legs; scratch is compile's buffer while
	// they are counted.
	plans   []plan
	legs    []busLeg
	scratch []busLeg

	archs []archState
	res   []Result
}

func newBatchReplayer(bt *BehaviorTrace, archs []*connect.Arch) *batchReplayer {
	k, nc, nm, ncl := len(archs), len(bt.Channels), len(bt.Modules), len(bt.Classes)
	b := &batchReplayer{
		bt:    bt,
		chans: newChanMap(bt.Channels, len(bt.Modules)),
		archs: make([]archState, k),
		res:   make([]Result, k),
	}
	slots := make([]slot, k*nc)
	mods := make([]modState, k*nm)
	rows := make([]classRow, k*ncl)
	b.countShared()
	var nplans, nlegs int

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

	// Which channels carry off-chip transactions only (the legs of
	// compileOffChip): the direct channel, the L2<->DRAM channel of an
	// L2 system, and the backing channels of a system without one.
	deadTime := make([]bool, nc)
	transactions := []int32{b.chans.direct, b.chans.l2DRAMChan}
	if !bt.HasL2 {
		transactions = append(transactions[:1], b.chans.back...)
	}
	for _, ch := range transactions {
		if ch != -1 {
			deadTime[ch] = true
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
					// A non-split cluster of off-chip transactions carries
					// only dead-time legs, which hold both resources over
					// the same cycles: one row answers alike (see the
					// package comment).
					c := &cluster{row: !comp.Split}
					for _, ch := range arch.Clusters[cl] {
						c.row = c.row && deadTime[ch]
					}
					if c.row {
						c.sched = rtable.NewScheduler(1)
					} else {
						c.sched = rtable.NewScheduler(connect.NumResources())
						if ct.plain == nil {
							ct.plain = make([][]rtable.Stage, bt.MaxBytes+1)
						}
					}
					cls[cl] = c
					st.clusters = append(st.clusters, c)
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
		st.wait = make([]int64, nc)
		st.res.ChannelWait = st.wait
		p, l := b.planClasses(st, nplans)
		nplans += p
		nlegs += l
		if a == 0 {
			// Every arch has as many energy addends as the first.
			b.addends = slices.Grow(b.addends, (k-1)*len(b.addends))
		}
	}
	b.plans = make([]plan, nplans)
	b.legs = make([]busLeg, 0, nlegs)
	for a := range b.archs {
		b.compileSlow(&b.archs[a])
	}
	return b
}

// planClasses fills an architecture's class rows: every class's energy
// addends, and a fast class's latency, read off by replaying its plan
// at cycle 0. A slow class is numbered from first, to be compiled once
// the batch's plans and legs are allocated; planClasses returns how
// many plans and legs the architecture's slow classes need.
func (b *batchReplayer) planClasses(st *archState, first int) (plans, legs int) {
	for ci := range b.bt.Classes {
		c := &b.bt.Classes[ci]
		row := &st.rows[ci]
		row.lo = int32(len(b.addends))
		b.addends = b.energy(st, c, b.addends)
		row.hi = int32(len(b.addends))
		var p plan
		p, b.scratch = b.compile(st, c, b.scratch[:0])
		if p.slow() {
			row.plan = int32(first + plans)
			plans++
			legs += len(b.scratch)
			st.anySlow = true
		} else {
			row.plan = -1
			row.lat = b.replay(st, &p, 0)
		}
	}
	return plans, legs
}

// compileSlow compiles an architecture's slow classes into the batch's
// plans and legs.
func (b *batchReplayer) compileSlow(st *archState) {
	for ci, row := range st.rows {
		if row.plan >= 0 {
			b.plans[row.plan], b.legs = b.compile(st, &b.bt.Classes[ci], b.legs)
		}
	}
}

// compile builds the plan of class c on an architecture, mirroring
// replayReference's event, backing and offChip step for step, and
// appends its contended legs to legs.
func (b *batchReplayer) compile(st *archState, c *EventClass, legs []busLeg) (plan, []busLeg) {
	e := &c.view
	pb := pathBuilder{legs: legs, lo: len(legs)}
	p := plan{lo: int32(len(legs))}
	if c.Route < 0 {
		b.compileOffChip(&pb, st, e.cpu, int(c.Size), int(c.DemandDRAM))
		p.n[0], p.tail[0] = pb.end()
		return p, pb.legs
	}
	pb.plain(st, e.cpu, int(c.Size), 0)
	p.n[0], p.tail[0] = pb.end()

	// The module: behavior from the event; a stream buffer's or a DMA's
	// stall is recomputed in the replay's clock.
	meta := &b.bt.Modules[c.Route]
	pb.pend = int64(meta.Latency)
	switch meta.Kind {
	case mem.KindStream:
		p.pf, p.mod, p.topup, p.hit = pfStream, c.Route, e.topup, e.hit
	case mem.KindDMA:
		p.pf, p.mod, p.hit = pfDMA, c.Route, e.hit
	default:
		pb.pend += int64(c.Stall)
	}
	if e.hasDem {
		b.compileBacking(&pb, st, e.back, int(c.DemandBytes), int(c.DemandL2Off), int(c.DemandDRAM))
	}
	p.n[1], p.tail[1] = pb.end()
	if e.prefBack {
		b.compileBacking(&pb, st, e.back, int(c.PrefBytes), int(c.PrefL2Off), int(c.PrefDRAM))
	}
	p.n[2], p.tail[2] = pb.end()
	return p, pb.legs
}

// compileBacking adds one backing transaction of n bytes on channel
// back, l2off of which the L2 forwards to DRAM.
func (b *batchReplayer) compileBacking(pb *pathBuilder, st *archState, back int32, n, l2off, dramLat int) {
	if !b.bt.HasL2 {
		b.compileOffChip(pb, st, back, n, dramLat)
		return
	}
	pb.plain(st, back, n, int64(b.bt.L2Latency))
	if l2 := b.chans.l2DRAMChan; l2off > 0 && l2 != -1 {
		b.compileOffChip(pb, st, l2, l2off, dramLat)
	}
}

// compileOffChip adds an off-chip transaction of n bytes on channel
// ch: a split component's address and data phases, or one leg holding
// the bus through the DRAM's dead time, clamped to the stage window as
// deadTimeStages clamps it. A decoded trace may give the leg no DRAM
// latency (-1); a dead time below 0 then holds the bus for no cycle,
// and the run of 0 slides the window as the stage list of -1 does.
func (b *batchReplayer) compileOffChip(pb *pathBuilder, st *archState, ch int32, n, dramLat int) {
	s := &st.slots[ch]
	if s.split {
		pb.plain(st, ch, 4, int64(dramLat))
		pb.plain(st, ch, n, 0)
		return
	}
	cyc := int(s.tab.cyc[n])
	if s.cl != nil {
		pb.push(busLeg{cl: s.cl, n: int32(min(max(cyc+dramLat, 0), connect.StageWindow)), wait: ch})
	}
	pb.pend += int64(cyc + dramLat)
}

// pathBuilder builds the paths of one plan.
type pathBuilder struct {
	legs []busLeg
	lo   int   // first leg of the open path
	pend int64 // cycles from the last grant (or the path's start) to the next ask
}

// plain adds a transfer of n bytes on channel ch, with extra cycles
// after it.
func (pb *pathBuilder) plain(st *archState, ch int32, n int, extra int64) {
	s := &st.slots[ch]
	if s.cl != nil {
		stages := s.tab.stages(n)
		span := 0
		for _, x := range *stages {
			span = max(span, x.Start+x.Len)
		}
		pb.push(busLeg{cl: s.cl, st: stages, n: int32(span), wait: ch})
	}
	pb.pend += int64(s.tab.cyc[n]) + extra
}

// push appends a contended leg asking the pending cycles after the
// previous grant.
func (pb *pathBuilder) push(l busLeg) {
	l.pre = pb.pend
	pb.legs = append(pb.legs, l)
	pb.pend = 0
}

// end closes the open path, returning its legs and tail, and opens the
// next.
func (pb *pathBuilder) end() (uint8, int64) {
	n, tail := len(pb.legs)-pb.lo, pb.pend
	pb.lo, pb.pend = len(pb.legs), 0
	return uint8(n), tail
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

// countShared adds up the architecture-independent counters from the
// class counts, mirroring replayReference's accounting.
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
// time, and the energy of all archs.
func (b *batchReplayer) run() {
	for a := range b.archs {
		if st := &b.archs[a]; st.anySlow {
			b.runClock(st)
		}
	}
	b.runEnergy()
	sh := &b.shared
	var legs int64
	for _, n := range sh.ChannelTransfers {
		legs += n
	}
	for a := range b.archs {
		st := &b.archs[a]
		r := st.res
		for ci, row := range st.rows {
			if row.plan < 0 {
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

// runEnergy adds up the energy of every arch: the trace-order float
// sum replayReference builds, added as integers within each binade
// (energy.go).
func (b *batchReplayer) runEnergy() {
	nc := len(b.bt.Classes)
	q := make([]uint64, len(b.archs)*nc)
	for a := range b.archs {
		st := &b.archs[a]
		st.energy = newEnergySum(st.rows, b.addends, q[a*nc:(a+1)*nc])
	}
	sumEnergies(b.bt.IDs, nc, b.addends, b.archs)
	for a := range b.archs {
		st := &b.archs[a]
		st.res.EnergyNJ = st.energy.value()
	}
}

// runClock replays every window of the behavior trace for one arch with
// slow classes: a fast event only advances the clock (its latency is
// booked per class by run), a slow one interprets its plan.
func (b *batchReplayer) runClock(st *archState) {
	bt := b.bt
	rows, plans := st.rows, b.plans
	hist := &st.res.LatencyHist
	nmods := len(bt.Modules)
	now, total := st.now, int64(0)
	pos := 0
	for wi, wlen := range bt.WindowLen {
		if bt.GapCycles[wi] > 0 {
			gapStart := now
			now += bt.GapCycles[wi]
			st.now = now
			b.applyResync(st, bt.Resync[wi*nmods*2:(wi+1)*nmods*2], gapStart)
		}
		for _, id := range bt.IDs[pos : pos+int(wlen)] {
			r := &rows[id]
			if r.plan < 0 {
				now += r.lat + 1
				continue
			}
			lat := b.replay(st, &plans[r.plan], now) - now
			total += lat
			hist[latBucket(int(lat))]++
			now += lat + 1
		}
		pos += int(wlen)
	}
	st.now = now
	st.res.TotalLatency += total
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

// replay interprets plan p for an access asking at cycle now on one
// architecture and returns its completion cycle.
func (b *batchReplayer) replay(st *archState, p *plan, now int64) int64 {
	i, t := int(p.lo), now
	for end := i + int(p.n[0]); i < end; i++ {
		t = st.leg(&b.legs[i], t, false)
	}
	t += p.tail[0]
	switch p.pf {
	case pfStream:
		t += streamStall(&st.mods[p.mod], b.bt.Modules[p.mod].Depth, int(p.topup), p.hit, t)
	case pfDMA:
		t += dmaStall(&st.mods[p.mod], t, p.hit)
	}
	for end := i + int(p.n[1]); i < end; i++ {
		t = st.leg(&b.legs[i], t, false)
	}
	t += p.tail[1]
	// The background prefetch does not hold up the CPU.
	for end, pt := i+int(p.n[2]), t; i < end; i++ {
		pt = st.leg(&b.legs[i], pt, true)
	}
	return t
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
