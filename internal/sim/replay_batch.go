// Phase B of the two-phase simulator: connectivity replay. One pass
// over the behavior event trace re-times K connectivity architectures
// simultaneously; a single candidate is simply K=1.
//
// ReplayBatch performs only the connectivity-dependent work — bus
// arbitration through the reservation-table schedulers, transfer and
// DRAM-latency arithmetic, and energy accounting — with all module
// behavior read from the flat event arrays. When the exploration holds
// many candidates for the same captured behavior — the common case,
// since ConEx enumerates hundreds of connectivity mappings per memory
// architecture — walking the trace once per candidate would re-decode
// identical event streams K times. ReplayBatch decodes each event
// exactly once and applies it to every architecture in an inner loop
// over dense struct-of-arrays state: per-(arch,channel) component,
// cycle and energy tables live in flat arrays indexed a*numChannels+ch,
// per-(arch,module) prefetch state in flat arrays indexed
// a*numModules+m.
//
// Two structural facts make the batch pass much cheaper than K
// one-architecture replays while staying bit-exact:
//
//   - Contention analysis. The replayed CPU is blocking (one
//     outstanding access; the clock advances past every demand leg
//     before the next event), so the only reservations that can overlap
//     a later, earlier-timed query are the background prefetch legs.
//     A cluster that never receives prefetch traffic therefore grants
//     every request at its asking cycle with zero conflicts: the
//     reservation-table scheduler is provably a no-op there, and the
//     batch replayer skips it (counting the issue) instead of searching
//     and marking bitmaps. Real schedulers are built only for clusters
//     that back a prefetching module (or the L2<->DRAM cluster of a
//     prefetching system, which prefetch misses forward to).
//
//   - Shared timing tables. Transfer-cycle, transfer-energy and
//     reservation-stage tables depend only on a component's timing
//     parameters, not on which architecture uses it, so architectures
//     assigning the same library component share one set of dense
//     tables for the whole batch instead of rebuilding ~(MaxBytes ×
//     MaxDRAMLat) stage lists per replay.
//
// Events that reduce to a pure on-chip hit (no stall, no backing
// traffic, non-prefetching module) are classified once per batch and
// handled by a short fast path on uncontended architectures.
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
// component with identical timing parameters. plain and dead are filled
// lazily (and only touched for contended clusters).
type compTables struct {
	cyc   []int32   // n -> TransferCycles(n)
	en    []float64 // n -> TransferEnergy(n)
	plain [][]rtable.Stage
	dead  [][]rtable.Stage
}

// compSig identifies a component up to replay timing and energy: name,
// class, port bounds and area are deliberately excluded.
type compSig struct {
	width, arb, beat int
	pipelined        bool
	epb              float64
}

// batchReplayer holds the state of one ReplayBatch pass.
type batchReplayer struct {
	bt *BehaviorTrace
	k  int // architectures
	nc int // channels
	nm int // modules

	// Shared, behavior-trace-derived (identical for every arch).
	cpuChan    []int32 // module -> CPU channel
	backChan   []int32 // module -> backing channel (-1 if none)
	directChan int32
	l2DRAMChan int32
	pure       []bool // event -> pure on-chip hit (fast-path eligible)

	// Flat per-(arch,channel) tables, indexed a*nc+ch.
	comps  []*connect.Component
	cont   []bool // channel's cluster is contended on this arch
	scheds []*rtable.Scheduler
	tabs   []*compTables

	// Flat per-(arch,module) prefetch state, indexed a*nm+m.
	fetch   []int64
	streamQ [][]int64
	dmaLast []int64

	// Per-arch accumulators.
	archScheds [][]*rtable.Scheduler // real schedulers (contended clusters only)
	fastIssues []int64               // trivially granted issues (uncontended clusters)
	now        []int64
	res        []Result
}

func newBatchReplayer(bt *BehaviorTrace, archs []*connect.Arch) *batchReplayer {
	k, nc, nm := len(archs), len(bt.Channels), len(bt.Modules)
	b := &batchReplayer{
		bt: bt, k: k, nc: nc, nm: nm,
		cpuChan:    make([]int32, nm),
		backChan:   make([]int32, nm),
		directChan: -1,
		l2DRAMChan: -1,
		comps:      make([]*connect.Component, k*nc),
		cont:       make([]bool, k*nc),
		scheds:     make([]*rtable.Scheduler, k*nc),
		tabs:       make([]*compTables, k*nc),
		fetch:      make([]int64, k*nm),
		streamQ:    make([][]int64, k*nm),
		dmaLast:    make([]int64, k*nm),
		archScheds: make([][]*rtable.Scheduler, k),
		fastIssues: make([]int64, k),
		now:        make([]int64, k),
		res:        make([]Result, k),
	}
	for m := range b.backChan {
		b.backChan[m] = -1
	}
	clusterOf := make([]int32, nc) // per-arch scratch
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

	// Classify events once for the whole batch: which modules generate
	// background prefetch traffic (the only source of scheduler
	// contention, see the package comment) and which events are pure
	// on-chip hits.
	modHasPref := make([]bool, nm)
	anyPref := false
	b.pure = make([]bool, len(bt.Route))
	for i, route := range bt.Route {
		if route < 0 {
			continue
		}
		if bt.PrefBytes[i] > 0 {
			modHasPref[route] = true
			anyPref = true
		}
		if bt.Flags[i]&flagHit == 0 || bt.Stall[i] != 0 ||
			bt.DemandBytes[i] != 0 || bt.PrefBytes[i] != 0 {
			continue
		}
		if kind := bt.Modules[route].Kind; kind == mem.KindStream || kind == mem.KindDMA {
			continue
		}
		b.pure[i] = true
	}

	// Per-architecture wiring: dense component/table slots, contended
	// clusters, real schedulers only where contention is possible.
	intern := map[compSig]*compTables{}
	for a, arch := range archs {
		for ci := range bt.Channels {
			clusterOf[ci] = int32(arch.ComponentOf(ci))
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
		clSched := make([]*rtable.Scheduler, len(arch.Clusters))
		for ci := range bt.Channels {
			x := a*nc + ci
			cl := clusterOf[ci]
			comp := &arch.Assign[cl]
			b.comps[x] = comp
			sig := compSig{comp.WidthBytes, comp.ArbCycles, comp.BeatCycles, comp.Pipelined, comp.EnergyPerByte}
			ct := intern[sig]
			if ct == nil {
				ct = &compTables{
					cyc: make([]int32, bt.MaxBytes+1),
					en:  make([]float64, bt.MaxBytes+1),
				}
				for n := 0; n <= bt.MaxBytes; n++ {
					ct.cyc[n] = int32(comp.TransferCycles(n))
					ct.en[n] = comp.TransferEnergy(n)
				}
				intern[sig] = ct
			}
			b.tabs[x] = ct
			if contCl[cl] {
				b.cont[x] = true
				if clSched[cl] == nil {
					clSched[cl] = rtable.NewScheduler(connect.NumResources())
					b.archScheds[a] = append(b.archScheds[a], clSched[cl])
				}
				b.scheds[x] = clSched[cl]
			}
		}
		// Actual fetch latencies, mirroring sim.New's readiness wiring.
		for m := 0; m < nm; m++ {
			if bc := b.backChan[m]; bc != -1 {
				f := b.comps[a*nc+int(bc)].TransferCycles(32)
				if bt.HasL2 {
					f += bt.L2Latency
				} else {
					f += bt.DRAMRowHit
				}
				b.fetch[a*nm+m] = int64(f)
			}
		}
		b.res[a].ChannelBytes = make([]int64, nc)
		b.res[a].ChannelWait = make([]int64, nc)
		b.res[a].ChannelTransfers = make([]int64, nc)
	}
	return b
}

// plainStages returns the memoized plain-transfer stages for slot x
// (shared per distinct component across the batch).
func (b *batchReplayer) plainStages(x, n int) []rtable.Stage {
	ct := b.tabs[x]
	if ct.plain == nil {
		ct.plain = make([][]rtable.Stage, b.bt.MaxBytes+1)
	}
	if st := ct.plain[n]; st != nil {
		return st
	}
	st := b.comps[x].Stages(n)
	ct.plain[n] = st
	return st
}

// deadStages returns the memoized stages of a non-split off-chip
// transaction holding the bus through dead DRAM cycles.
func (b *batchReplayer) deadStages(x, n, dead int) []rtable.Stage {
	ct := b.tabs[x]
	if ct.dead == nil {
		ct.dead = make([][]rtable.Stage, (b.bt.MaxBytes+1)*(b.bt.MaxDRAMLat+1))
	}
	idx := n*(b.bt.MaxDRAMLat+1) + dead
	if st := ct.dead[idx]; st != nil {
		return st
	}
	st := deadTimeStages(b.comps[x], n, dead)
	ct.dead[idx] = st
	return st
}

// run replays every window of the behavior trace for every arch.
func (b *batchReplayer) run() {
	bt := b.bt
	nmods := b.nm
	pos := 0
	for wi, wlen := range bt.WindowLen {
		if bt.GapCycles[wi] > 0 {
			rs := bt.Resync[wi*nmods*2 : (wi+1)*nmods*2]
			for a := 0; a < b.k; a++ {
				gapStart := b.now[a]
				b.now[a] += bt.GapCycles[wi]
				b.applyResync(a, rs, gapStart)
			}
		}
		for i := pos; i < pos+int(wlen); i++ {
			if b.pure[i] {
				route := bt.Route[i]
				size := int(bt.Size[i])
				ch := b.cpuChan[route]
				modLat := int64(bt.Modules[route].Latency)
				modEnergy := bt.Modules[route].Energy
				for a := 0; a < b.k; a++ {
					x := a*b.nc + int(ch)
					if b.cont[x] {
						b.slowEvent(a, i)
						continue
					}
					// Pure on-chip hit on an uncontended cluster: the
					// grant is the asking cycle, so the whole event
					// reduces to table lookups. The two energy adds
					// stay separate and ordered to match event().
					ct := b.tabs[x]
					lat := int64(ct.cyc[size]) + modLat
					r := &b.res[a]
					r.EnergyNJ += ct.en[size]
					r.EnergyNJ += modEnergy
					r.ChannelBytes[ch] += int64(size)
					r.ChannelTransfers[ch]++
					r.Hits++
					b.fastIssues[a]++
					r.Accesses++
					r.TotalLatency += lat
					r.LatencyHist[latBucket(int(lat))]++
					r.Cycles += lat + 1
					b.now[a] += lat + 1
				}
			} else {
				for a := 0; a < b.k; a++ {
					b.slowEvent(a, i)
				}
			}
		}
		pos += int(wlen)
	}
	for a := 0; a < b.k; a++ {
		issues, conflicts := schedTotals(b.archScheds[a])
		b.res[a].SchedIssues = issues + b.fastIssues[a]
		b.res[a].SchedConflicts = conflicts
	}
}

// slowEvent is the full per-event path, with the same accounting as the
// reference replayer's run loop.
func (b *batchReplayer) slowEvent(a, i int) {
	lat := b.event(a, i)
	r := &b.res[a]
	r.Accesses++
	r.TotalLatency += int64(lat)
	r.LatencyHist[latBucket(lat)]++
	r.Cycles += int64(lat) + 1
	b.now[a] += int64(lat) + 1
}

// applyResync mirrors (*replayer).applyResync for arch a.
func (b *batchReplayer) applyResync(a int, resync []int32, gapStart int64) {
	now := b.now[a]
	gap := now - gapStart
	for mi := range b.bt.Modules {
		switch b.bt.Modules[mi].Kind {
		case mem.KindStream:
			refills := int64(resync[2*mi])
			anchor := int64(resync[2*mi+1])
			q := b.streamQ[a*b.nm+mi]
			if len(q) == 0 && refills == 0 && anchor < 0 {
				continue // never touched: nothing to rebuild
			}
			f := b.fetch[a*b.nm+mi]
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
			b.streamQ[a*b.nm+mi] = q
		case mem.KindDMA:
			b.dmaLast[a*b.nm+mi] = now - int64(resync[2*mi])
		}
	}
}

// event replays one access event for arch a, mirroring
// (*replayer).event step for step.
func (b *batchReplayer) event(a, i int) int {
	bt := b.bt
	route := bt.Route[i]
	size := int(bt.Size[i])
	now := b.now[a]
	r := &b.res[a]
	if route < 0 {
		done, energy := b.offChip(a, b.directChan, size, int(bt.DemandDRAM[i]), now)
		r.Misses++
		r.EnergyNJ += energy
		r.OffChipBytes += int64(size)
		r.ChannelBytes[b.directChan] += int64(size)
		return int(done - now)
	}

	// 1. CPU <-> module link.
	cpuCh := b.cpuChan[route]
	x := a*b.nc + int(cpuCh)
	grant := now
	if b.cont[x] {
		grant = b.scheds[x].EarliestIssue(now, b.plainStages(x, size))
	} else {
		b.fastIssues[a]++
	}
	ct := b.tabs[x]
	t := grant + int64(ct.cyc[size])
	r.EnergyNJ += ct.en[size]
	r.ChannelBytes[cpuCh] += int64(size)
	r.ChannelWait[cpuCh] += grant - now
	r.ChannelTransfers[cpuCh]++

	// 2. The module: behavior from the event, prefetch stalls recomputed
	// in this architecture's clock.
	meta := &bt.Modules[route]
	hit := bt.Flags[i]&flagHit != 0
	var stall int64
	switch meta.Kind {
	case mem.KindStream:
		stall = b.streamStall(a, route, i, t, hit)
	case mem.KindDMA:
		stall = b.dmaStall(a, route, t, hit)
	default:
		stall = int64(bt.Stall[i])
	}
	t += int64(meta.Latency) + stall
	r.EnergyNJ += meta.Energy
	if hit {
		r.Hits++
	} else {
		r.Misses++
	}

	// 3. Demand backing traffic.
	if bt.DemandBytes[i] > 0 {
		t = b.backing(a, b.backChan[route], int(bt.DemandBytes[i]), int(bt.DemandL2Off[i]), int(bt.DemandDRAM[i]), t)
	}

	// 4. Background prefetch traffic (does not hold up the CPU).
	if bt.PrefBytes[i] > 0 {
		if bc := b.backChan[route]; bc != -1 {
			b.backing(a, bc, int(bt.PrefBytes[i]), int(bt.PrefL2Off[i]), int(bt.PrefDRAM[i]), t)
		}
	}
	return int(t - now)
}

// streamStall mirrors (*replayer).streamStall for arch a.
func (b *batchReplayer) streamStall(a int, route int16, i int, t int64, hit bool) int64 {
	bt := b.bt
	meta := &bt.Modules[route]
	mi := a*b.nm + int(route)
	f := b.fetch[mi]
	q := b.streamQ[mi]
	if q == nil {
		q = make([]int64, 0, meta.Depth)
	}
	topup := 0
	if meta.LineBytes > 0 {
		topup = int(bt.PrefBytes[i]) / meta.LineBytes
	}
	if !hit {
		q = q[:0]
		last := t
		q = append(q, last)
		for j := 0; j < topup && len(q) < meta.Depth; j++ {
			last += f
			q = append(q, last)
		}
		b.streamQ[mi] = q
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
	for j := 0; j < topup && len(q) < meta.Depth; j++ {
		last += f
		q = append(q, last)
	}
	b.streamQ[mi] = q
	return stall
}

// dmaStall mirrors (*replayer).dmaStall for arch a.
func (b *batchReplayer) dmaStall(a int, route int16, t int64, hit bool) int64 {
	mi := a*b.nm + int(route)
	last := b.dmaLast[mi]
	b.dmaLast[mi] = t
	if !hit {
		return 0
	}
	if ready := last + b.fetch[mi]; ready > t {
		return ready - t
	}
	return 0
}

// backing mirrors (*replayer).backing for arch a.
func (b *batchReplayer) backing(a int, backCh int32, n, l2off, dramLat int, at int64) int64 {
	r := &b.res[a]
	if !b.bt.HasL2 {
		done, energy := b.offChip(a, backCh, n, dramLat, at)
		r.EnergyNJ += energy
		r.OffChipBytes += int64(n)
		r.ChannelBytes[backCh] += int64(n)
		return done
	}
	x := a*b.nc + int(backCh)
	grant := at
	if b.cont[x] {
		grant = b.scheds[x].EarliestIssue(at, b.plainStages(x, n))
	} else {
		b.fastIssues[a]++
	}
	ct := b.tabs[x]
	r.ChannelWait[backCh] += grant - at
	r.ChannelTransfers[backCh]++
	r.ChannelBytes[backCh] += int64(n)
	r.EnergyNJ += ct.en[n]
	t := grant + int64(ct.cyc[n])

	t += int64(b.bt.L2Latency)
	r.EnergyNJ += b.bt.L2Energy
	if l2off > 0 && b.l2DRAMChan != -1 {
		done, energy := b.offChip(a, b.l2DRAMChan, l2off, dramLat, t)
		r.EnergyNJ += energy
		r.OffChipBytes += int64(l2off)
		r.ChannelBytes[b.l2DRAMChan] += int64(l2off)
		t = done
	}
	return t
}

// offChip mirrors (*replayer).offChip for arch a. On uncontended
// clusters every grant is the asking cycle (for split components both
// the address and the data phase), so the scheduler and its stage
// tables are skipped entirely.
func (b *batchReplayer) offChip(a int, ch int32, n, dramLat int, at int64) (int64, float64) {
	x := a*b.nc + int(ch)
	comp := b.comps[x]
	ct := b.tabs[x]
	r := &b.res[a]
	energy := ct.en[n] + b.bt.DRAMEnergy

	r.ChannelTransfers[ch]++
	if comp.Split {
		if !b.cont[x] {
			b.fastIssues[a] += 2
			return at + int64(ct.cyc[4]) + int64(dramLat) + int64(ct.cyc[n]), energy
		}
		sched := b.scheds[x]
		addrGrant := sched.EarliestIssue(at, b.plainStages(x, 4))
		ready := addrGrant + int64(ct.cyc[4]) + int64(dramLat)
		dataGrant := sched.EarliestIssue(ready, b.plainStages(x, n))
		r.ChannelWait[ch] += (addrGrant - at) + (dataGrant - ready)
		return dataGrant + int64(ct.cyc[n]), energy
	}
	if !b.cont[x] {
		b.fastIssues[a]++
		return at + int64(ct.cyc[n]) + int64(dramLat), energy
	}
	stages := b.deadStages(x, n, dramLat)
	grant := b.scheds[x].EarliestIssue(at, stages)
	r.ChannelWait[ch] += grant - at
	return grant + int64(comp.ArbCycles+dramLat+comp.Beats(n)*comp.BeatCycles), energy
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
