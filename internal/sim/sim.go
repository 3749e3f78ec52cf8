// Package sim is the MemorEx system simulator — the stand-in for the
// paper's SIMPRESS-based cycle-accurate memory model. It replays a
// memory-access trace against a memory-modules architecture and a
// connectivity architecture, modelling module hits and misses, bus
// arbitration and occupancy through reservation-table schedulers,
// split-transaction and pipelined bus behaviour, background prefetch
// traffic, and off-chip DRAM row timing. It reports the three metrics
// the exploration trades off: average memory latency (cycles/access),
// energy (nJ/access), and — through the architecture objects — area.
package sim

import (
	"fmt"
	"math/bits"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/rtable"
	"memorex/internal/trace"
)

// Result accumulates the metrics of one simulation run.
type Result struct {
	Accesses     int64
	TotalLatency int64   // sum over accesses of memory latency in cycles
	Cycles       int64   // total execution cycles (1 CPU cycle + latency per access)
	EnergyNJ     float64 // total energy: modules + connectivity + DRAM
	Hits         int64   // accesses serviced on-chip
	Misses       int64   // accesses needing off-chip traffic
	OffChipBytes int64   // demand + prefetch bytes crossing the chip boundary
	ChannelBytes []int64 // bytes per channel of the memory architecture
	// ChannelWait accumulates arbitration wait cycles per channel: how
	// long transfers sat waiting for their bus. Large values identify
	// the contended connectivity component of a design.
	ChannelWait []int64
	// ChannelTransfers counts transfers per channel.
	ChannelTransfers []int64
	// SchedIssues and SchedConflicts aggregate the reservation-table
	// scheduler activity of the run: transfers scheduled, and busy-run
	// collisions skipped while searching for issue slots. Their ratio
	// is the run's bus-contention measure, fed to the exploration's
	// metrics registry.
	SchedIssues    int64
	SchedConflicts int64
	// LatencyHist is a log2-bucketed histogram of per-access memory
	// latency: LatencyHist[k] counts accesses with latency in
	// [2^k, 2^(k+1)). Bucket 0 also holds zero-latency accesses.
	LatencyHist [24]int64
}

// LatencyPercentile returns the upper bound of the bucket containing the
// p-th percentile access latency (p in [0,100]); e.g. p=99 answers "99%
// of accesses completed within N cycles".
func (r *Result) LatencyPercentile(p float64) int64 {
	if r.Accesses == 0 {
		return 0
	}
	want := int64(p / 100 * float64(r.Accesses))
	if want >= r.Accesses {
		want = r.Accesses - 1
	}
	var cum int64
	for k, c := range r.LatencyHist {
		cum += c
		if cum > want {
			return int64(1) << uint(k+1)
		}
	}
	return int64(1) << uint(len(r.LatencyHist))
}

// AvgLatency returns the average memory latency in cycles per access.
func (r *Result) AvgLatency() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.TotalLatency) / float64(r.Accesses)
}

// AvgEnergy returns the average energy in nJ per access.
func (r *Result) AvgEnergy() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return r.EnergyNJ / float64(r.Accesses)
}

// MissRatio returns the fraction of accesses requiring off-chip service.
func (r *Result) MissRatio() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// Add accumulates o into r (used by the time sampler to merge windows).
func (r *Result) Add(o *Result) {
	r.Accesses += o.Accesses
	r.TotalLatency += o.TotalLatency
	r.Cycles += o.Cycles
	r.EnergyNJ += o.EnergyNJ
	r.Hits += o.Hits
	r.Misses += o.Misses
	r.OffChipBytes += o.OffChipBytes
	r.ChannelBytes = addChannelCounts(r.ChannelBytes, o.ChannelBytes)
	r.ChannelWait = addChannelCounts(r.ChannelWait, o.ChannelWait)
	r.ChannelTransfers = addChannelCounts(r.ChannelTransfers, o.ChannelTransfers)
	r.SchedIssues += o.SchedIssues
	r.SchedConflicts += o.SchedConflicts
	for i := range o.LatencyHist {
		r.LatencyHist[i] += o.LatencyHist[i]
	}
}

// addChannelCounts accumulates o into dst element-wise, growing dst when
// the operand covers more channels than the receiver has seen so far.
func addChannelCounts(dst, o []int64) []int64 {
	if len(o) > len(dst) {
		grown := make([]int64, len(o))
		copy(grown, dst)
		dst = grown
	}
	for i := range o {
		dst[i] += o[i]
	}
	return dst
}

// Simulator drives one architecture against a trace. Create one per run;
// it clones the memory architecture so module state is private.
type Simulator struct {
	memArch  *mem.Architecture
	connArch *connect.Arch
	channels []mem.Channel

	// routeTab flattens memArch's route map into a dense per-DSID table
	// (routeDef for IDs beyond it), so the per-access hot path avoids a
	// map lookup.
	routeTab []int16
	routeDef int16

	// cpuChan[m] is the channel index of module m's CPU link;
	// backChan[m] of its backing link (to DRAM, or to the shared L2
	// when present; -1 if none). directChan is the cpu<->dram channel
	// and l2DRAMChan the l2<->dram channel (-1 if absent).
	cpuChan    []int
	backChan   []int
	directChan int
	l2DRAMChan int

	// One scheduler per connectivity cluster (physical component).
	scheds []*rtable.Scheduler

	// stageCache memoizes reservation-stage lists: building them
	// allocates, and the same few transfer shapes repeat millions of
	// times. Key: cluster index, transfer bytes, dead-time cycles
	// (-1 for plain transfers).
	stageCache map[stageKey][]rtable.Stage

	res Result
	now int64
}

type stageKey struct {
	cluster int
	bytes   int
	dead    int
}

// stagesFor returns the memoized plain-transfer stages of n bytes on the
// component serving channel ch.
func (s *Simulator) stagesFor(ch, n int) []rtable.Stage {
	ci := s.connArch.ComponentOf(ch)
	key := stageKey{cluster: ci, bytes: n, dead: -1}
	if st, ok := s.stageCache[key]; ok {
		return st
	}
	st := s.connArch.Assign[ci].Stages(n)
	s.stageCache[key] = st
	return st
}

// deadStagesFor returns the memoized stages of a non-split off-chip
// transaction holding the bus through dead cycles of DRAM latency.
func (s *Simulator) deadStagesFor(ch, n, dead int) []rtable.Stage {
	ci := s.connArch.ComponentOf(ch)
	key := stageKey{cluster: ci, bytes: n, dead: dead}
	if st, ok := s.stageCache[key]; ok {
		return st
	}
	st := deadTimeStages(&s.connArch.Assign[ci], n, dead)
	s.stageCache[key] = st
	return st
}

// New builds a simulator for the given trace-independent configuration.
// The memory architecture is cloned; the connectivity architecture must
// have been built for exactly memArch.Channels().
func New(memArch *mem.Architecture, connArch *connect.Arch) (*Simulator, error) {
	if err := memArch.Validate(); err != nil {
		return nil, err
	}
	if err := connArch.Validate(); err != nil {
		return nil, err
	}
	channels := memArch.Channels()
	if len(channels) != len(connArch.Channels) {
		return nil, fmt.Errorf("sim: connectivity architecture covers %d channels, memory architecture has %d",
			len(connArch.Channels), len(channels))
	}
	for i := range channels {
		if channels[i] != connArch.Channels[i] {
			return nil, fmt.Errorf("sim: channel %d mismatch between architectures", i)
		}
	}
	s := &Simulator{
		memArch:    memArch.Clone(),
		connArch:   connArch,
		channels:   channels,
		cpuChan:    make([]int, len(memArch.Modules)),
		backChan:   make([]int, len(memArch.Modules)),
		directChan: -1,
		l2DRAMChan: -1,
	}
	s.routeTab, s.routeDef = buildRouteTable(memArch)
	for i := range s.backChan {
		s.backChan[i] = -1
	}
	for ci, ch := range channels {
		switch ch.Kind {
		case mem.ChanCPUModule:
			s.cpuChan[ch.Module] = ci
		case mem.ChanModuleDRAM, mem.ChanModuleL2:
			s.backChan[ch.Module] = ci
		case mem.ChanCPUDRAM:
			s.directChan = ci
		case mem.ChanL2DRAM:
			s.l2DRAMChan = ci
		}
	}
	s.scheds = make([]*rtable.Scheduler, len(connArch.Clusters))
	for i := range s.scheds {
		s.scheds[i] = rtable.NewScheduler(connect.NumResources())
	}
	s.stageCache = make(map[stageKey][]rtable.Stage)
	s.res.ChannelBytes = make([]int64, len(channels))
	s.res.ChannelWait = make([]int64, len(channels))
	s.res.ChannelTransfers = make([]int64, len(channels))
	// Tell prefetching modules what their fetch path costs, so their
	// readiness model matches this architecture.
	for mi, m := range s.memArch.Modules {
		if dc := s.backChan[mi]; dc != -1 {
			comp := s.comp(dc)
			fetch := comp.TransferCycles(32)
			if s.memArch.L2 != nil {
				// Common case: the prefetch hits the shared L2.
				fetch += s.memArch.L2.Latency()
			} else {
				fetch += s.memArch.DRAM.RowHitCycles
			}
			m.SetFetchLatency(fetch)
		}
	}
	return s, nil
}

// comp returns the component serving channel ch.
func (s *Simulator) comp(ch int) *connect.Component {
	ci := s.connArch.ComponentOf(ch)
	return &s.connArch.Assign[ci]
}

func (s *Simulator) sched(ch int) *rtable.Scheduler {
	return s.scheds[s.connArch.ComponentOf(ch)]
}

// routeOf returns the module index serving ds (negative for direct
// DRAM), through the precomputed dense table.
func (s *Simulator) routeOf(ds trace.DSID) int {
	if int(ds) < len(s.routeTab) {
		return int(s.routeTab[ds])
	}
	return int(s.routeDef)
}

// Run replays the whole trace and returns the accumulated result.
func (s *Simulator) Run(t *trace.Trace) (*Result, error) {
	return s.RunWindow(t, 0, t.NumAccesses())
}

// RunWindow replays accesses [lo, hi) of the trace, continuing from the
// simulator's current clock. Used by the time-sampling estimator.
func (s *Simulator) RunWindow(t *trace.Trace, lo, hi int) (*Result, error) {
	if lo < 0 || hi > t.NumAccesses() || lo > hi {
		return nil, fmt.Errorf("sim: window [%d,%d) out of range (trace has %d accesses)",
			lo, hi, t.NumAccesses())
	}
	for i := lo; i < hi; i++ {
		lat := s.access(t.Accesses[i])
		s.res.Accesses++
		s.res.TotalLatency += int64(lat)
		s.res.LatencyHist[latBucket(lat)]++
		s.res.Cycles += int64(lat) + 1
		s.now += int64(lat) + 1
	}
	r := s.res
	r.SchedIssues, r.SchedConflicts = schedTotals(s.scheds)
	return &r, nil
}

// schedTotals sums the scheduler activity counters across clusters.
func schedTotals(scheds []*rtable.Scheduler) (issues, conflicts int64) {
	for _, sc := range scheds {
		st := sc.Stats()
		issues += st.Issues
		conflicts += st.Conflicts
	}
	return issues, conflicts
}

// SkipWindow advances the clock past accesses [lo, hi) without simulating
// them, updating module state cheaply (hit/miss bookkeeping only) so the
// next on-window starts warm. The estimator uses this for off-sampling.
func (s *Simulator) SkipWindow(t *trace.Trace, lo, hi int) {
	for i := lo; i < hi; i++ {
		a := t.Accesses[i]
		route := s.routeOf(a.DS)
		if route < 0 {
			s.now += 8
			continue
		}
		m := s.memArch.Modules[route]
		r := m.Access(a, s.now)
		if r.Hit {
			s.now += int64(m.Latency()) + 2
		} else {
			// Keep the L2 warm through the skip too.
			if s.memArch.L2 != nil && r.OffChipBytes > 0 {
				s.memArch.L2.Access(a, s.now)
			}
			s.now += 16
		}
	}
}

// access simulates one access and returns its latency in cycles.
func (s *Simulator) access(a trace.Access) int {
	route := s.routeOf(a.DS)
	if route < 0 {
		done, energy := s.offChipTransaction(s.directChan, int(a.Size), a.Addr, s.now)
		s.res.Misses++
		s.res.EnergyNJ += energy
		s.res.OffChipBytes += int64(a.Size)
		s.res.ChannelBytes[s.directChan] += int64(a.Size)
		return int(done - s.now)
	}

	m := s.memArch.Modules[route]
	// 1. CPU <-> module link.
	cpuCh := s.cpuChan[route]
	comp := s.comp(cpuCh)
	grant := s.sched(cpuCh).EarliestIssue(s.now, s.stagesFor(cpuCh, int(a.Size)))
	t := grant + int64(comp.TransferCycles(int(a.Size)))
	s.res.EnergyNJ += comp.TransferEnergy(int(a.Size))
	s.res.ChannelBytes[cpuCh] += int64(a.Size)
	s.res.ChannelWait[cpuCh] += grant - s.now
	s.res.ChannelTransfers[cpuCh]++

	// 2. The module itself.
	r := m.Access(a, t)
	t += int64(m.Latency() + r.Stall)
	s.res.EnergyNJ += m.Energy()
	if r.Hit {
		s.res.Hits++
	} else {
		s.res.Misses++
	}

	// 3. Demand backing traffic (line fill, write-back, node fetch):
	// straight off chip, or through the shared L2 when present.
	if r.OffChipBytes > 0 {
		backCh := s.backChan[route]
		if backCh == -1 {
			// Shouldn't happen for valid architectures: an SRAM never
			// misses. Treat as an internal inconsistency.
			panic(fmt.Sprintf("sim: module %s missed but has no backing channel", m.Name()))
		}
		t = s.backingTransaction(backCh, r.OffChipBytes, a, t)
	}

	// 4. Background prefetch traffic: occupies the backing channels and
	// consumes energy but does not hold up the CPU.
	if r.PrefetchBytes > 0 {
		backCh := s.backChan[route]
		if backCh != -1 {
			pf := a
			pf.Addr += 64
			s.backingTransaction(backCh, r.PrefetchBytes, pf, t)
		}
	}
	return int(t - s.now)
}

// backingTransaction moves n bytes from a module's backing store —
// directly from DRAM, or through the shared L2 — starting no earlier
// than at, accounting energy and channel traffic. It returns the
// completion cycle.
func (s *Simulator) backingTransaction(backCh, n int, a trace.Access, at int64) int64 {
	if s.memArch.L2 == nil {
		done, energy := s.offChipTransaction(backCh, n, a.Addr, at)
		s.res.EnergyNJ += energy
		s.res.OffChipBytes += int64(n)
		s.res.ChannelBytes[backCh] += int64(n)
		return done
	}
	// Module <-> L2 link (on-chip).
	comp := s.comp(backCh)
	grant := s.sched(backCh).EarliestIssue(at, s.stagesFor(backCh, n))
	s.res.ChannelWait[backCh] += grant - at
	s.res.ChannelTransfers[backCh]++
	s.res.ChannelBytes[backCh] += int64(n)
	s.res.EnergyNJ += comp.TransferEnergy(n)
	t := grant + int64(comp.TransferCycles(n))

	// The L2 itself.
	l2 := s.memArch.L2
	lr := l2.Access(a, t)
	t += int64(l2.Latency() + lr.Stall)
	s.res.EnergyNJ += l2.Energy()
	if lr.OffChipBytes > 0 && s.l2DRAMChan != -1 {
		done, energy := s.offChipTransaction(s.l2DRAMChan, lr.OffChipBytes, a.Addr, t)
		s.res.EnergyNJ += energy
		s.res.OffChipBytes += int64(lr.OffChipBytes)
		s.res.ChannelBytes[s.l2DRAMChan] += int64(lr.OffChipBytes)
		t = done
	}
	return t
}

// offChipTransaction moves n bytes between the chip and DRAM over the
// component serving channel ch, starting no earlier than at. It returns
// the completion cycle and the energy spent (bus + DRAM). Split busses
// release the data path during the DRAM dead time; others hold it.
func (s *Simulator) offChipTransaction(ch, n int, addr uint32, at int64) (int64, float64) {
	comp := s.comp(ch)
	sched := s.sched(ch)
	dramLat := s.memArch.DRAM.AccessLatency(addr)
	energy := comp.TransferEnergy(n) + s.memArch.DRAM.Energy()

	s.res.ChannelTransfers[ch]++
	if comp.Split {
		// Address phase, release, then data phase after the DRAM wait.
		addrGrant := sched.EarliestIssue(at, s.stagesFor(ch, 4))
		ready := addrGrant + int64(comp.TransferCycles(4)) + int64(dramLat)
		dataGrant := sched.EarliestIssue(ready, s.stagesFor(ch, n))
		s.res.ChannelWait[ch] += (addrGrant - at) + (dataGrant - ready)
		return dataGrant + int64(comp.TransferCycles(n)), energy
	}
	// Non-split: the bus is held for arbitration + DRAM wait + data.
	stages := s.deadStagesFor(ch, n, dramLat)
	grant := sched.EarliestIssue(at, stages)
	s.res.ChannelWait[ch] += grant - at
	return grant + int64(comp.ArbCycles+dramLat+comp.Beats(n)*comp.BeatCycles), energy
}

// latBucket maps a latency to its log2 histogram bucket.
func latBucket(lat int) int {
	if lat <= 1 {
		return 0
	}
	b := bits.Len64(uint64(lat)) - 1
	if b > 23 {
		b = 23
	}
	return b
}

// deadTimeStages builds the reservation stages of a non-split off-chip
// transaction: the arbiter and data path are held through the DRAM dead
// time. Long bursts are clamped to the reservation window; the clamp
// only shortens the modelled occupancy of pathological (>40-cycle)
// bursts, which do not occur with the library's line sizes.
func deadTimeStages(comp *connect.Component, n, dramLat int) []rtable.Stage {
	dataCycles := comp.Beats(n) * comp.BeatCycles
	total := comp.ArbCycles + dramLat + dataCycles
	if total > 62 {
		total = 62
	}
	return []rtable.Stage{
		{Res: 0, Start: 0, Len: total},
		{Res: 1, Start: 0, Len: total},
	}
}
