package sim

import (
	"context"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"memorex/internal/mem"
	"memorex/internal/trace"
)

// MemOnlyResult is the outcome of a connectivity-free simulation: the
// module hit/miss behaviour and per-channel traffic of a memory-modules
// architecture under an idealized (zero-latency, infinite-bandwidth)
// interconnect. APEX uses the miss ratio for its cost/performance
// exploration, and ConEx uses the per-channel bytes to build the
// Bandwidth Requirement Graph.
type MemOnlyResult struct {
	Accesses     int64
	Hits         int64
	Misses       int64
	OffChipBytes int64
	// ChannelBytes holds bytes per channel, indexed like
	// Architecture.Channels().
	ChannelBytes []int64
}

// MissRatio returns the fraction of accesses needing off-chip service.
func (r *MemOnlyResult) MissRatio() float64 {
	if r.Accesses == 0 {
		return 0
	}
	return float64(r.Misses) / float64(r.Accesses)
}

// MemOnly evaluates every architecture under an ideal interconnect and
// returns one result per architecture, in order. The counts equal what
// the one-phase simulator (Simulator.Run) reports for Hits, Misses,
// OffChipBytes and ChannelBytes under any connectivity.
//
// The evaluation is decomposed by module sub-stream. Every library
// module's hit, miss and traffic outcome depends only on the accesses it
// sees, never on the clock, which only sets stalls. So each architecture
// splits into jobs keyed by (module identity, exact set of data
// structures routed to it), identical jobs across architectures run
// once, each over only its own accesses, and the per-module counts are
// summed back into every architecture that contains them. Jobs over the
// same set of data structures share one walk of the trace, which hands
// each access of that sub-stream to all of them; their plain caches of
// up to 2 ways share LRU stacks (lrustack.go). Architectures
// with a shared L2 get a second stage: the L2 sees the demand and
// prefetch backing events of its modules merged in trace order, exactly
// as the one-phase simulator presents them.
//
// Walks run on at most workers goroutines (workers <= 0 means all CPUs,
// like engine.DefaultWorkers). A cancelled ctx stops the evaluation with
// ctx.Err(). The caller's module state is untouched.
func MemOnly(ctx context.Context, t *trace.Trace, archs []*mem.Architecture, workers int) ([]*MemOnlyResult, error) {
	for _, a := range archs {
		if err := a.Validate(); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	jobs, groups, plans := planMemOnly(t, archs)
	err := runAll(ctx, workers, len(groups), func(i int) int64 { return groups[i].cost },
		func(i int) error { return groups[i].run(ctx, t) })
	if err != nil {
		return nil, err
	}
	err = runAll(ctx, workers, len(plans), func(i int) int64 { return plans[i].l2Cost },
		func(i int) error { return plans[i].runL2(ctx, t, jobs) })
	if err != nil {
		return nil, err
	}
	out := make([]*MemOnlyResult, len(archs))
	for i := range plans {
		out[i] = plans[i].result(jobs, int64(t.NumAccesses()))
	}
	return out, nil
}

// moGroup is one access sub-stream, the accesses of exactly the data
// structures marked in in, with the jobs simulated over it.
type moGroup struct {
	in   []bool // in[ds]: ds belongs to the sub-stream
	n    int64  // accesses in the sub-stream
	jobs []*moJob
	cost int64 // accesses the jobs simulate in total
}

// moJob is one module simulated over one access sub-stream.
type moJob struct {
	module mem.Module // prototype, cloned cold for the run
	cost   int64      // accesses in the sub-stream
	bytes  int64      // CPU-side bytes of the sub-stream
	record bool       // keep the backing events for an L2 stage

	hits      int64
	backBytes int64 // demand plus prefetch bytes to the backing store
	// events lists the backing accesses in trace order as
	// index<<1 | 0 for a demand fill and index<<1 | 1 for a prefetch
	// (issued at Addr+64, after the demand fill of the same access);
	// traces stay far below the 2^31 accesses this encoding holds.
	events []uint32
}

// moPlan maps one architecture onto its jobs and channels.
type moPlan struct {
	nChannels   int
	jobs        []int // per module: job index, -1 when nothing is routed to it
	chans       chanMap
	directN     int64
	directBytes int64

	l2        *mem.Cache // nil unless backed jobs feed an L2
	l2Jobs    []int
	l2Cost    int64
	l2OffChip int64
}

// planMemOnly counts the trace's accesses per data structure once, then
// maps every architecture's modules onto deduplicated jobs, grouped by
// sub-stream.
func planMemOnly(t *trace.Trace, archs []*mem.Architecture) ([]*moJob, []*moGroup, []moPlan) {
	var dsCount, dsBytes []int64
	for _, a := range t.Accesses {
		if int(a.DS) >= len(dsCount) {
			n := int(a.DS) + 1
			dsCount = append(dsCount, make([]int64, n-len(dsCount))...)
			dsBytes = append(dsBytes, make([]int64, n-len(dsBytes))...)
		}
		dsCount[a.DS]++
		dsBytes[a.DS] += int64(a.Size)
	}

	var jobs []*moJob
	var groups []*moGroup
	plans := make([]moPlan, len(archs))
	jobIndex := map[string]int{}
	groupIndex := map[string]*moGroup{}
	var key strings.Builder
	for ai, a := range archs {
		channels := a.Channels()
		p := &plans[ai]
		*p = moPlan{
			nChannels: len(channels),
			jobs:      make([]int, len(a.Modules)),
			chans:     newChanMap(channels, len(a.Modules)),
		}
		for mi := range a.Modules {
			p.jobs[mi] = -1
		}
		routed := make([][]trace.DSID, len(a.Modules))
		for ds, n := range dsCount {
			if n == 0 {
				continue
			}
			r := a.RouteOf(trace.DSID(ds))
			if r == mem.DirectDRAM {
				p.directN += n
				p.directBytes += dsBytes[ds]
				continue
			}
			routed[r] = append(routed[r], trace.DSID(ds))
		}
		for mi, m := range a.Modules {
			if len(routed[mi]) == 0 {
				continue
			}
			key.Reset()
			for _, ds := range routed[mi] {
				key.WriteString(strconv.Itoa(int(ds)))
				key.WriteByte(',')
			}
			stream := key.String()
			key.WriteString(mem.Identity(m))
			ji, ok := jobIndex[key.String()]
			if !ok {
				j := &moJob{module: m}
				for _, ds := range routed[mi] {
					j.cost += dsCount[ds]
					j.bytes += dsBytes[ds]
				}
				g := groupIndex[stream]
				if g == nil {
					g = &moGroup{in: make([]bool, len(dsCount)), n: j.cost}
					for _, ds := range routed[mi] {
						g.in[ds] = true
					}
					groupIndex[stream] = g
					groups = append(groups, g)
				}
				g.jobs = append(g.jobs, j)
				g.cost += j.cost
				ji = len(jobs)
				jobIndex[key.String()] = ji
				jobs = append(jobs, j)
			}
			p.jobs[mi] = ji
			if a.L2 != nil && p.chans.back[mi] != -1 {
				jobs[ji].record = true
				p.l2, p.l2Jobs, p.l2Cost = a.L2, append(p.l2Jobs, ji), p.l2Cost+jobs[ji].cost
			}
		}
	}
	return jobs, groups, plans
}

// ctxCheckEvery is how many accesses a walk covers between checks of
// its context.
const ctxCheckEvery = 1 << 14

// run walks the trace once and simulates the group's jobs over its
// sub-stream, in chunks of ctxCheckEvery accesses. Plain write-back
// caches of at most 2 ways run in the LRU stack kernel (lrustack.go):
// per chunk and line size, the sub-stream collapses into line-run
// records, which update every family of that line size in turn. Every
// other job runs a cold copy of its module over the chunk's sub-stream
// indices, one job at a time, so one module's state at a time occupies
// the CPU caches.
func (g *moGroup) run(ctx context.Context, t *trace.Trace) error {
	lines, walk := newLRULines(g.jobs)
	ms := make([]mem.Module, len(walk))
	for k, j := range walk {
		ms[k] = j.module.Clone()
	}
	var idx, recs []uint32
	if len(walk) > 0 {
		idx = make([]uint32, 0, min(ctxCheckEvery, g.n))
	}
	if len(lines) > 0 {
		recs = make([]uint32, min(ctxCheckEvery, g.n))
	}
	acc := t.Accesses
	for lo := 0; lo < len(acc); lo += ctxCheckEvery {
		if err := ctx.Err(); err != nil {
			return err
		}
		chunk := acc[lo:min(lo+ctxCheckEvery, len(acc))]
		for _, l := range lines {
			rs := l.records(chunk, g.in, recs)
			for _, f := range l.fams {
				f.run(rs)
			}
		}
		if len(walk) == 0 {
			continue
		}
		idx = idx[:0]
		for i := range chunk {
			if g.in[chunk[i].DS] {
				idx = append(idx, uint32(lo+i))
			}
		}
		for k, j := range walk {
			j.run(ms[k], acc, idx)
		}
	}
	for _, l := range lines {
		l.finish()
	}
	return nil
}

// run simulates the accesses at indices idx of acc on m, the job's
// module. The clock argument is the trace index: any value gives the
// same counts, and a monotone one keeps the module's timing state sane.
func (j *moJob) run(m mem.Module, acc []trace.Access, idx []uint32) {
	for _, i := range idx {
		r := m.Access(acc[i], int64(i))
		if r.Hit {
			j.hits++
		}
		if r.OffChipBytes == 0 && r.PrefetchBytes == 0 {
			continue
		}
		j.backBytes += int64(r.OffChipBytes + r.PrefetchBytes)
		if j.record {
			if r.OffChipBytes > 0 {
				j.events = append(j.events, i<<1)
			}
			if r.PrefetchBytes > 0 {
				j.events = append(j.events, i<<1|1)
			}
		}
	}
}

// runL2 feeds a cold copy of the architecture's L2 the backing events of
// its jobs, merged in trace order, and counts the L2's off-chip bytes.
func (p *moPlan) runL2(ctx context.Context, t *trace.Trace, jobs []*moJob) error {
	if p.l2 == nil {
		return nil
	}
	l2 := p.l2.Clone().(*mem.Cache)
	heads := make([][]uint32, len(p.l2Jobs))
	for k, ji := range p.l2Jobs {
		heads[k] = jobs[ji].events
	}
	for n := 0; ; n++ {
		if n%ctxCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		// An access reaches one module, so the heads never tie.
		best := -1
		for k, h := range heads {
			if len(h) > 0 && (best < 0 || h[0] < heads[best][0]) {
				best = k
			}
		}
		if best < 0 {
			return nil
		}
		ev := heads[best][0]
		heads[best] = heads[best][1:]
		a := t.Accesses[ev>>1]
		if ev&1 == 1 {
			a.Addr += 64
		}
		p.l2OffChip += int64(l2.Access(a, 0).OffChipBytes)
	}
}

// result sums the architecture's job and L2 counts into its result.
func (p *moPlan) result(jobs []*moJob, accesses int64) *MemOnlyResult {
	r := &MemOnlyResult{
		Accesses:     accesses,
		Misses:       p.directN,
		OffChipBytes: p.directBytes + p.l2OffChip,
		ChannelBytes: make([]int64, p.nChannels),
	}
	if d := p.chans.direct; d != -1 {
		r.ChannelBytes[d] = p.directBytes
	}
	if l2 := p.chans.l2DRAMChan; l2 != -1 {
		r.ChannelBytes[l2] = p.l2OffChip
	}
	for mi, ji := range p.jobs {
		if ji < 0 {
			continue
		}
		j := jobs[ji]
		r.Hits += j.hits
		r.Misses += j.cost - j.hits
		r.ChannelBytes[p.chans.cpu[mi]] += j.bytes
		back := p.chans.back[mi]
		if back == -1 {
			continue
		}
		r.ChannelBytes[back] += j.backBytes
		if p.chans.l2DRAMChan == -1 {
			r.OffChipBytes += j.backBytes
		}
	}
	return r
}

// runAll calls f for every index below n, longest task first so the
// pool drains evenly, on at most workers goroutines, and returns the
// first error.
func runAll(ctx context.Context, workers, n int, cost func(int) int64, f func(int) error) error {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return cost(order[a]) > cost(order[b]) })
	var next atomic.Int64
	errs := make([]error, min(workers, n))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := int(next.Add(1) - 1); k < n && ctx.Err() == nil; k = int(next.Add(1) - 1) {
				if errs[w] = f(order[k]); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return ctx.Err()
}
