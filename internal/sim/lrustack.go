package sim

import (
	"math/bits"

	"memorex/internal/mem"
	"memorex/internal/trace"
)

// The LRU stack kernel of sim.MemOnly. LRU caches obey stack inclusion
// (Mattson et al., IBM Systems Journal 1970): for one line size and one
// set count, the MRU block of each set is what the 1-way cache holds and
// the two most recent blocks are what the 2-way cache holds. So one
// two-deep stack per set serves both. Write-backs stay exact with a
// dirty bit per stack depth (Thompson & Smith, ACM TOCS 1989): bit p of
// a block says its copy in the (p+1)-way cache is dirty, and a block
// leaving depth p with bit p set is a write-back of that cache.
//
// A set is one uint64: the depth-0 entry in its low 32 bits, the
// depth-1 entry in its high 32 bits. An entry is key | dirty bits, with
// key = tag+1 (0 marks an empty entry) in its low 30 bits.
const (
	stackKeyMask = 1<<30 - 1
	stackDirty1  = 1 << 30 // dirty in the 1-way cache
	stackDirty2  = 1 << 31 // dirty in the 2-way cache
)

// stackCache returns the job's module when the stack kernel serves it:
// a plain write-back cache of at most 2 ways whose backing events no L2
// stage needs, with lines of at least 2 bytes (a record keeps the line
// address beside a store bit in 32 bits) and line × sets ≥ 8 bytes (so
// the largest tag+1, 2^32/8, fits the 30-bit key). Every other job runs
// its module's Access.
func stackCache(j *moJob) *mem.Cache {
	c, ok := j.module.(*mem.Cache)
	if !ok || c.Policy != mem.WriteBack || j.record || c.Assoc > 2 ||
		c.LineBytes < 2 || c.SizeBytes/c.Assoc < 8 {
		return nil
	}
	return c
}

// lruLine gathers the stack families of a group that share one line
// size: they all consume the same records.
type lruLine struct {
	shift uint32 // log2 of the line size
	fams  []*lruFamily
	// runHits counts the accesses merged into the record before them:
	// each is an MRU hit in every family.
	runHits int64
}

// lruFamily is one LRU stack per set, serving the 1-way and 2-way jobs
// of one line size and set count.
type lruFamily struct {
	tagShift uint32 // from a record to its tag: 1 + log2 of the set count
	sets     []uint64
	jobs     [2]*moJob // by ways-1, nil when absent
	// hits[p] and writeBacks[p] count the (p+1)-way cache's.
	hits, writeBacks [2]int64
}

// newLRULines sorts the group's stack-served jobs into families by line
// size and set count, and returns the other jobs as walk.
func newLRULines(jobs []*moJob) (lines []*lruLine, walk []*moJob) {
	for _, j := range jobs {
		c := stackCache(j)
		if c == nil {
			walk = append(walk, j)
			continue
		}
		shift := uint32(bits.TrailingZeros32(uint32(c.LineBytes)))
		var l *lruLine
		for _, x := range lines {
			if x.shift == shift {
				l = x
			}
		}
		if l == nil {
			l = &lruLine{shift: shift}
			lines = append(lines, l)
		}
		nSets := c.SizeBytes / (c.LineBytes * c.Assoc)
		var f *lruFamily
		for _, x := range l.fams {
			if len(x.sets) == nSets {
				f = x
			}
		}
		if f == nil {
			f = &lruFamily{
				tagShift: 1 + uint32(bits.TrailingZeros32(uint32(nSets))),
				sets:     make([]uint64, nSets),
			}
			l.fams = append(l.fams, f)
		}
		f.jobs[c.Assoc-1] = j
	}
	return lines, walk
}

// records collapses the sub-stream's accesses in acc (those whose data
// structure is marked in in) into recs, one record per run of accesses
// to the same line: line<<1 | 1 when any access of the run stores. Every
// access after the first of its run is an MRU hit in every write-back
// LRU cache of this line size, and only the block's dirtiness changes,
// which the merged store bit carries; those hits are added to runHits.
// recs must hold len(acc) records; records returns the ones written.
func (l *lruLine) records(acc []trace.Access, in []bool, recs []uint32) []uint32 {
	n, seen := 0, 0
	prev := ^uint32(0) // no line: line addresses stay below 2^31
	for _, a := range acc {
		if !in[a.DS] {
			continue
		}
		seen++
		line := a.Addr >> l.shift
		var st uint32
		if a.Kind == trace.Store {
			st = 1
		}
		if line == prev {
			recs[n-1] |= st
			continue
		}
		prev = line
		recs[n] = line<<1 | st
		n++
	}
	l.runHits += int64(seen - n)
	return recs[:n]
}

// run applies the records to the family's stacks. The outcome of each
// record is selected by masks, with no branch on hit, miss or dirtiness:
// the hit ratios of real sub-streams make such branches unpredictable.
func (f *lruFamily) run(recs []uint32) {
	const dirty = stackDirty1 | stackDirty2
	// shift&31 tells the compiler the shift stays below 32 bits, and
	// the set count is a power of two.
	sets, shift, mask := f.sets, f.tagShift&31, len(f.sets)-1
	// n packs four 16-bit counters (the caller passes at most
	// ctxCheckEvery records, so no count reaches 2^16; the build fails
	// if the chunk outgrows the field): 1-way hits, 2-way hits, 1-way
	// and 2-way write-backs. One accumulator keeps the loop in
	// registers.
	const _ = uint16(ctxCheckEvery)
	var n uint64
	for _, r := range recs {
		set := &sets[int(r>>1)&mask]
		key := uint64(r>>shift) + 1
		top, low := *set&(1<<32-1), *set>>32
		// h0 is 1 when the block is at depth 0, h1 when at depth 1.
		h0 := ((top&stackKeyMask ^ key) - 1) >> 63
		h1 := ((low&stackKeyMask ^ key) - 1) >> 63
		m0 := -h0
		// The block goes on top: dirty in a cache that already held it
		// if it was, and in every cache if this record stores.
		newTop := key | -uint64(r&1)&dirty | m0&top&dirty | -h1&low&stackDirty2
		// Unless it was on top, the old top sinks to depth 1 and leaves
		// the 1-way cache (its 1-way dirty bit is never read at depth 1),
		// and the old depth-1 block leaves the 2-way cache unless it is
		// the one referenced.
		newLow := m0&low | ^m0&top
		n += h0 | (h0|h1)<<16 | (1^h0)&(top>>30&1)<<32 | (1^(h0|h1))&(low>>31)<<48
		*set = newTop | newLow<<32
	}
	f.hits[0] += int64(n & 0xffff)
	f.hits[1] += int64(n >> 16 & 0xffff)
	f.writeBacks[0] += int64(n >> 32 & 0xffff)
	f.writeBacks[1] += int64(n >> 48)
}

// finish stores each stack-served job's hits and backing bytes: a miss
// fills one line, and a write-back writes one.
func (l *lruLine) finish() {
	lineBytes := int64(1) << l.shift
	for _, f := range l.fams {
		for p, j := range f.jobs {
			if j == nil {
				continue
			}
			j.hits = f.hits[p] + l.runHits
			j.backBytes = (j.cost - j.hits + f.writeBacks[p]) * lineBytes
		}
	}
}
