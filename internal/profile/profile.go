// Package profile extracts per-data-structure access-pattern statistics
// from a memory trace — the APEX step's input. For every data structure
// it measures traffic, footprint, stride behaviour, store fraction, and
// successor consistency (how predictable the next address is given the
// current one — the property that makes a structure a candidate for the
// paper's "DMA-like" self-indirect memory modules), then classifies the
// structure into a pattern class.
package profile

import (
	"fmt"
	"math/bits"
	"sort"

	"memorex/internal/trace"
)

// Class is the detected access-pattern class of a data structure.
type Class int

// Pattern classes.
const (
	// ClassStream is a forward sequential sweep (unit or near-unit
	// element stride): the stream-buffer target.
	ClassStream Class = iota
	// ClassStrided is a constant non-unit stride.
	ClassStrided
	// ClassSelfIndirect is a value-dependent but consistent chain
	// (linked lists, self-indirect array walks): the LL-DMA target.
	ClassSelfIndirect
	// ClassIndexed is irregular with a small hot footprint: the
	// SRAM-mapping target.
	ClassIndexed
	// ClassRandom is irregular with a large footprint: best cached.
	ClassRandom
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case ClassStream:
		return "stream"
	case ClassStrided:
		return "strided"
	case ClassSelfIndirect:
		return "self-indirect"
	case ClassIndexed:
		return "indexed"
	case ClassRandom:
		return "random"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Stats summarizes the accesses of one data structure.
type Stats struct {
	DS   trace.DSID
	Name string
	// Count is the number of accesses; Bytes the bytes moved.
	Count int64
	Bytes int64
	// StoreFrac is the fraction of accesses that are stores.
	StoreFrac float64
	// FootprintBytes is the number of distinct 32-byte blocks touched
	// times 32 — the working-set size relevant to SRAM mapping.
	FootprintBytes int64
	// RegionBytes is the declared size of the structure.
	RegionBytes int64
	// StreamFrac is the fraction of accesses at a small positive delta
	// from the previous access to the same structure.
	StreamFrac float64
	// DominantStride is the most common non-zero inter-access delta.
	DominantStride int32
	// DominantFrac is the fraction of accesses at that delta.
	DominantFrac float64
	// ChainRatio is the successor-consistency: the fraction of
	// transitions where the address seen after address X equals the
	// successor seen the previous time X was visited. Near 1 for
	// pointer chains, near 0 for random probing.
	ChainRatio float64
	// MedianReuseGap is the median number of this structure's accesses
	// between consecutive touches of the same 32-byte block (temporal
	// reuse distance). 0 means blocks are never revisited. Small gaps
	// mean even a tiny cache captures the locality; huge gaps mean only
	// capacity on the order of the footprint helps.
	MedianReuseGap int64
	// ReuseFraction is the fraction of accesses that revisit a block
	// touched before.
	ReuseFraction float64
	// Class is the resulting classification.
	Class Class
}

// Share returns this structure's fraction of total trace accesses.
func (s *Stats) Share(total int64) float64 {
	if total == 0 {
		return 0
	}
	return float64(s.Count) / float64(total)
}

// Profile holds the per-structure statistics of a trace, ordered by
// descending access count (most active first, as APEX wants).
type Profile struct {
	Trace *trace.Trace
	Total int64
	Stats []Stats
}

// ByDS returns the stats for a given data structure, or nil.
func (p *Profile) ByDS(id trace.DSID) *Stats {
	for i := range p.Stats {
		if p.Stats[i].DS == id {
			return &p.Stats[i]
		}
	}
	return nil
}

// ByName returns the stats for the named data structure, or nil.
func (p *Profile) ByName(name string) *Stats {
	for i := range p.Stats {
		if p.Stats[i].Name == name {
			return &p.Stats[i]
		}
	}
	return nil
}

// classification thresholds. The chain threshold is deliberately low:
// successor consistency measured on addresses underestimates how well a
// hardware pointer-walker predicts (probe chains restart at every new
// lookup), and even a 25-30% consistent structure profits from a
// self-indirect prefetcher — the paper's compress hash table is exactly
// such a case (its architecture c gains "roughly 10%").
const (
	streamThreshold = 0.70
	chainThreshold  = 0.25
	hotFootprint    = 16 * 1024
)

// Analyze profiles the trace.
//
// The per-structure block, stride and successor state lives in tables
// with uint32 values. They are exact for every trace the decoders
// accept, since trace.Read caps a trace at 2^32 accesses: a stride count
// stays below 2^32, and a reuse gap, between 1 and 2^32-1 accesses,
// comes back exactly from the modular uint32 difference of two
// last-touch ordinals.
func Analyze(t *trace.Trace) *Profile {
	n := len(t.DS)
	type state struct {
		count, bytes, stores int64
		blocks               table // block -> last access ordinal
		strides              table // uint32(delta) -> transitions at delta
		smallPos             int64
		transitions          int64
		consistent           int64
		lastAddr             uint32
		seen                 bool
		successor            table // address -> the address that followed it
		// gapHist[k] counts reuse gaps in [2^k, 2^(k+1)).
		gapHist [33]int64
		reuses  int64
	}
	states := make([]state, n)

	for _, a := range t.Accesses {
		// Anonymous accesses (DS 0) are never reported.
		if a.DS == trace.Anonymous || int(a.DS) >= n {
			continue
		}
		st := &states[a.DS]
		st.count++
		st.bytes += int64(a.Size)
		if a.Kind == trace.Store {
			st.stores++
		}
		ord := uint32(st.count)
		last, ok := st.blocks.ref(a.Addr / 32)
		if ok {
			st.gapHist[log2u64(uint64(ord-*last))]++
			st.reuses++
		}
		*last = ord
		if st.seen {
			delta := int32(a.Addr) - int32(st.lastAddr)
			if delta != 0 {
				c, _ := st.strides.ref(uint32(delta))
				*c++
			}
			if delta > 0 && delta <= 16 {
				st.smallPos++
			}
			st.transitions++
			next, ok := st.successor.ref(st.lastAddr)
			if ok && *next == a.Addr {
				st.consistent++
			}
			*next = a.Addr
		}
		st.lastAddr = a.Addr
		st.seen = true
	}

	p := &Profile{Trace: t, Total: int64(len(t.Accesses))}
	for i := 1; i < n; i++ {
		st := &states[i]
		if st.count == 0 {
			continue
		}
		s := Stats{
			DS:             trace.DSID(i),
			Name:           t.DS[i].Name,
			Count:          st.count,
			Bytes:          st.bytes,
			FootprintBytes: int64(st.blocks.len()) * 32,
			RegionBytes:    int64(t.DS[i].Size),
		}
		if st.count > 0 {
			s.StoreFrac = float64(st.stores) / float64(st.count)
			s.ReuseFraction = float64(st.reuses) / float64(st.count)
		}
		if st.reuses > 0 {
			// Median of the log-bucketed gap histogram: the geometric
			// center of the bucket holding the middle sample.
			half := st.reuses / 2
			var cum int64
			for k, c := range st.gapHist {
				cum += c
				if cum > half {
					s.MedianReuseGap = int64(1) << uint(k)
					break
				}
			}
		}
		if st.transitions > 0 {
			s.StreamFrac = float64(st.smallPos) / float64(st.transitions)
			s.ChainRatio = float64(st.consistent) / float64(st.transitions)
			var bestStride int32
			var bestCount int64
			st.strides.each(func(key, val uint32) {
				d, c := int32(key), int64(val)
				if c > bestCount || (c == bestCount && d < bestStride) {
					bestStride, bestCount = d, c
				}
			})
			s.DominantStride = bestStride
			s.DominantFrac = float64(bestCount) / float64(st.transitions)
		}
		s.Class = classify(&s)
		p.Stats = append(p.Stats, s)
	}
	sort.Slice(p.Stats, func(i, j int) bool {
		if p.Stats[i].Count != p.Stats[j].Count {
			return p.Stats[i].Count > p.Stats[j].Count
		}
		return p.Stats[i].DS < p.Stats[j].DS
	})
	return p
}

// log2u64 returns floor(log2(v)) for v >= 1, capped at 32.
func log2u64(v uint64) int {
	return min(bits.Len64(v|1)-1, 32)
}

// classify orders the checks by module preference: streams first, then
// hot small structures (an SRAM always beats a prefetcher when the whole
// structure fits on chip), then consistent chains, then random.
func classify(s *Stats) Class {
	switch {
	case s.StreamFrac >= streamThreshold:
		return ClassStream
	case s.DominantFrac >= streamThreshold && s.DominantStride > 0:
		return ClassStrided
	case s.FootprintBytes <= hotFootprint:
		return ClassIndexed
	case s.ChainRatio >= chainThreshold:
		return ClassSelfIndirect
	default:
		return ClassRandom
	}
}
