package core

import (
	"sort"

	"memorex/internal/connect"
)

// Clustering partitions the channel indices of a BRG into logical
// connections. Channels crossing the chip boundary never share a cluster
// with on-chip channels (they are physically different wires).
type Clustering [][]int

// clone deep-copies the clustering.
func (c Clustering) clone() Clustering {
	out := make(Clustering, len(c))
	for i, cl := range c {
		out[i] = append([]int(nil), cl...)
	}
	return out
}

// InitialClustering returns the finest clustering: one logical connection
// per channel (the paper's starting point, equivalent to the naive
// one-component-per-channel architecture before sharing).
func InitialClustering(b *BRG) Clustering {
	out := make(Clustering, len(b.Channels))
	for i := range b.Channels {
		out[i] = []int{i}
	}
	return out
}

// MergeLowest implements the paper's inner-loop step: merge the two
// logical connections with the lowest bandwidth requirement into a
// larger cluster, respecting the chip boundary. It returns the new
// clustering and true, or the input and false when no merge is possible.
func MergeLowest(b *BRG, c Clustering) (Clustering, bool) {
	type entry struct {
		idx int
		bw  float64
		off bool
	}
	var entries []entry
	for i, cl := range c {
		entries = append(entries, entry{
			idx: i,
			bw:  b.ClusterBandwidth(cl),
			off: b.Channels[cl[0]].OffChip,
		})
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].bw != entries[j].bw {
			return entries[i].bw < entries[j].bw
		}
		return entries[i].idx < entries[j].idx
	})
	// Find the lowest-bandwidth same-side pair: scan entries in
	// bandwidth order and merge the first two that share a side.
	for i := 0; i < len(entries); i++ {
		for j := i + 1; j < len(entries); j++ {
			if entries[i].off != entries[j].off {
				continue
			}
			a, bIdx := entries[i].idx, entries[j].idx
			merged := append(append([]int(nil), c[a]...), c[bIdx]...)
			sort.Ints(merged)
			var out Clustering
			for k, cl := range c {
				if k == a || k == bIdx {
					continue
				}
				out = append(out, append([]int(nil), cl...))
			}
			out = append(out, merged)
			return out, true
		}
	}
	return c, false
}

// Levels returns every clustering level of the hierarchical merge, from
// the finest (one channel per logical connection) down to the coarsest
// (one cluster per chip side).
func Levels(b *BRG) []Clustering {
	var levels []Clustering
	cur := InitialClustering(b)
	levels = append(levels, cur.clone())
	for {
		next, ok := MergeLowest(b, cur)
		if !ok {
			break
		}
		cur = next
		levels = append(levels, cur.clone())
	}
	return levels
}

// FeasibleComponents returns the library components that can implement a
// cluster with the given port count on the given chip side.
func FeasibleComponents(lib []connect.Component, ports int, offChip bool) []connect.Component {
	var out []connect.Component
	for _, c := range lib {
		if c.Fits(ports, offChip) {
			out = append(out, c)
		}
	}
	return out
}

// EnumerateAssignments builds the connectivity architectures of one
// clustering level: the cross product of each cluster's feasible
// components. If the product exceeds limit, the index space is sampled
// at a uniform stride so that diverse assignments are still covered
// (a bounded-enumeration heuristic; the dropped count is returned).
//
// Indices are decoded through a reflected mixed-radix Gray code, so
// consecutive architectures differ in exactly one cluster's component.
// The decoded set is identical to the plain cross product (the Gray map
// is a bijection on the index space); only the order changes. When the
// product is capped, however, the strided sample is taken through the
// Gray map, so the code also decides which assignments are kept:
// changing it would change the explored designs and hence the fronts.
func EnumerateAssignments(b *BRG, c Clustering, lib []connect.Component, limit int) (archs []*connect.Arch, dropped int64) {
	cands := make([][]connect.Component, len(c))
	total := int64(1)
	for i, cl := range c {
		ports := len(cl) + 1
		off := b.Channels[cl[0]].OffChip
		cands[i] = FeasibleComponents(lib, ports, off)
		if len(cands[i]) == 0 {
			return nil, 0 // this level has an unimplementable cluster
		}
		total *= int64(len(cands[i]))
	}
	take := total
	stride := int64(1)
	if limit > 0 && total > int64(limit) {
		take = int64(limit)
		stride = total / take
		dropped = total - take
	}
	digits := make([]int64, len(cands))
	for k := int64(0); k < take; k++ {
		idx := k * stride
		arch := &connect.Arch{
			Channels: b.Channels,
			Clusters: c.clone(),
			Assign:   make([]connect.Component, len(c)),
		}
		// Reflected mixed-radix Gray decode: extract the plain digits
		// LSB-first, then walk MSB-down reflecting each digit when the
		// sum of the original more-significant digits is odd. Adjacent
		// indices then differ in exactly one digit by one step.
		rem := idx
		for i := range cands {
			digits[i] = rem % int64(len(cands[i]))
			rem /= int64(len(cands[i]))
		}
		parity := int64(0)
		for i := len(cands) - 1; i >= 0; i-- {
			d := digits[i]
			if parity%2 == 1 {
				d = int64(len(cands[i])) - 1 - d
			}
			parity += digits[i]
			arch.Assign[i] = cands[i][d]
		}
		archs = append(archs, arch)
	}
	return archs, dropped
}
