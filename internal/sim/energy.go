// Exact trace-order energy sums, added as integers within each binade.
//
// The references add an event's energy addends to one float64 in trace
// order, and ReplayBatch must give the very same bits. While the
// running sum s stays in one binade [2^e, 2^(e+1)), its ulp u =
// 2^(e-52) is fixed and s = m·u with 2^52 <= m < 2^53. For a finite
// addend a >= 0, fl(s+a) is then (m + round(a/u))·u exactly, provided
// a/u is not a tie (fraction exactly 1/2, which rounds to even and so
// depends on m) and m + round(a/u) < 2^53: the exact sum is then below
// 2^(e+1), in the binade, and rounds to the nearest multiple of u.
// So, per binade, every class gets its ulp count Q_c = Σ round(a/u)
// over its addends (capped at 2^53), and an event of class c adds Q_c
// to m as an integer. Addends are >= 0, so m only grows: a sum still
// below 2^53 after several events means every add among them was
// exact. A batch of K >= 2 architectures therefore builds each block's
// class histogram once and adds a whole block as Σ n_c·Q_c; each Q_c
// is at most 2^53 and a block has at most energyBlock <= 2^9 events,
// so a block's sum stays below 2^63.
//
// Only these are added in floats, in trace order:
//
//   - the one event per binade whose sum reaches 2^53 (walked to
//     inside its block), which crosses into a later binade;
//   - binades where some class has a tie;
//   - the first events of each binade, until as many events as there
//     are classes have shown the binade long enough to pay for
//     computing Q;
//   - a zero, subnormal or infinite s;
//   - every event of an architecture with a negative, NaN or
//     infinite addend.
package sim

import "math"

const (
	// energyBlock is the number of events a batch of K >= 2 sums
	// per histogram (at most 2^9, see the file comment).
	energyBlock = 512

	mantOne   = 1 << 52 // the implicit leading bit of a normal float64
	binadeEnd = 1 << 53 // m at the end of a binade, in its ulps
)

// energySum is one architecture's trace-order energy sum in progress,
// over classes whose addends are add[rows[c].lo:rows[c].hi] (the
// architecture's class rows and the batch's addends, passed to every
// method). While it counts a binade (exp != 0) the sum is m ulps of
// that binade; otherwise it is s.
type energySum struct {
	q     []uint64 // class -> ulps one event adds, in the counted binade
	s     float64
	m     uint64
	exp   uint64 // biased exponent of the counted binade, 0 when not counting
	wait  int    // events to add in floats before counting this binade; < 0: never
	naive bool   // a negative, NaN or infinite addend: every event in floats
}

// newEnergySum starts a sum at +0; q holds one word per class.
func newEnergySum(rows []classRow, add []float64, q []uint64) energySum {
	e := energySum{q: q}
	for _, r := range rows {
		for _, a := range add[r.lo:r.hi] {
			if !(a >= 0 && a <= math.MaxFloat64) {
				e.naive = true
			}
		}
	}
	return e
}

// value returns the sum of the events added so far.
func (e *energySum) value() float64 {
	if e.exp == 0 {
		return e.s
	}
	return math.Float64frombits(e.exp<<52 | e.m&(mantOne-1))
}

// sumEnergies adds the events ids, in trace order, to the energy sum
// of every arch; the class ids are below nclasses.
func sumEnergies(ids []uint32, nclasses int, add []float64, archs []archState) {
	if len(archs) == 1 {
		archs[0].energy.walk(archs[0].rows, add, ids)
		return
	}
	type entry struct{ class, n uint32 }
	cnt := make([]uint16, nclasses)
	hist := make([]entry, 0, min(nclasses, energyBlock))
	for lo := 0; lo < len(ids); lo += energyBlock {
		blk := ids[lo:min(lo+energyBlock, len(ids))]
		hist = hist[:0]
		for _, id := range blk {
			if cnt[id] == 0 {
				hist = append(hist, entry{class: id})
			}
			cnt[id]++
		}
		for i := range hist {
			hist[i].n = uint32(cnt[hist[i].class])
			cnt[hist[i].class] = 0
		}
		// A block of mostly distinct classes costs as much summed by
		// histogram as walked, so it is walked.
		compress := 2*len(hist) <= len(blk)
		for i := range archs {
			e := &archs[i].energy
			if compress && e.exp != 0 {
				var d uint64
				for _, h := range hist {
					d += uint64(h.n) * e.q[h.class]
				}
				if m := e.m + d; m < binadeEnd {
					e.m = m
					continue
				}
			}
			e.walk(archs[i].rows, add, blk)
		}
	}
}

// walk adds the events ids in trace order.
func (e *energySum) walk(rows []classRow, add []float64, ids []uint32) {
	if e.naive {
		for _, id := range ids {
			e.event(rows, add, id)
		}
		return
	}
	for len(ids) > 0 {
		if e.exp == 0 {
			ids = e.walkFloat(rows, add, ids)
			continue
		}
		m, q := e.m, e.q
		i := 0
		for ; i < len(ids); i++ {
			n := m + q[ids[i]]
			if n >= binadeEnd {
				break
			}
			m = n
		}
		e.m = m
		if i == len(ids) {
			return
		}
		// ids[i] leaves the binade: add it in floats.
		e.s, e.exp = e.value(), 0
		e.event(rows, add, ids[i])
		e.wait = len(rows)
		ids = ids[i+1:]
	}
}

// walkFloat adds events in floats until the sum's binade is worth
// counting, and returns the events left.
func (e *energySum) walkFloat(rows []classRow, add []float64, ids []uint32) []uint32 {
	for i, id := range ids {
		if e.wait == 0 && e.count(rows, add) {
			return ids[i:]
		}
		exp := math.Float64bits(e.s) >> 52
		e.event(rows, add, id)
		if math.Float64bits(e.s)>>52 != exp {
			e.wait = len(rows)
		} else if e.wait > 0 {
			e.wait--
		}
	}
	return nil
}

// event adds the addends of one event of class id in floats.
func (e *energySum) event(rows []classRow, add []float64, id uint32) {
	r := rows[id]
	for _, a := range add[r.lo:r.hi] {
		e.s += a
	}
}

// count starts counting the binade of s in its ulps, unless s is zero,
// subnormal or infinite or some addend is a tie there; then the binade
// is added in floats.
func (e *energySum) count(rows []classRow, add []float64) bool {
	e.wait = -1
	bits := math.Float64bits(e.s)
	exp := bits >> 52
	if exp == 0 || exp == 0x7ff {
		return false
	}
	// The ulp is 2^-k; a·2^k is exact or overflows (a capped count) or
	// underflows (a count of 0 with no tie), in two steps so that
	// neither power of two overflows.
	k := 1075 - int(exp)
	hi, lo := math.Ldexp(1, min(k, 1023)), math.Ldexp(1, k-min(k, 1023))
	for c, r := range rows {
		var q uint64
		for _, a := range add[r.lo:r.hi] {
			x := a * hi * lo
			if x >= binadeEnd {
				q = binadeEnd
				break
			}
			f := math.Floor(x)
			switch frac := x - f; {
			case frac == 0.5:
				return false
			case frac > 0.5:
				f++
			}
			q += uint64(f)
		}
		e.q[c] = min(q, binadeEnd)
	}
	e.exp, e.m = exp, bits&(mantOne-1)|mantOne
	return true
}
