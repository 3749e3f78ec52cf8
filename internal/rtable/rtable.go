// Package rtable implements reservation tables, the mechanism the paper
// (following Grun et al.'s RTGEN and Hennessy/Patterson) uses to model
// latency, pipelining and resource conflicts in the connectivity and
// memory architecture. A reservation table records which resource a
// transfer occupies at which relative cycle; a Scheduler finds the
// earliest conflict-free issue slot for a new transfer given everything
// already reserved.
//
// A Scheduler takes a transfer as a stage list (EarliestIssue, Query,
// Reserve, Grant) or, when the transfer holds a single resource from
// its issue on, as a run length (the ...Run entry points), which skips
// the list's walk and validation.
package rtable

import (
	"fmt"
	"math/bits"
	"strings"
)

// Table is a static reservation table: Rows[r] is a bitmask of the cycles
// (bit i = cycle i) during which resource r is occupied by one operation.
// Tables are limited to 64 cycles, ample for bus transfers.
type Table struct {
	Name string
	Rows []uint64
}

// New returns an empty table with the given number of resources.
func New(name string, resources int) *Table {
	return &Table{Name: name, Rows: make([]uint64, resources)}
}

// Stage marks resource res occupied during cycles [start, start+length).
func (t *Table) Stage(res, start, length int) *Table {
	if res < 0 || res >= len(t.Rows) {
		panic(fmt.Sprintf("rtable: resource %d out of range", res))
	}
	if start < 0 || length < 0 || start+length > 64 {
		panic(fmt.Sprintf("rtable: stage [%d,%d) out of the 64-cycle window", start, start+length))
	}
	for c := start; c < start+length; c++ {
		t.Rows[res] |= 1 << uint(c)
	}
	return t
}

// Length returns the number of cycles from issue to the last occupied
// cycle plus one (the table's makespan).
func (t *Table) Length() int {
	max := 0
	for _, row := range t.Rows {
		for c := 63; c >= max; c-- {
			if row&(1<<uint(c)) != 0 {
				max = c + 1
				break
			}
		}
	}
	return max
}

// ConflictFree reports whether a second identical operation can issue k
// cycles after the first without any resource collision.
func (t *Table) ConflictFree(k int) bool {
	if k < 0 {
		return false
	}
	if k >= 64 {
		return true
	}
	for _, row := range t.Rows {
		if row&(row>>uint(k)) != 0 {
			return false
		}
	}
	return true
}

// ForbiddenLatencies returns every k in [1, Length) at which a second
// identical operation collides with the first.
func (t *Table) ForbiddenLatencies() []int {
	var out []int
	for k := 1; k < t.Length(); k++ {
		if !t.ConflictFree(k) {
			out = append(out, k)
		}
	}
	return out
}

// MinInitiationInterval returns the smallest k >= 1 at which identical
// operations can issue back to back indefinitely. For a reservation
// table this equals the smallest conflict-free k, because conflicts
// between operation n and n+2 at spacing 2k are a subset of shifts
// already checked at k (row&row>>2k != 0 implies row&row>>k != 0 is not
// guaranteed in general, so we verify multiples explicitly).
func (t *Table) MinInitiationInterval() int {
	length := t.Length()
	if length == 0 {
		return 1
	}
	for k := 1; k <= length; k++ {
		ok := true
		for m := k; m < length && ok; m += k {
			if !t.ConflictFree(m) {
				ok = false
			}
		}
		if ok {
			return k
		}
	}
	return length
}

// String renders the table as an X/. grid for debugging.
func (t *Table) String() string {
	length := t.Length()
	if length == 0 {
		length = 1
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s:\n", t.Name)
	for r, row := range t.Rows {
		fmt.Fprintf(&b, "  r%d ", r)
		for c := 0; c < length; c++ {
			if row&(1<<uint(c)) != 0 {
				b.WriteByte('X')
			} else {
				b.WriteByte('.')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// Stage describes one resource occupation of a dynamic request: resource
// Res is held for cycles [Start, Start+Len) relative to issue.
type Stage struct {
	Res   int
	Start int
	Len   int
}

// Stages converts a static table into the equivalent stage list.
func (t *Table) Stages() []Stage {
	var out []Stage
	for r, row := range t.Rows {
		c := 0
		for c < 64 {
			if row&(1<<uint(c)) == 0 {
				c++
				continue
			}
			start := c
			for c < 64 && row&(1<<uint(c)) != 0 {
				c++
			}
			out = append(out, Stage{Res: r, Start: start, Len: c - start})
		}
	}
	return out
}

// Scheduler tracks the reservations of one hardware unit (e.g. one bus)
// over absolute time and answers earliest-issue queries. It maintains a
// sliding bitmap window of windowWords words per resource; cycles
// behind the window are forgotten and read as free. Each row is a ring:
// the absolute word a (cycles [64a, 64a+64)) lives in word a mod
// windowWords, so sliding the window clears the words it forgets and
// moves none.
type Scheduler struct {
	res    int
	base   int64 // absolute cycle of the window's first bit, a multiple of 64
	window [][]uint64
	stats  Stats
}

// Stats counts the scheduling activity of one Scheduler. The counters
// are plain fields bumped on the hot path (no atomics: a scheduler is
// owned by one simulation goroutine) and are read after the run, when
// the engine folds them into the exploration's metrics registry.
type Stats struct {
	// Issues counts transfers scheduled: EarliestIssue, Query, Reserve
	// and Grant calls.
	Issues int64
	// Conflicts counts busy-run collisions skipped while searching for
	// an issue slot; Conflicts/Issues measures bus contention.
	Conflicts int64
}

const windowWords = 64 // 4096-cycle window; a power of two

// NewScheduler returns a scheduler over the given number of resources.
func NewScheduler(resources int) *Scheduler {
	s := &Scheduler{res: resources}
	s.window = make([][]uint64, resources)
	for i := range s.window {
		s.window[i] = make([]uint64, windowWords)
	}
	return s
}

// ring returns the ring index of word w of the window.
func (s *Scheduler) ring(w int) int {
	return (int(s.base>>6) + w) & (windowWords - 1)
}

// advance slides the window so that absolute cycle t is representable.
// It is small enough to inline into every entry point, which mostly
// find t already in the window.
func (s *Scheduler) advance(t int64) {
	if t >= s.base+int64((windowWords-1)*64) {
		s.slide(t)
	}
}

// slide moves the window so that t sits in its first quarter.
func (s *Scheduler) slide(t int64) {
	newBase := t - int64(windowWords*16)
	if newBase < s.base {
		newBase = s.base
	}
	shiftWords := int((newBase - s.base + 63) / 64)
	if shiftWords <= 0 {
		return
	}
	// The forgotten words are the ring words of the new window's last
	// shiftWords words (all of them once it jumps past the window).
	for r := range s.window {
		for w := range min(shiftWords, windowWords) {
			s.window[r][s.ring(w)] = 0
		}
	}
	s.base += int64(shiftWords * 64)
}

// maskFrom returns a word mask covering n bits starting at bit
// (bit+n <= 64).
func maskFrom(bit uint, n int) uint64 {
	if n >= 64 {
		return ^uint64(0)
	}
	return (uint64(1)<<uint(n) - 1) << bit
}

// firstBusy returns the absolute cycle of the first reserved cycle of
// res in [t, t+n), or -1 when the whole range is free. Cycles outside
// the window (forgotten history, far future) read as free.
func (s *Scheduler) firstBusy(res int, t int64, n int) int64 {
	if n <= 0 {
		return -1
	}
	if t < s.base {
		skip := s.base - t
		if skip >= int64(n) {
			return -1
		}
		t = s.base
		n -= int(skip)
	}
	off := t - s.base
	w := int(off >> 6)
	bit := uint(off & 63)
	row := s.window[res]
	for n > 0 && w < windowWords {
		take := 64 - int(bit)
		if take > n {
			take = n
		}
		if hit := row[s.ring(w)] & maskFrom(bit, take); hit != 0 {
			return s.base + int64(w)<<6 + int64(bits.TrailingZeros64(hit))
		}
		n -= take
		w++
		bit = 0
	}
	return -1
}

// busyRunEnd returns the last cycle of the contiguous reserved run of
// res containing cycle c (which must be reserved and in the window).
func (s *Scheduler) busyRunEnd(res int, c int64) int64 {
	off := c - s.base
	w := int(off >> 6)
	bit := uint(off & 63)
	row := s.window[res]
	for w < windowWords {
		if free := ^row[s.ring(w)] >> bit << bit; free != 0 {
			return s.base + int64(w)<<6 + int64(bits.TrailingZeros64(free)) - 1
		}
		w++
		bit = 0
	}
	return s.base + windowWords<<6 - 1
}

// markRange reserves the cycles [t, t+n) of res, clamped to the window.
func (s *Scheduler) markRange(res int, t int64, n int) {
	if t < s.base {
		skip := s.base - t
		if skip >= int64(n) {
			return
		}
		t = s.base
		n -= int(skip)
	}
	off := t - s.base
	w := int(off >> 6)
	bit := uint(off & 63)
	row := s.window[res]
	for n > 0 && w < windowWords {
		take := 64 - int(bit)
		if take > n {
			take = n
		}
		row[s.ring(w)] |= maskFrom(bit, take)
		n -= take
		w++
		bit = 0
	}
}

// EarliestIssue returns the first cycle >= at where stages can be
// reserved without conflicting with prior reservations, and reserves
// them. Stages must reference resources < the scheduler's count.
//
// It is the composition of the partial entry points below: Query finds
// the grant, and the grant's stages are then reserved. Callers that can
// prove part of that work redundant call the part they need; each part
// counts the issue and slides the window exactly as EarliestIssue does,
// so the scheduler's later answers and Stats are unchanged.
func (s *Scheduler) EarliestIssue(at int64, stages []Stage) int64 {
	t := s.Query(at, stages)
	s.mark(t, stages)
	return t
}

// Query returns the cycle EarliestIssue(at, stages) would grant,
// counting the issue and its conflicts and sliding the window as
// EarliestIssue does, but reserves nothing. It replaces EarliestIssue
// when the caller knows the reservation can overlap no later query.
func (s *Scheduler) Query(at int64, stages []Stage) int64 {
	at, maxEnd := s.issue(at, stages)
	t := at
search:
	for {
		for _, st := range stages {
			c := s.firstBusy(st.Res, t+int64(st.Start), st.Len)
			if c < 0 {
				continue
			}
			// The stage overlaps a reserved run; no issue slot clears it
			// before the run ends, so jump straight past.
			s.stats.Conflicts++
			next := s.busyRunEnd(st.Res, c) - int64(st.Start) + 1
			if next <= t {
				next = t + 1
			}
			t = next
			s.advance(t + int64(maxEnd))
			continue search
		}
		break
	}
	return t
}

// Reserve reserves stages issued at cycle at without searching,
// counting the issue and sliding the window as EarliestIssue does. It
// equals EarliestIssue(at, stages) when nothing is reserved at or after
// cycle at; the caller must know that.
func (s *Scheduler) Reserve(at int64, stages []Stage) {
	at, _ = s.issue(at, stages)
	s.mark(at, stages)
}

// Grant counts an issue granted at its asking cycle and slides the
// window as EarliestIssue(at, stages) does, without searching or
// reserving. It stands in for EarliestIssue when nothing is reserved at
// or after cycle at and the reservation can overlap no later query.
func (s *Scheduler) Grant(at int64, stages []Stage) {
	s.issue(at, stages)
}

// issue is the prologue every entry point shares: it validates stages,
// clamps the asking cycle, slides the window to cover the request and
// counts the issue. It returns the clamped cycle and the stages' span.
func (s *Scheduler) issue(at int64, stages []Stage) (int64, int) {
	if at < 0 {
		at = 0
	}
	maxEnd := 0
	for _, st := range stages {
		if st.Res < 0 || st.Res >= s.res {
			panic(fmt.Sprintf("rtable: stage resource %d out of range (have %d)", st.Res, s.res))
		}
		if end := st.Start + st.Len; end > maxEnd {
			maxEnd = end
		}
	}
	s.advance(at + int64(maxEnd))
	s.stats.Issues++
	return at, maxEnd
}

// mark reserves stages issued at cycle t.
func (s *Scheduler) mark(t int64, stages []Stage) {
	for _, st := range stages {
		s.markRange(st.Res, t+int64(st.Start), st.Len)
	}
}

// The run form below schedules a transfer holding resource 0 alone
// for the cycles [0, n) of its issue: the one-stage list {{0, 0, n}}
// without the list. Each entry point counts, searches, slides and
// reserves exactly as its stage-list namesake does on that list, but
// skips the per-call stage validation, so the caller must have built
// the scheduler with at least one resource and must pass n >= 0.
//
// A scheduler every transfer of which holds the same resources over
// the same cycles keeps identical rows, and a search tests the rows in
// list order, reaching a later row only where the first is free: such
// a scheduler answers like a one-row one fed the run form, Stats
// included.

// EarliestIssueRun is EarliestIssue of a run of n cycles.
func (s *Scheduler) EarliestIssueRun(at int64, n int) int64 {
	t := s.QueryRun(at, n)
	s.markRange(0, t, n)
	return t
}

// QueryRun is Query of a run of n cycles.
func (s *Scheduler) QueryRun(at int64, n int) int64 {
	t := s.issueRun(at, n)
	for {
		c := s.firstBusy(0, t, n)
		if c < 0 {
			return t
		}
		s.stats.Conflicts++
		next := s.busyRunEnd(0, c) + 1
		if next <= t {
			next = t + 1
		}
		t = next
		s.advance(t + int64(n))
	}
}

// ReserveRun is Reserve of a run of n cycles.
func (s *Scheduler) ReserveRun(at int64, n int) {
	s.markRange(0, s.issueRun(at, n), n)
}

// GrantRun is Grant of a run of n cycles.
func (s *Scheduler) GrantRun(at int64, n int) {
	s.issueRun(at, n)
}

// issueRun is issue for a run of n cycles.
func (s *Scheduler) issueRun(at int64, n int) int64 {
	if at < 0 {
		at = 0
	}
	s.advance(at + int64(n))
	s.stats.Issues++
	return at
}

// Stats returns the scheduler's activity counters.
func (s *Scheduler) Stats() Stats { return s.stats }
