package mem

import (
	"fmt"
	"math/bits"

	"memorex/internal/trace"
)

// StreamBuffer is a prefetching FIFO for stream (sequential) accesses, as
// in Jouppi-style stream buffers: it holds Depth lines ahead of the
// current read point and refills in the background. Accesses that fall in
// the buffered window hit (possibly stalling until the in-flight fetch
// lands); accesses outside the window restart the stream.
type StreamBuffer struct {
	LineBytes int
	Depth     int

	fetchLat int // off-chip fetch latency set by the architecture
	name     string
	gates    float64
	nrg      float64

	// The FIFO always holds the consecutive line addresses headLine,
	// headLine+1, ... (modulo 2^32), n of them: none before the first
	// access, Depth ever after. ready is a ring of their readyAt
	// cycles, the head line's at ready[head]; tail is the last line's.
	lineShift uint32
	headLine  uint32
	n         int
	head      int
	ready     []int64
	tail      int64

	Hits, Misses, Restarts int64
}

// NewStreamBuffer builds a stream buffer of depth lines.
func NewStreamBuffer(lineBytes, depth int) (*StreamBuffer, error) {
	if lineBytes <= 0 || !pow2(lineBytes) {
		return nil, fmt.Errorf("mem: stream buffer line must be a positive power of two, got %d", lineBytes)
	}
	if depth <= 0 {
		return nil, fmt.Errorf("mem: stream buffer depth must be positive, got %d", depth)
	}
	s := &StreamBuffer{
		LineBytes: lineBytes,
		Depth:     depth,
		fetchLat:  20,
		lineShift: uint32(bits.TrailingZeros32(uint32(lineBytes))),
		name:      fmt.Sprintf("stream%dx%db", depth, lineBytes),
		gates:     streamGates(depth, lineBytes),
		nrg:       sramEnergy(depth*lineBytes) + 0.02,
	}
	s.Reset()
	return s, nil
}

// MustStreamBuffer is NewStreamBuffer that panics on invalid parameters.
func MustStreamBuffer(lineBytes, depth int) *StreamBuffer {
	s, err := NewStreamBuffer(lineBytes, depth)
	if err != nil {
		panic(err)
	}
	return s
}

// Name implements Module.
func (s *StreamBuffer) Name() string { return s.name }

// Kind implements Module.
func (s *StreamBuffer) Kind() Kind { return KindStream }

// Gates implements Module.
func (s *StreamBuffer) Gates() float64 { return s.gates }

// Energy implements Module.
func (s *StreamBuffer) Energy() float64 { return s.nrg }

// Latency implements Module.
func (s *StreamBuffer) Latency() int { return 1 }

// SetFetchLatency implements Module.
func (s *StreamBuffer) SetFetchLatency(cycles int) {
	if cycles > 0 {
		s.fetchLat = cycles
	}
}

// Reset implements Module.
func (s *StreamBuffer) Reset() {
	s.ready = make([]int64, s.Depth)
	s.n, s.head = 0, 0
	s.Hits, s.Misses, s.Restarts = 0, 0, 0
}

// Clone implements Module.
func (s *StreamBuffer) Clone() Module {
	c := MustStreamBuffer(s.LineBytes, s.Depth)
	c.fetchLat = s.fetchLat
	return c
}

// Access implements Module. A hit is found by its distance from the
// head line, so an access costs O(1) plus one ring write per line it
// prefetches.
func (s *StreamBuffer) Access(a trace.Access, now int64) AccessResult {
	lineAddr := a.Addr >> s.lineShift
	if i := lineAddr - s.headLine; uint64(i) < uint64(s.n) {
		// In-window hit; stall until the fetch has landed.
		slot := s.head + int(i)
		if slot >= s.Depth {
			slot -= s.Depth
		}
		stall := 0
		if r := s.ready[slot]; r > now {
			stall = int(r - now)
		}
		// Consume the i lines before the hit: their slots take the lines
		// that top the FIFO up ahead of the new read point.
		s.topUp(s.head, int(i), now+int64(stall))
		s.head, s.headLine = slot, lineAddr
		s.Hits++
		return AccessResult{Hit: true, Stall: stall, PrefetchBytes: int(i) * s.LineBytes}
	}
	// Out of window: restart the stream at this address.
	s.Misses++
	s.Restarts++
	s.head, s.headLine, s.n = 0, lineAddr, s.Depth
	s.ready[0], s.tail = now, now
	s.topUp(1, s.Depth-1, now)
	return AccessResult{Hit: false, OffChipBytes: s.LineBytes, PrefetchBytes: (s.Depth - 1) * s.LineBytes}
}

// topUp issues the background prefetches of k lines behind the tail
// into the k ring slots from slot on, each landing a fetch latency after
// the later of now and the line before it. The fetch latency is
// positive, so from the second line on the line before is the later:
// the lines land one fetch latency apart.
func (s *StreamBuffer) topUp(slot, k int, now int64) {
	if k == 0 {
		return
	}
	f := int64(s.fetchLat)
	first := max(now, s.tail) + f
	s.tail = first + int64(k-1)*f
	for j := 0; j < k; j++ {
		s.ready[slot] = first + int64(j)*f
		if slot++; slot == s.Depth {
			slot = 0
		}
	}
}
