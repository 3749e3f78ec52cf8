package mem

import (
	"math/rand"
	"testing"

	"memorex/internal/trace"
)

// refStreamBuffer is the stream buffer's original FIFO, kept as the
// reference for TestStreamBufferMatchesReference: a slice of lines
// scanned linearly on every access, re-sliced past the hit and topped
// up by appends.
type refStreamBuffer struct {
	lineBytes, depth, fetchLat int
	lines                      []refStreamLine
	hits, misses, restarts     int64
}

type refStreamLine struct {
	lineAddr uint32
	readyAt  int64
	valid    bool
}

func (s *refStreamBuffer) access(a trace.Access, now int64) AccessResult {
	lineAddr := a.Addr / uint32(s.lineBytes)
	for i := range s.lines {
		if s.lines[i].valid && s.lines[i].lineAddr == lineAddr {
			stall := 0
			if s.lines[i].readyAt > now {
				stall = int(s.lines[i].readyAt - now)
			}
			s.lines = append(s.lines[:0], s.lines[i:]...)
			pf := s.topUp(now + int64(stall))
			s.hits++
			return AccessResult{Hit: true, Stall: stall, PrefetchBytes: pf}
		}
	}
	s.misses++
	s.restarts++
	s.lines = s.lines[:0]
	s.lines = append(s.lines, refStreamLine{lineAddr: lineAddr, readyAt: now, valid: true})
	pf := s.topUp(now)
	return AccessResult{Hit: false, OffChipBytes: s.lineBytes, PrefetchBytes: pf}
}

func (s *refStreamBuffer) topUp(now int64) int {
	bytes := 0
	for len(s.lines) < s.depth {
		last := s.lines[len(s.lines)-1]
		s.lines = append(s.lines, refStreamLine{
			lineAddr: last.lineAddr + 1,
			readyAt:  max(now, last.readyAt) + int64(s.fetchLat),
			valid:    true,
		})
		bytes += s.lineBytes
	}
	return bytes
}

// TestStreamBufferMatchesReference holds StreamBuffer.Access to the
// original linear-scan FIFO on every AccessResult and on the Hits,
// Misses and Restarts counters, over random line sizes (down to one
// byte, whose line addresses wrap at 2^32), depths, fetch latencies
// (including ones SetFetchLatency ignores) and clocks that jump either
// way, with streams that walk forward, revisit buffered lines, skip
// ahead inside and past the window, and run near the top of the 32-bit
// space.
func TestStreamBufferMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 400; round++ {
		line := 1 << rng.Intn(8)
		depth := 1 + rng.Intn(16)
		s := MustStreamBuffer(line, depth)
		fetch := []int{-3, 0, 1, 2, 7, 20, 150}[rng.Intn(7)]
		s.SetFetchLatency(fetch)
		ref := &refStreamBuffer{lineBytes: line, depth: depth, fetchLat: 20}
		if fetch > 0 {
			ref.fetchLat = fetch
		}
		if rng.Intn(3) == 0 {
			// A clone keeps the fetch latency and starts cold.
			s = s.Clone().(*StreamBuffer)
		}
		addr := rng.Uint32()
		if rng.Intn(2) == 0 {
			addr = ^uint32(0) - uint32(rng.Intn(4*line*depth))
		}
		now := int64(rng.Intn(1000))
		for i := 0; i < 600; i++ {
			switch rng.Intn(12) {
			case 0:
				addr = rng.Uint32()
			case 1:
				addr -= uint32(rng.Intn(2 * line * depth))
			case 2, 3:
				addr += uint32(rng.Intn(2 * line * depth))
			default:
				addr += uint32(rng.Intn(line + 1))
			}
			switch rng.Intn(6) {
			case 0:
				now -= int64(rng.Intn(200))
			case 1:
				now += int64(rng.Intn(1000))
			default:
				now += int64(rng.Intn(8))
			}
			a := trace.Access{Addr: addr, Size: 4}
			got, want := s.Access(a, now), ref.access(a, now)
			if got != want {
				t.Fatalf("round %d (line %d, depth %d, fetch %d) access %d at %#x, cycle %d: got %+v, want %+v",
					round, line, depth, fetch, i, addr, now, got, want)
			}
		}
		if s.Hits != ref.hits || s.Misses != ref.misses || s.Restarts != ref.restarts {
			t.Fatalf("round %d: counters %d/%d/%d, want %d/%d/%d", round,
				s.Hits, s.Misses, s.Restarts, ref.hits, ref.misses, ref.restarts)
		}
	}
}
