// Package mem models the memory IP library of the paper: caches, on-chip
// SRAMs (scratchpads), stream buffers, "DMA-like" self-indirect prefetch
// modules, and off-chip DRAM. Each module reports an area cost in basic
// gate equivalents, an energy per access, and an internal access latency,
// and simulates its own hit/miss behaviour; the system simulator in
// internal/sim combines modules with the connectivity architecture.
package mem

import (
	"fmt"

	"memorex/internal/trace"
)

// Kind enumerates the module classes of the memory IP library.
type Kind int

// Memory module kinds.
const (
	KindCache Kind = iota
	KindSRAM
	KindStream
	KindDMA
	KindDRAM
)

// String returns the library name of the kind.
func (k Kind) String() string {
	switch k {
	case KindCache:
		return "cache"
	case KindSRAM:
		return "sram"
	case KindStream:
		return "stream"
	case KindDMA:
		return "lldma"
	case KindDRAM:
		return "dram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// AccessResult reports the outcome of one CPU access presented to a
// module.
type AccessResult struct {
	// Hit is true when the access is serviced on-chip by this module.
	Hit bool
	// OffChipBytes is the demand traffic this access generates on the
	// module's off-chip channel (line fills, write-backs, node fetches).
	OffChipBytes int
	// PrefetchBytes is additional off-chip traffic issued in the
	// background (stream-buffer lookahead). It occupies the channel and
	// consumes energy but does not stall the CPU.
	PrefetchBytes int
	// Stall is module-internal extra latency in cycles beyond the
	// module's nominal Latency (e.g. waiting for an in-flight prefetch).
	Stall int
}

// Module is one memory IP block. Modules are stateful; use Clone to get a
// fresh instance for an independent simulation run.
type Module interface {
	// Name identifies the instance, e.g. "cache8k2w32".
	Name() string
	// Kind returns the library class.
	Kind() Kind
	// Gates returns the area cost in basic gate equivalents.
	Gates() float64
	// Energy returns the energy in nJ consumed by one access to the
	// module itself (excluding connectivity and DRAM energy).
	Energy() float64
	// Latency returns the module's internal hit latency in cycles.
	Latency() int
	// Access simulates one access at CPU cycle now.
	Access(a trace.Access, now int64) AccessResult
	// SetFetchLatency informs prefetching modules how long their
	// off-chip fetch path takes (connectivity + DRAM), so that their
	// timing model is consistent with the architecture they sit in.
	SetFetchLatency(cycles int)
	// Reset restores cold-start state.
	Reset()
	// Clone returns an independent copy in cold-start state.
	Clone() Module
}

// Identity returns the canonical identity of a module's configuration:
// every parameter its behaviour, timing, energy and cost depend on. Two
// modules with equal identities produce the same hits, misses and
// traffic on any access stream from cold state, so callers may key
// memoized simulation results by it. It is the one definition of module
// identity: the evaluation engine's fingerprints and the memory-only
// evaluator's job deduplication both use it.
func Identity(m Module) string {
	switch m := m.(type) {
	case *VictimCache:
		return fmt.Sprintf("victim/%d/%d/%d/%s/%d", m.SizeBytes, m.LineBytes, m.Assoc, m.Policy, m.VictimLines)
	case *Cache:
		return fmt.Sprintf("cache/%d/%d/%d/%s", m.SizeBytes, m.LineBytes, m.Assoc, m.Policy)
	case *SRAM:
		return fmt.Sprintf("sram/%d", m.CapacityBytes)
	case *StreamBuffer:
		return fmt.Sprintf("stream/%d/%d", m.LineBytes, m.Depth)
	case *SelfIndirectDMA:
		// %b prints the float's exact binary value, so predictabilities
		// that differ in the last bit stay distinct.
		return fmt.Sprintf("lldma/%d/%d/%b", m.BufBytes, m.NodeBytes, m.Predictability)
	case *DRAM:
		return fmt.Sprintf("dram/%d/%d/%d/%d/%d", m.RowHitCycles, m.RowMissCycles, m.RowBytes, m.Banks, m.Policy)
	default:
		// A module type from outside the library: its name and reported
		// figures are all that is known of it.
		return fmt.Sprintf("%T/%s/%d/%d/%b/%b", m, m.Name(), m.Kind(), m.Latency(), m.Gates(), m.Energy())
	}
}
