package mem

import (
	"fmt"

	"memorex/internal/trace"
)

// SelfIndirectDMA is the paper's "DMA-like custom memory module" for
// well-behaved pointer-based structures (linked lists, self-indirect
// array references): a small engine that, as soon as the CPU touches an
// element, dereferences the link and fetches the next element into an
// on-chip buffer. If the CPU's next touch of the structure arrives after
// the fetch completes, it hits on-chip; if it arrives early, it stalls
// for the remainder; if it leaves the predicted chain (the engine
// mispredicts), it pays a full miss.
//
// Chain-following accuracy is a property of the data structure, not the
// engine, so the module takes a predictability parameter: the fraction of
// accesses that follow the link the engine prefetched. The profiler
// measures this per data structure (profile.Stats.ChainRatio) and APEX
// instantiates the module with the measured value.
type SelfIndirectDMA struct {
	BufBytes  int
	NodeBytes int
	// Predictability in [0,1]: fraction of accesses following the chain.
	Predictability float64

	fetchLat int
	name     string
	gates    float64
	nrg      float64

	lastTouch int64
	warm      bool
	// Deterministic accuracy accounting: hit when the running chain
	// credit reaches 1 (avoids RNG in the architecture model).
	credit float64

	Hits, Misses int64
}

// NewSelfIndirectDMA builds a self-indirect prefetch module.
func NewSelfIndirectDMA(bufBytes, nodeBytes int, predictability float64) (*SelfIndirectDMA, error) {
	if bufBytes <= 0 || nodeBytes <= 0 {
		return nil, fmt.Errorf("mem: lldma buffer/node sizes must be positive (%d, %d)", bufBytes, nodeBytes)
	}
	if predictability < 0 || predictability > 1 {
		return nil, fmt.Errorf("mem: lldma predictability %v outside [0,1]", predictability)
	}
	return &SelfIndirectDMA{
		BufBytes:       bufBytes,
		NodeBytes:      nodeBytes,
		Predictability: predictability,
		fetchLat:       20,
		name:           fmt.Sprintf("lldma%db", bufBytes),
		gates:          dmaGates(bufBytes),
		nrg:            sramEnergy(bufBytes) + 0.05,
	}, nil
}

// MustSelfIndirectDMA is NewSelfIndirectDMA that panics on bad parameters.
func MustSelfIndirectDMA(bufBytes, nodeBytes int, predictability float64) *SelfIndirectDMA {
	d, err := NewSelfIndirectDMA(bufBytes, nodeBytes, predictability)
	if err != nil {
		panic(err)
	}
	return d
}

// Name implements Module.
func (d *SelfIndirectDMA) Name() string { return d.name }

// Kind implements Module.
func (d *SelfIndirectDMA) Kind() Kind { return KindDMA }

// Gates implements Module.
func (d *SelfIndirectDMA) Gates() float64 { return d.gates }

// Energy implements Module.
func (d *SelfIndirectDMA) Energy() float64 { return d.nrg }

// Latency implements Module.
func (d *SelfIndirectDMA) Latency() int { return 1 }

// SetFetchLatency implements Module.
func (d *SelfIndirectDMA) SetFetchLatency(cycles int) {
	if cycles > 0 {
		d.fetchLat = cycles
	}
}

// Reset implements Module.
func (d *SelfIndirectDMA) Reset() {
	d.lastTouch = 0
	d.warm = false
	d.credit = 0
	d.Hits, d.Misses = 0, 0
}

// Clone implements Module.
func (d *SelfIndirectDMA) Clone() Module {
	c := MustSelfIndirectDMA(d.BufBytes, d.NodeBytes, d.Predictability)
	c.fetchLat = d.fetchLat
	return c
}

// SinceLastTouch returns the cycles elapsed since the engine was last
// touched (now if it never was). The behavior-capture phase of the
// two-phase simulator snapshots this across sampling gaps.
func (d *SelfIndirectDMA) SinceLastTouch(now int64) int64 {
	return now - d.lastTouch
}

// Access implements Module.
func (d *SelfIndirectDMA) Access(_ trace.Access, now int64) AccessResult {
	last := d.lastTouch
	d.lastTouch = now
	if !d.warm {
		d.warm = true
		d.Misses++
		return AccessResult{Hit: false, OffChipBytes: d.NodeBytes}
	}
	d.credit += d.Predictability
	if d.credit >= 1 {
		d.credit -= 1
		// The engine prefetched the right node; it started the fetch at
		// the previous touch.
		stall := 0
		ready := last + int64(d.fetchLat)
		if ready > now {
			stall = int(ready - now)
		}
		d.Hits++
		// The prefetch of the *next* node is background traffic.
		return AccessResult{Hit: true, Stall: stall, PrefetchBytes: d.NodeBytes}
	}
	// Mispredicted: demand fetch.
	d.Misses++
	return AccessResult{Hit: false, OffChipBytes: d.NodeBytes}
}
