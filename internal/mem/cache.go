package mem

import (
	"fmt"
	"math/bits"

	"memorex/internal/trace"
)

// WritePolicy selects how a cache handles stores.
type WritePolicy int

// Write policies.
const (
	// WriteBack allocates on store misses and writes dirty lines back
	// on eviction (the default, and what the paper's caches model).
	WriteBack WritePolicy = iota
	// WriteThrough propagates every store off chip immediately and
	// does not allocate on store misses. Cheaper control logic, more
	// off-chip traffic — the classic embedded trade-off.
	WriteThrough
)

// String implements fmt.Stringer.
func (p WritePolicy) String() string {
	if p == WriteThrough {
		return "wt"
	}
	return "wb"
}

// Cache is a set-associative cache with true LRU replacement and a
// configurable write policy (write-back/write-allocate by default).
type Cache struct {
	SizeBytes int
	LineBytes int
	Assoc     int
	Policy    WritePolicy

	// lines holds every set's ways in one slice: set s occupies
	// lines[s*Assoc : (s+1)*Assoc], MRU first.
	lines []cacheLine
	name  string
	gates float64
	nrg   float64

	// Precomputed indexing (line size and set count are powers of two,
	// enforced by NewCache): Access is the innermost loop of every
	// memory-side simulation and the div/mod pair showed up in its
	// profile.
	lineShift uint32
	setShift  uint32
	setMask   uint32

	// Last eviction, for victim-buffer wrappers: the line address of
	// the most recently displaced valid line, and whether it was dirty.
	lastEvicted      uint32
	lastEvictedValid bool
	lastEvictedDirty bool

	// Stats accumulated since the last Reset.
	Hits, Misses, WriteBacks int64
}

type cacheLine struct {
	tag   uint32
	valid bool
	dirty bool
}

// NewCache builds a cache. Size, line and associativity must be powers of
// two with size >= line*assoc.
func NewCache(size, line, assoc int) (*Cache, error) {
	if size <= 0 || line <= 0 || assoc <= 0 {
		return nil, fmt.Errorf("mem: cache parameters must be positive (size=%d line=%d assoc=%d)", size, line, assoc)
	}
	if !pow2(size) || !pow2(line) || !pow2(assoc) {
		return nil, fmt.Errorf("mem: cache parameters must be powers of two (size=%d line=%d assoc=%d)", size, line, assoc)
	}
	if size < line*assoc {
		return nil, fmt.Errorf("mem: cache size %d smaller than line*assoc=%d", size, line*assoc)
	}
	c := &Cache{
		SizeBytes: size,
		LineBytes: line,
		Assoc:     assoc,
		name:      fmt.Sprintf("cache%dk-%dw-%db", size/1024, assoc, line),
		gates:     cacheGates(size, line, assoc),
		nrg:       cacheEnergy(size, line, assoc),
	}
	if size < 1024 {
		c.name = fmt.Sprintf("cache%db-%dw-%db", size, assoc, line)
	}
	c.Reset()
	return c, nil
}

// MustCache is NewCache that panics on invalid parameters; for use with
// constant, known-good configurations.
func MustCache(size, line, assoc int) *Cache {
	c, err := NewCache(size, line, assoc)
	if err != nil {
		panic(err)
	}
	return c
}

// NewWriteThroughCache builds a write-through, no-write-allocate cache.
func NewWriteThroughCache(size, line, assoc int) (*Cache, error) {
	c, err := NewCache(size, line, assoc)
	if err != nil {
		return nil, err
	}
	c.Policy = WriteThrough
	c.name += "-wt"
	// No dirty bits or write-back datapath: slightly cheaper control.
	c.gates -= 600
	return c, nil
}

// MustWriteThroughCache is NewWriteThroughCache that panics on invalid
// parameters.
func MustWriteThroughCache(size, line, assoc int) *Cache {
	c, err := NewWriteThroughCache(size, line, assoc)
	if err != nil {
		panic(err)
	}
	return c
}

// Name implements Module.
func (c *Cache) Name() string { return c.name }

// Kind implements Module.
func (c *Cache) Kind() Kind { return KindCache }

// Gates implements Module.
func (c *Cache) Gates() float64 { return c.gates }

// Energy implements Module.
func (c *Cache) Energy() float64 { return c.nrg }

// Latency implements Module. One cycle to hit; larger caches take two.
func (c *Cache) Latency() int {
	if c.SizeBytes > 16*1024 {
		return 2
	}
	return 1
}

// SetFetchLatency implements Module (caches don't prefetch).
func (c *Cache) SetFetchLatency(int) {}

// Reset implements Module.
func (c *Cache) Reset() {
	nSets := c.SizeBytes / (c.LineBytes * c.Assoc)
	c.lines = make([]cacheLine, nSets*c.Assoc)
	c.lineShift = uint32(bits.TrailingZeros32(uint32(c.LineBytes)))
	c.setShift = uint32(bits.TrailingZeros32(uint32(nSets)))
	c.setMask = uint32(nSets - 1)
	c.Hits, c.Misses, c.WriteBacks = 0, 0, 0
}

// Clone implements Module.
func (c *Cache) Clone() Module {
	if c.Policy == WriteThrough {
		return MustWriteThroughCache(c.SizeBytes, c.LineBytes, c.Assoc)
	}
	return MustCache(c.SizeBytes, c.LineBytes, c.Assoc)
}

// Access implements Module.
func (c *Cache) Access(a trace.Access, _ int64) AccessResult {
	lineAddr := a.Addr >> c.lineShift
	setIdx := lineAddr & c.setMask
	base := int(setIdx) * c.Assoc
	set := c.lines[base : base+c.Assoc : base+c.Assoc] // set[0] is MRU
	tag := lineAddr >> c.setShift

	for i := range set {
		if set[i].valid && set[i].tag == tag {
			// Hit: move to MRU (already there for way 0).
			if i > 0 {
				hitLine := set[i]
				copy(set[1:i+1], set[:i])
				set[0] = hitLine
			}
			if a.Kind == trace.Store {
				if c.Policy == WriteThrough {
					// The store is counted as a hit (no stall in our
					// posted-write model) but its bytes go off chip.
					c.Hits++
					return AccessResult{Hit: true, OffChipBytes: int(a.Size)}
				}
				set[0].dirty = true
			}
			c.Hits++
			return AccessResult{Hit: true}
		}
	}
	if c.Policy == WriteThrough && a.Kind == trace.Store {
		// No write allocation: the store goes straight off chip.
		c.Misses++
		return AccessResult{Hit: false, OffChipBytes: int(a.Size)}
	}
	// Miss: evict LRU, fill, insert at MRU.
	c.Misses++
	victim := set[len(set)-1]
	wb := 0
	c.lastEvictedValid = victim.valid
	if victim.valid {
		c.lastEvicted = victim.tag<<c.setShift | setIdx
		c.lastEvictedDirty = victim.dirty
		if victim.dirty {
			wb = c.LineBytes
			c.WriteBacks++
		}
	}
	if len(set) > 1 {
		copy(set[1:], set[:len(set)-1])
	}
	set[0] = cacheLine{tag: tag, valid: true, dirty: a.Kind == trace.Store}
	return AccessResult{Hit: false, OffChipBytes: c.LineBytes + wb}
}

func pow2(v int) bool { return v > 0 && v&(v-1) == 0 }
