package trace

import (
	"fmt"
)

// Builder incrementally constructs a Trace. Workloads register their data
// structures up front (receiving a region in the synthetic address space
// and a DSID) and then record loads and stores as the algorithm runs.
//
// The address space is laid out by the builder: regions are allocated
// upward from regionBase, aligned to regionAlign, with a guard gap between
// regions so that pattern classification never confuses neighbours.
type Builder struct {
	t       Trace
	nextTop uint32
}

const (
	regionBase  uint32 = 0x1000_0000
	regionAlign uint32 = 0x1000 // 4 KiB
	regionGuard uint32 = 0x1000
)

// NewBuilder returns a Builder for a trace with the given name. Capacity
// is a hint for the expected number of accesses.
func NewBuilder(name string, capacity int) *Builder {
	b := &Builder{nextTop: regionBase}
	b.t.Name = name
	b.t.Accesses = make([]Access, 0, capacity)
	b.t.DS = []DSInfo{{Name: "anon"}}
	return b
}

// Region registers a data structure of size bytes with the given element
// granularity, and returns its DSID and base address. It panics if the
// 32-bit synthetic address space is exhausted (a workload bug, not user
// input).
func (b *Builder) Region(name string, size, elem uint32) (DSID, uint32) {
	if size == 0 {
		size = 1
	}
	base := b.nextTop
	span := (size + regionAlign - 1) &^ (regionAlign - 1)
	if span < size || base+span+regionGuard < base {
		panic(fmt.Sprintf("trace: address space exhausted registering %q (%d bytes at %#x)",
			name, size, base))
	}
	b.nextTop += span + regionGuard
	id := DSID(len(b.t.DS))
	b.t.DS = append(b.t.DS, DSInfo{Name: name, Base: base, Size: size, Elem: elem})
	return id, base
}

// Load records a load of size bytes at offset off within data structure id.
func (b *Builder) Load(id DSID, off uint32, size uint8) {
	b.t.Accesses = append(b.t.Accesses, Access{
		Addr: b.t.DS[id].Base + off, DS: id, Kind: Load, Size: size,
	})
}

// Store records a store of size bytes at offset off within data structure id.
func (b *Builder) Store(id DSID, off uint32, size uint8) {
	b.t.Accesses = append(b.t.Accesses, Access{
		Addr: b.t.DS[id].Base + off, DS: id, Kind: Store, Size: size,
	})
}

// LoadAddr records a load at an absolute address belonging to id.
func (b *Builder) LoadAddr(id DSID, addr uint32, size uint8) {
	b.t.Accesses = append(b.t.Accesses, Access{Addr: addr, DS: id, Kind: Load, Size: size})
}

// StoreAddr records a store at an absolute address belonging to id.
func (b *Builder) StoreAddr(id DSID, addr uint32, size uint8) {
	b.t.Accesses = append(b.t.Accesses, Access{Addr: addr, DS: id, Kind: Store, Size: size})
}

// Anon records an anonymous access (stack slot, scalar temporary).
func (b *Builder) Anon(kind Kind, addr uint32, size uint8) {
	b.t.Accesses = append(b.t.Accesses, Access{Addr: addr, DS: Anonymous, Kind: kind, Size: size})
}

// Build finalizes and validates the trace. It panics on a validation
// failure, which always indicates a bug in the instrumented workload
// rather than bad user input.
func (b *Builder) Build() *Trace {
	t := &Trace{Name: b.t.Name, Accesses: b.t.Accesses, DS: b.t.DS}
	if err := t.Validate(); err != nil {
		panic(fmt.Sprintf("trace builder produced invalid trace: %v", err))
	}
	return t
}

// Len returns the number of accesses recorded so far.
func (b *Builder) Len() int { return len(b.t.Accesses) }
