// Package trace defines the memory-access trace representation shared by
// every layer of MemorEx: the instrumented workloads emit traces, the
// profiler classifies them, and the simulator replays them against a
// candidate memory/connectivity architecture.
//
// A trace is the MemorEx equivalent of a SHADE instruction-level memory
// trace in the original paper: a sequence of CPU loads and stores, each
// tagged with the application data structure it touches, plus a registry
// describing where each data structure lives in the 32-bit address space.
package trace

import (
	"errors"
	"fmt"
	"sort"
)

// Kind distinguishes loads from stores.
type Kind uint8

// Access kinds.
const (
	Load Kind = iota
	Store
)

// String returns "load" or "store".
func (k Kind) String() string {
	switch k {
	case Load:
		return "load"
	case Store:
		return "store"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// DSID identifies a data structure within a trace. DSID 0 is reserved for
// "anonymous" accesses (stack spills, scalars) that no exploration step
// tries to remap.
type DSID uint16

// Anonymous is the data-structure ID used for accesses that do not belong
// to any registered data structure.
const Anonymous DSID = 0

// Access is a single CPU memory reference.
type Access struct {
	Addr uint32 // byte address
	DS   DSID   // owning data structure (Anonymous if none)
	Kind Kind   // load or store
	Size uint8  // access width in bytes (1, 2, 4 or 8)
}

// DSInfo describes one application data structure: its name, the region
// it occupies, and its element size (the natural access granularity).
type DSInfo struct {
	Name string
	Base uint32 // first byte of the region
	Size uint32 // region length in bytes
	Elem uint32 // element size in bytes (0 if irregular)
}

// Contains reports whether addr falls inside the data structure's region.
func (d DSInfo) Contains(addr uint32) bool {
	return addr >= d.Base && addr-d.Base < d.Size
}

// Trace is a complete memory-access trace: the access stream plus the
// data-structure registry. Index i of DS describes DSID(i); index 0 is
// the anonymous pseudo-structure.
type Trace struct {
	Name     string
	Accesses []Access
	DS       []DSInfo
}

// NumAccesses returns the length of the access stream.
func (t *Trace) NumAccesses() int { return len(t.Accesses) }

// Info returns the registry entry for id. The anonymous entry is returned
// for out-of-range ids so that callers can always print something.
func (t *Trace) Info(id DSID) DSInfo {
	if int(id) < len(t.DS) {
		return t.DS[id]
	}
	return DSInfo{Name: "?"}
}

// Validate checks the structural invariants of a trace: registry entry 0
// is the anonymous structure, regions do not overlap, every access with a
// non-anonymous DSID lands inside its region, every access is a load or a
// store, and access sizes are sane.
func (t *Trace) Validate() error {
	if len(t.DS) == 0 {
		return errors.New("trace: empty data-structure registry")
	}
	type span struct {
		lo, hi uint64
		id     int
	}
	spans := make([]span, 0, len(t.DS))
	for i, d := range t.DS {
		if i == 0 {
			continue // anonymous: no region constraints
		}
		if d.Size == 0 {
			return fmt.Errorf("trace: data structure %d (%s) has zero size", i, d.Name)
		}
		spans = append(spans, span{uint64(d.Base), uint64(d.Base) + uint64(d.Size), i})
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			return fmt.Errorf("trace: regions of data structures %d and %d overlap",
				spans[i-1].id, spans[i].id)
		}
	}
	for i, a := range t.Accesses {
		switch a.Size {
		case 1, 2, 4, 8:
		default:
			return fmt.Errorf("trace: access %d has invalid size %d", i, a.Size)
		}
		if a.Kind != Load && a.Kind != Store {
			return fmt.Errorf("trace: access %d has invalid kind %d", i, a.Kind)
		}
		if a.DS == Anonymous {
			continue
		}
		if int(a.DS) >= len(t.DS) {
			return fmt.Errorf("trace: access %d references unknown data structure %d", i, a.DS)
		}
		if !t.DS[a.DS].Contains(a.Addr) {
			return fmt.Errorf("trace: access %d (addr %#x) outside region of %s",
				i, a.Addr, t.DS[a.DS].Name)
		}
	}
	return nil
}

// Slice returns a shallow copy of t restricted to accesses [lo, hi).
// The data-structure registry is shared.
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Accesses) {
		hi = len(t.Accesses)
	}
	if lo > hi {
		lo = hi
	}
	return &Trace{Name: t.Name, Accesses: t.Accesses[lo:hi], DS: t.DS}
}

// CountByDS returns the number of accesses per data structure, indexed by
// DSID. The slice has len(t.DS) entries.
func (t *Trace) CountByDS() []int64 {
	counts := make([]int64, len(t.DS))
	for _, a := range t.Accesses {
		if int(a.DS) < len(counts) {
			counts[a.DS]++
		}
	}
	return counts
}

// BytesByDS returns the number of bytes transferred per data structure.
func (t *Trace) BytesByDS() []int64 {
	bytes := make([]int64, len(t.DS))
	for _, a := range t.Accesses {
		if int(a.DS) < len(bytes) {
			bytes[a.DS] += int64(a.Size)
		}
	}
	return bytes
}
