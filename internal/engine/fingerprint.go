package engine

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"sort"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/sampling"
	"memorex/internal/trace"
)

// Fingerprinting: every key the engine memoizes by is a stable 64-bit
// FNV-1a digest of content, never of object identity, so a long-running
// engine holds no reference to the traces and architectures it has
// evaluated. A request's behavior key digests the trace (trace.Digest,
// kept with the trace itself), the structural memory architecture, the
// evaluation mode and the sampling plan; it keys the Phase A capture in
// memory and on disk. Its design key folds the connectivity architecture
// into the behavior key and keys the memoized value. Two architectures
// built independently but describing the same design (same modules,
// routes, DRAM timing, clustering and component assignment) hash
// identically, so equivalent designs re-created by sibling strategies or
// experiments hit the cache.

// requestKeys computes a request's behavior key and design key; memFP
// is hashMem(r.Mem).
func requestKeys(r Request, memFP uint64) (behavior, design uint64) {
	behavior = combineBehavior(r.Trace.Digest(), memFP, r.Mode, r.Sampling)
	h := fnv.New64a()
	writeU64(h, behavior)
	writeU64(h, connFingerprint(r.Conn))
	return behavior, h.Sum64()
}

// BehaviorFingerprint computes the content-based digest of a Phase A
// behavior capture — the same value the engine keys its in-memory memo
// and the on-disk behavior-trace cache by. It hashes the full access
// stream, the structural memory architecture, the evaluation mode and
// (in Sampled mode) the sampling plan parameters, so the fingerprint
// is stable across processes and machine restarts. Exported for tools
// (e.g. cmd/simulate) that address the btcache directly without an
// Engine.
func BehaviorFingerprint(t *trace.Trace, a *mem.Architecture, mode Mode, s sampling.Config) uint64 {
	return combineBehavior(t.Digest(), hashMem(a), mode, s)
}

// combineBehavior folds the component digests into the behavior key.
func combineBehavior(traceFP, memFP uint64, mode Mode, s sampling.Config) uint64 {
	h := fnv.New64a()
	writeU64(h, traceFP)
	writeU64(h, memFP)
	writeU64(h, uint64(mode))
	if mode == Sampled {
		writeU64(h, uint64(s.OnWindow))
		writeU64(h, uint64(s.OffRatio))
	}
	return h.Sum64()
}

// memDigests memoizes hashMem over the requests of one Evaluate call.
// A call names few architectures, mostly in runs of one, so a scan from
// the latest entry finds them at once.
type memDigests []memDigest

type memDigest struct {
	a  *mem.Architecture
	fp uint64
}

// of returns hashMem(a), computing it on a's first appearance.
func (d *memDigests) of(a *mem.Architecture) uint64 {
	for i := len(*d) - 1; i >= 0; i-- {
		if (*d)[i].a == a {
			return (*d)[i].fp
		}
	}
	fp := hashMem(a)
	*d = append(*d, memDigest{a, fp})
	return fp
}

// hashMem digests a memory-modules architecture structurally: two
// architectures built independently but describing the same design
// hash identically.
func hashMem(a *mem.Architecture) uint64 {
	h := fnv.New64a()
	writeU64(h, uint64(len(a.Modules)))
	for _, m := range a.Modules {
		writeModule(h, m)
	}
	if a.L2 != nil {
		io.WriteString(h, "l2")
		writeModule(h, a.L2)
	}
	if a.DRAM != nil {
		writeModule(h, a.DRAM)
	}
	writeU64(h, uint64(int64(a.Default)))
	ids := make([]int, 0, len(a.Route))
	for ds := range a.Route {
		ids = append(ids, int(ds))
	}
	sort.Ints(ids)
	for _, ds := range ids {
		writeU64(h, uint64(ds))
		writeU64(h, uint64(int64(a.Route[trace.DSID(ds)])))
	}
	return h.Sum64()
}

// writeModule hashes one memory module by its mem.Identity, which
// covers every configuration parameter (e.g. a self-indirect DMA
// engine's node size and predictability, which its name omits).
func writeModule(h io.Writer, m mem.Module) {
	io.WriteString(h, mem.Identity(m))
	h.Write([]byte{0})
}

// connFingerprint hashes a connectivity architecture: the channel list,
// the clustering partition and the component assignment.
func connFingerprint(c *connect.Arch) uint64 {
	h := fnv.New64a()
	writeU64(h, uint64(len(c.Channels)))
	for _, ch := range c.Channels {
		writeU64(h, uint64(ch.Kind))
		writeU64(h, uint64(ch.Module))
		writeBool(h, ch.OffChip)
	}
	writeU64(h, uint64(len(c.Clusters)))
	for i, cl := range c.Clusters {
		writeU64(h, uint64(len(cl)))
		for _, ch := range cl {
			writeU64(h, uint64(ch))
		}
		comp := c.Assign[i]
		io.WriteString(h, comp.Name)
		writeU64(h, uint64(comp.Class))
		writeU64(h, uint64(comp.WidthBytes))
		writeU64(h, uint64(comp.ArbCycles))
		writeU64(h, uint64(comp.BeatCycles))
		writeBool(h, comp.Pipelined)
		writeBool(h, comp.Split)
		writeU64(h, uint64(comp.MaxPorts))
		writeBool(h, comp.OnChip)
		writeF64(h, comp.EnergyPerByte)
		writeF64(h, comp.BaseGates)
		writeF64(h, comp.GatesPerPort)
		writeF64(h, comp.WireGatesPerPort)
	}
	return h.Sum64()
}

func writeU64(w io.Writer, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	w.Write(b[:])
}

func writeF64(w io.Writer, v float64) {
	writeU64(w, uint64(int64(v*1e6)))
}

func writeBool(w io.Writer, v bool) {
	if v {
		writeU64(w, 1)
	} else {
		writeU64(w, 0)
	}
}
