package engine

import (
	"encoding/binary"
	"hash/fnv"
	"io"
	"sort"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/sampling"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// Fingerprinting: the memoization key of a request is a stable 64-bit
// FNV-1a digest over the structural content of the trace, the memory
// architecture, the connectivity architecture and the evaluation mode.
// Two architectures built independently but describing the same design
// (same modules, routes, DRAM timing, clustering and component
// assignment) hash identically, so equivalent designs re-created by
// sibling strategies or experiments hit the cache. Pointer identity is
// used only as a secondary cache to avoid re-hashing the same trace or
// architecture object.

// key computes the memoization key of a request.
func (e *Engine) key(r Request) uint64 {
	h := fnv.New64a()
	writeU64(h, e.traceFingerprint(r.Trace))
	writeU64(h, e.memFingerprint(r.Mem))
	writeU64(h, connFingerprint(r.Conn))
	writeU64(h, uint64(r.Mode))
	if r.Mode == Sampled {
		writeU64(h, uint64(r.Sampling.OnWindow))
		writeU64(h, uint64(r.Sampling.OffRatio))
	}
	return h.Sum64()
}

// behaviorKey computes the memoization key of a Phase A behavior
// capture: like key, but without the connectivity architecture — that
// independence is the whole point of the two-phase split.
func (e *Engine) behaviorKey(r Request) uint64 {
	return combineBehavior(e.traceFingerprint(r.Trace), e.memFingerprint(r.Mem), r.Mode, r.Sampling)
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
	return combineBehavior(hashTrace(t), hashMem(a), mode, s)
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

// traceFingerprint hashes a trace via hashTrace, memoized per trace
// object (traces are immutable once built).
func (e *Engine) traceFingerprint(t *trace.Trace) uint64 {
	e.mu.Lock()
	if fp, ok := e.traceFP[t]; ok {
		e.mu.Unlock()
		return fp
	}
	e.mu.Unlock()

	fp := hashTrace(t)

	e.mu.Lock()
	e.traceFP[t] = fp
	e.mu.Unlock()
	return fp
}

// hashTrace digests the full access stream and data-structure registry
// of a trace.
func hashTrace(t *trace.Trace) uint64 {
	h := fnv.New64a()
	io.WriteString(h, t.Name)
	writeU64(h, uint64(len(t.Accesses)))
	writeU64(h, uint64(len(t.DS)))
	for _, d := range t.DS {
		io.WriteString(h, d.Name)
		writeU64(h, uint64(d.Base))
		writeU64(h, uint64(d.Size))
		writeU64(h, uint64(d.Elem))
	}
	// Hash accesses in 8-byte records through a chunk buffer: the hot
	// loop avoids one Write call per access.
	var buf [8 << 10]byte
	n := 0
	for _, a := range t.Accesses {
		if n == len(buf) {
			h.Write(buf[:])
			n = 0
		}
		binary.LittleEndian.PutUint32(buf[n:], a.Addr)
		binary.LittleEndian.PutUint16(buf[n+4:], uint16(a.DS))
		buf[n+6] = byte(a.Kind)
		buf[n+7] = a.Size
		n += 8
	}
	h.Write(buf[:n])
	return h.Sum64()
}

// memFingerprint hashes an architecture via hashMem, memoized per
// architecture object.
func (e *Engine) memFingerprint(a *mem.Architecture) uint64 {
	e.mu.Lock()
	if fp, ok := e.memFP[a]; ok {
		e.mu.Unlock()
		return fp
	}
	e.mu.Unlock()

	fp := hashMem(a)

	e.mu.Lock()
	e.memFP[a] = fp
	e.mu.Unlock()
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

// timingSignature hashes only what the connectivity replay can see of
// an architecture: per channel, the owning cluster's component timing
// and energy parameters plus the cluster's sorted membership —
// sim.ChannelSignatures, folded in channel-index order. Names, classes,
// port bounds and gate counts are excluded — two architectures with
// equal signatures replay to bit-identical latency and energy figures
// and differ at most in gate cost, which is closed-form, so the batch
// dispatcher replays only one of them. Folding per-channel signatures
// is itself the canonicalization: cluster order and in-cluster channel
// order never reach the hash.
func timingSignature(c *connect.Arch) uint64 {
	h := fnv.New64a()
	writeU64(h, uint64(len(c.Channels)))
	for _, sig := range sim.ChannelSignatures(c) {
		writeU64(h, sig)
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
