// Package btcache is the persistent on-disk store for captured
// behavior traces. Phase A of the two-phase simulator (see
// internal/sim/behavior.go) is connectivity-independent: a
// sim.BehaviorTrace depends only on the trace content, the memory
// architecture and the sampling plan, so it can be reused across
// process runs — every CLI invocation and every paperbench experiment
// re-times the same captures otherwise. The cache stores one entry per
// behavior fingerprint (the engine's stable content hash of that
// triple) in a compact, versioned binary format.
//
// Correctness over availability: the cache must never serve a wrong or
// torn capture. Every entry is written atomically (temp file + fsync +
// rename), carries a CRC-32C over its payload, and is validated in
// full on load — bad magic, version skew, fingerprint mismatch,
// truncation, checksum failure or any structural inconsistency is
// treated as a miss, the damaged file is quarantined, and the caller
// falls through to a fresh capture. fault.go ships the corruption
// harness the test suite drives through every one of those paths.
package btcache

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"memorex/internal/mem"
	"memorex/internal/sim"
)

// On-disk entry layout (all integers little-endian):
//
//	offset  size  field
//	0       4     magic "MXBT"
//	4       2     format version (FormatVersion)
//	6       2     reserved, must be zero
//	8       8     behavior fingerprint (must match the entry's key)
//	16      8     payload length in bytes
//	24      4     CRC-32C (Castagnoli) of the payload
//	28      ...   payload
//
// The payload opens with a section table — u32 section count (always
// 3), then one u64 length per section — followed by the sections
// themselves, concatenated:
//
//	section 0  architecture: channels, module metadata, L2/DRAM
//	           constants, transfer-size and DRAM-latency bounds
//	section 1  events: u32 class count, one row per class holding the
//	           ten sim.Event fields in declaration order, then u32
//	           event count and one u32 class id per event
//	section 2  windows: per-window lengths, gap cycles, resync records
//
// Every count is cross-checked against its section's exact byte length
// before anything is allocated, and each section must be consumed to
// its last byte. This is the trace's in-memory form, so Decode only
// parses the sections; the parsed trace is then validated whole
// (sim.BehaviorTrace.Compile) with a fixed amount of work per byte: a
// CRC-valid but structurally inconsistent entry is still rejected
// rather than replayed.
const (
	// Magic identifies a behavior-trace cache entry.
	Magic = "MXBT"
	// FormatVersion is bumped whenever the serialization layout *or*
	// the capture semantics change (a stale capture replayed under new
	// semantics would be silently wrong, so version skew is a miss).
	FormatVersion = 2
	// headerSize is the fixed entry header before the payload.
	headerSize = 28
	// sectionCount is the number of payload sections.
	sectionCount = 3
	// maxCount bounds the channel/module counts a decoder will accept;
	// real architectures have a handful of each.
	maxCount = 1 << 20
)

// castagnoli is the CRC-32C table used for payload checksums.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptError reports a cache entry that failed validation. The cache
// treats every CorruptError as a miss and quarantines the entry.
type CorruptError struct {
	// Reason describes the first validation failure encountered.
	Reason string
}

// Error implements error.
func (e *CorruptError) Error() string { return "btcache: corrupt entry: " + e.Reason }

// IsCorrupt reports whether err is a cache-entry validation failure.
func IsCorrupt(err error) bool {
	_, ok := err.(*CorruptError)
	return ok
}

func corruptf(format string, args ...interface{}) error {
	return &CorruptError{Reason: fmt.Sprintf(format, args...)}
}

// Per-element sizes of the serialized forms.
const (
	channelBytes = 4 + 4 + 1             // kind, module, offchip
	moduleBytes  = 4 + 4 + 8 + 4 + 4 + 1 // kind, latency, energy, line, depth, backed
	classBytes   = 2 + 1 + 1 + 4 + 4 + 4 + 4 + 4 + 2 + 2
)

// Encode serializes a behavior trace into a cache entry carrying the
// given fingerprint.
func Encode(bt *sim.BehaviorTrace, fp uint64) []byte {
	archLen := 4 + len(bt.Channels)*channelBytes +
		4 + len(bt.Modules)*moduleBytes +
		1 + 4 + 8 + // HasL2, L2Latency, L2Energy
		4 + 8 + // DRAMRowHit, DRAMEnergy
		4 + 4 // MaxBytes, MaxDRAMLat
	eventsLen := 4 + len(bt.Classes)*classBytes + 4 + len(bt.IDs)*4
	windowsLen := 4 + len(bt.WindowLen)*4 + len(bt.GapCycles)*8 + 4 + len(bt.Resync)*4
	tableLen := 4 + sectionCount*8
	payloadLen := tableLen + archLen + eventsLen + windowsLen

	buf := make([]byte, headerSize+payloadLen)
	w := &writer{b: buf, off: headerSize}

	// Section table.
	w.u32(sectionCount)
	w.u64(uint64(archLen))
	w.u64(uint64(eventsLen))
	w.u64(uint64(windowsLen))

	// Section 0: architecture.
	w.u32(uint32(len(bt.Channels)))
	for _, ch := range bt.Channels {
		w.u32(uint32(ch.Kind))
		w.i32(int32(ch.Module))
		w.bool(ch.OffChip)
	}
	w.u32(uint32(len(bt.Modules)))
	for _, m := range bt.Modules {
		w.u32(uint32(m.Kind))
		w.i32(int32(m.Latency))
		w.f64(m.Energy)
		w.i32(int32(m.LineBytes))
		w.i32(int32(m.Depth))
		w.bool(m.Backed)
	}
	w.bool(bt.HasL2)
	w.i32(int32(bt.L2Latency))
	w.f64(bt.L2Energy)
	w.i32(int32(bt.DRAMRowHit))
	w.f64(bt.DRAMEnergy)
	w.i32(int32(bt.MaxBytes))
	w.i32(int32(bt.MaxDRAMLat))

	// Section 1: the class table, then the class ids.
	w.u32(uint32(len(bt.Classes)))
	for i := range bt.Classes {
		ev := &bt.Classes[i].Event
		w.u16(uint16(ev.Route))
		w.u8(ev.Size)
		w.u8(ev.Flags)
		w.i32(ev.Stall)
		w.i32(ev.DemandBytes)
		w.i32(ev.DemandL2Off)
		w.i32(ev.PrefBytes)
		w.i32(ev.PrefL2Off)
		w.u16(uint16(ev.DemandDRAM))
		w.u16(uint16(ev.PrefDRAM))
	}
	w.u32(uint32(len(bt.IDs)))
	for _, id := range bt.IDs {
		w.u32(id)
	}

	// Section 2: window bookkeeping.
	w.u32(uint32(len(bt.WindowLen)))
	w.i32s(bt.WindowLen)
	w.i64s(bt.GapCycles)
	w.u32(uint32(len(bt.Resync)))
	w.i32s(bt.Resync)

	if w.off != len(buf) {
		panic(fmt.Sprintf("btcache: encoded %d bytes into a %d-byte entry", w.off, len(buf)))
	}

	// Header, last: the CRC covers the finished payload.
	copy(buf[0:4], Magic)
	binary.LittleEndian.PutUint16(buf[4:], FormatVersion)
	binary.LittleEndian.PutUint16(buf[6:], 0)
	binary.LittleEndian.PutUint64(buf[8:], fp)
	binary.LittleEndian.PutUint64(buf[16:], uint64(payloadLen))
	binary.LittleEndian.PutUint32(buf[24:], crc32.Checksum(buf[headerSize:], castagnoli))
	return buf
}

// Decode validates a cache entry against the expected fingerprint and
// reconstructs its behavior trace. Any validation failure — truncated
// or oversized data, bad magic, version skew, fingerprint mismatch,
// checksum failure, or a structurally inconsistent payload — returns a
// *CorruptError and no trace.
func Decode(data []byte, fp uint64) (*sim.BehaviorTrace, error) {
	payload, err := checkHeader(data, fp)
	if err != nil {
		return nil, err
	}
	if got := crc32.Checksum(payload, castagnoli); got != binary.LittleEndian.Uint32(data[24:]) {
		return nil, corruptf("payload checksum mismatch (got %08x, header says %08x)",
			got, binary.LittleEndian.Uint32(data[24:]))
	}

	secs, err := splitSections(payload)
	if err != nil {
		return nil, err
	}
	bt := &sim.BehaviorTrace{}
	if err := decodeArch(secs[0], bt); err != nil {
		return nil, err
	}
	if err := decodeEvents(secs[1], bt); err != nil {
		return nil, err
	}
	if err := decodeWindows(secs[2], bt); err != nil {
		return nil, err
	}
	if err := bt.Compile(); err != nil {
		return nil, corruptf("%v", err)
	}
	return bt, nil
}

// checkHeader validates the fixed header and returns the payload view.
func checkHeader(data []byte, fp uint64) ([]byte, error) {
	if len(data) < headerSize {
		return nil, corruptf("truncated header (%d of %d bytes)", len(data), headerSize)
	}
	if string(data[0:4]) != Magic {
		return nil, corruptf("bad magic %q", data[0:4])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != FormatVersion {
		return nil, corruptf("format version %d (this build reads %d)", v, FormatVersion)
	}
	if r := binary.LittleEndian.Uint16(data[6:]); r != 0 {
		return nil, corruptf("reserved header bytes set (%#x)", r)
	}
	if got := binary.LittleEndian.Uint64(data[8:]); got != fp {
		return nil, corruptf("fingerprint mismatch (entry %016x, key %016x)", got, fp)
	}
	plen := binary.LittleEndian.Uint64(data[16:])
	if plen != uint64(len(data)-headerSize) {
		return nil, corruptf("payload length %d does not match the %d bytes present",
			plen, len(data)-headerSize)
	}
	return data[headerSize:], nil
}

// splitSections parses the section table and slices the payload into
// its sections, verifying the lengths consume the payload exactly.
func splitSections(payload []byte) ([sectionCount][]byte, error) {
	var secs [sectionCount][]byte
	tableLen := 4 + sectionCount*8
	if len(payload) < tableLen {
		return secs, corruptf("truncated section table (%d of %d bytes)", len(payload), tableLen)
	}
	if n := binary.LittleEndian.Uint32(payload); n != sectionCount {
		return secs, corruptf("section count %d, want %d", n, sectionCount)
	}
	off := uint64(tableLen)
	for i := 0; i < sectionCount; i++ {
		l := binary.LittleEndian.Uint64(payload[4+8*i:])
		if l > uint64(len(payload))-off {
			return secs, corruptf("section %d length %d overruns the payload", i, l)
		}
		secs[i] = payload[off : off+l]
		off += l
	}
	if off != uint64(len(payload)) {
		return secs, corruptf("%d trailing payload bytes after the last section", uint64(len(payload))-off)
	}
	return secs, nil
}

// SectionBoundaries returns the file offsets at which the header, the
// section table and each payload section end (the last boundary is the
// entry length). The fault-injection suite truncates an entry at every
// one of these points; all of them must decode to a clean miss.
func SectionBoundaries(data []byte) ([]int, error) {
	if len(data) < headerSize {
		return nil, corruptf("truncated header (%d of %d bytes)", len(data), headerSize)
	}
	payload := data[headerSize:]
	secs, err := splitSections(payload)
	if err != nil {
		return nil, err
	}
	bounds := []int{headerSize, headerSize + 4 + sectionCount*8}
	off := bounds[len(bounds)-1]
	for _, s := range secs {
		off += len(s)
		bounds = append(bounds, off)
	}
	return bounds, nil
}

// decodeArch parses section 0 into the architecture-level fields.
func decodeArch(sec []byte, bt *sim.BehaviorTrace) error {
	r := &reader{b: sec, section: "arch"}
	nCh := r.count("channels")
	if r.err != nil {
		return r.err
	}
	if len(sec) < 4+nCh*channelBytes {
		return corruptf("arch section too short for %d channels", nCh)
	}
	bt.Channels = make([]mem.Channel, nCh)
	for i := range bt.Channels {
		bt.Channels[i] = mem.Channel{
			Kind:    mem.ChannelKind(r.u32()),
			Module:  int(r.i32()),
			OffChip: r.bool(),
		}
	}
	nMod := r.count("modules")
	if r.err != nil {
		return r.err
	}
	if len(sec)-r.off < nMod*moduleBytes {
		return corruptf("arch section too short for %d modules", nMod)
	}
	bt.Modules = make([]sim.ModuleMeta, nMod)
	for i := range bt.Modules {
		bt.Modules[i] = sim.ModuleMeta{
			Kind:      mem.Kind(r.u32()),
			Latency:   int(r.i32()),
			Energy:    r.f64(),
			LineBytes: int(r.i32()),
			Depth:     int(r.i32()),
			Backed:    r.bool(),
		}
	}
	bt.HasL2 = r.bool()
	bt.L2Latency = int(r.i32())
	bt.L2Energy = r.f64()
	bt.DRAMRowHit = int(r.i32())
	bt.DRAMEnergy = r.f64()
	bt.MaxBytes = int(r.i32())
	bt.MaxDRAMLat = int(r.i32())
	return r.finish()
}

// decodeEvents parses section 1 into the trace's class table and class
// ids.
func decodeEvents(sec []byte, bt *sim.BehaviorTrace) error {
	r := &reader{b: sec, section: "events"}
	// A full-trace capture holds one id per access, millions of them,
	// and a forged one as many classes, so both counts are bounded by
	// the section's exact byte length alone, not by maxCount.
	nc := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if int64(len(sec)-r.off) < int64(nc)*classBytes+4 {
		return corruptf("events section too short for %d classes", nc)
	}
	if nc > 0 { // a capture without events leaves Classes nil
		bt.Classes = make([]sim.EventClass, nc)
	}
	for i := range bt.Classes {
		ev := &bt.Classes[i].Event
		ev.Route = int16(r.u16())
		ev.Size = r.u8()
		ev.Flags = r.u8()
		ev.Stall = r.i32()
		ev.DemandBytes = r.i32()
		ev.DemandL2Off = r.i32()
		ev.PrefBytes = r.i32()
		ev.PrefL2Off = r.i32()
		ev.DemandDRAM = int16(r.u16())
		ev.PrefDRAM = int16(r.u16())
	}
	n := int(r.u32())
	if want := 4 + int64(nc)*classBytes + 4 + int64(n)*4; int64(len(sec)) != want {
		return corruptf("events section is %d bytes, %d classes + %d events need %d", len(sec), nc, n, want)
	}
	bt.IDs = u32s[uint32](r, n)
	return r.finish()
}

// decodeWindows parses section 2 into the sampling-window bookkeeping.
func decodeWindows(sec []byte, bt *sim.BehaviorTrace) error {
	r := &reader{b: sec, section: "windows"}
	// A fine sampling plan on a long trace plans over a million windows
	// (and twice that many resync records per module), so both counts
	// are bounded by the section's exact byte length, not by maxCount.
	nw := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if int64(len(sec)-r.off) < int64(nw)*(4+8) {
		return corruptf("windows section too short for %d windows", nw)
	}
	bt.WindowLen = u32s[int32](r, nw)
	bt.GapCycles = r.i64s(nw)
	nr := int(r.u32())
	if r.err != nil {
		return r.err
	}
	if want := 4 + int64(nw)*(4+8) + 4 + int64(nr)*4; int64(len(sec)) != want {
		return corruptf("windows section is %d bytes, %d windows + %d resyncs need %d",
			len(sec), nw, nr, want)
	}
	bt.Resync = u32s[int32](r, nr)
	return r.finish()
}

// writer appends fixed-width little-endian values to a preallocated
// buffer. Encode sizes the buffer exactly, so overruns panic (they are
// programming errors, not data errors).
type writer struct {
	b   []byte
	off int
}

func (w *writer) u8(v uint8)   { w.b[w.off] = v; w.off++ }
func (w *writer) u16(v uint16) { binary.LittleEndian.PutUint16(w.b[w.off:], v); w.off += 2 }
func (w *writer) u32(v uint32) { binary.LittleEndian.PutUint32(w.b[w.off:], v); w.off += 4 }
func (w *writer) u64(v uint64) { binary.LittleEndian.PutUint64(w.b[w.off:], v); w.off += 8 }
func (w *writer) i32(v int32)  { w.u32(uint32(v)) }
func (w *writer) f64(v float64) {
	w.u64(math.Float64bits(v))
}
func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}
func (w *writer) i32s(v []int32) {
	for _, x := range v {
		w.i32(x)
	}
}
func (w *writer) i64s(v []int64) {
	for _, x := range v {
		w.u64(uint64(x))
	}
}

// reader consumes fixed-width little-endian values from a section,
// accumulating the first bounds violation as a CorruptError. Callers
// pre-validate counts against the section length before bulk reads, so
// a corrupt count can never trigger an oversized allocation.
type reader struct {
	b       []byte
	off     int
	section string
	err     error
}

func (r *reader) fail(reason string) {
	if r.err == nil {
		r.err = corruptf("%s section: %s", r.section, reason)
	}
}

// take returns the next n bytes, or nil after recording an overrun.
func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.b)-r.off < n {
		r.fail(fmt.Sprintf("read of %d bytes overruns the section (%d of %d consumed)",
			n, r.off, len(r.b)))
		return nil
	}
	s := r.b[r.off : r.off+n]
	r.off += n
	return s
}

// count reads a u32 element count and bounds it.
func (r *reader) count(what string) int {
	v := r.u32()
	if r.err == nil && v > maxCount {
		r.fail(fmt.Sprintf("implausible %s count %d", what, v))
	}
	return int(v)
}

func (r *reader) u8() uint8 {
	s := r.take(1)
	if s == nil {
		return 0
	}
	return s[0]
}

func (r *reader) u16() uint16 {
	s := r.take(2)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(s)
}

func (r *reader) u32() uint32 {
	s := r.take(4)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(s)
}

func (r *reader) u64() uint64 {
	s := r.take(8)
	if s == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(s)
}

func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }
func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail("boolean byte out of range")
		return false
	}
}

// u32s reads n 4-byte values.
func u32s[T int32 | uint32](r *reader, n int) []T {
	s := r.take(4 * n)
	if s == nil {
		return nil
	}
	out := make([]T, n)
	for i := range out {
		out[i] = T(binary.LittleEndian.Uint32(s[4*i:]))
	}
	return out
}

func (r *reader) i64s(n int) []int64 {
	s := r.take(8 * n)
	if s == nil {
		return nil
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(s[8*i:]))
	}
	return out
}

// finish reports the accumulated error, or a CorruptError when the
// section was not consumed exactly.
func (r *reader) finish() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return corruptf("%s section: %d trailing bytes", r.section, len(r.b)-r.off)
	}
	return nil
}
