package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"memorex/internal/mem"
	"memorex/internal/trace"
)

// CaptureBehavior runs in two stages over blocks of at most captureBlock
// accesses.
//
// Stage 1 is module-major. A first pass gives every access of the block
// a key: its route and the code of its size. Then every module whose
// outcome ignores the clock (caches, victim caches, SRAMs) walks only
// its own accesses of the block and adds its outcome code to their
// keys.
//
// Stage 2 walks the block in trace order. It runs the modules whose
// outcome reads the clock (stream buffers, DMA, modules from outside
// the library) and adds their interned outcome codes to the keys; then
// the shared L2, the DRAM row state, the nominal clock and the skip and
// resync bookkeeping. A key names a module class (route, size and
// outcome) through a dense table, and the module class and the codes of
// the event's L2 and DRAM legs name its class through a second one, so
// no event is hashed.
const captureBlock = 4096

// The fields of an access key. The low keyIndexBits index the module
// class table: the outcome code, the size code and route+1. keyClocked
// marks an access whose module runs in stage 2, keySlow one whose codes
// outgrow the dense tables (a 15th distinct access size, or a clocked
// module's 65th distinct outcome); it takes the class map.
const (
	keyOutBits    = 6
	keySizeShift  = keyOutBits
	keySizeBits   = 4
	keyRouteShift = keySizeShift + keySizeBits
	keyIndexBits  = keyRouteShift + 16
	keyClocked    = 1 << 30
	keySlow       = 1 << 31
	keyOutMask    = 1<<keyOutBits - 1
)

// Outcome codes of the clock-free modules: bit 0 a hit, bits 1-2 the
// demand bytes (none, the access size, one line, two lines), bit 3 a
// one-cycle stall (a victim-buffer hit). Clock-free modules never
// prefetch.
const (
	outHit     = 1
	outDemSize = 1 << 1
	outDemLine = 2 << 1
	outDem2    = 3 << 1
	outStall   = 1 << 3
	numOutFree = 1 << 4
)

// legBits is the width of a leg's code: its L2 forward (0 none, 1 the
// access size, 2 one L2 line, 3 two) << 2 | its DRAM latency (0 none, 1
// row hit, 2 row miss, 3 closed row). badLeg marks a leg no code
// describes.
const (
	legBits = 4
	legRow  = 1 << (2 * legBits) // classOf entries per module class
	badLeg  = legRow
)

// maxModClasses bounds the module-class table (legRow class slots
// each); a capture with more module classes resolves the rest in the
// class map.
const maxModClasses = 1 << 12

// noRow marks a module class outside the dense tables.
const noRow = ^uint32(0)

// outcome is the decoded outcome of one module access: what the event
// records of it.
type outcome struct {
	hit     bool
	sizeDem bool  // the demand bytes are the access size
	stall   int32 // the stall the event records
	dem     int32 // demand bytes (unless sizeDem)
	pref    int32 // prefetch bytes
}

// capModule is one module of the captured architecture.
type capModule struct {
	mod  mem.Module
	kind mem.Kind
	lat  int64
	// walk is the module's stage-1 walk: it adds the outcome code of
	// each block access at idx to its key. nil for a module that stays
	// on Access in stage 2.
	walk func(acc []trace.Access, idx []uint16, keys []uint32)
	// outs decodes the module's outcome codes. A clock-free module has
	// the numOutFree fixed codes; a clocked one interns its outcomes in
	// order of first sight.
	outs      []outcome
	recStall  bool  // the event records the module's stall (not stream, not DMA)
	lineBytes int32 // stream-buffer line, for the gap tallies
	// guessMask is all ones for the clocked library modules whose
	// outcome codes are prefilled, so an access computes its code
	// instead of searching outs: a stream buffer's code is 0 for a
	// restart and 1+i for a hit that prefetches i lines (lineShift is
	// log2 of its line), a DMA's is 1 for a hit (lineShift 31). A
	// computed code is checked against outs, so an outcome of another
	// shape still takes the search.
	guessMask uint32
	lineShift uint32
}

// modClass is what a module class determines of its events: everything
// but the L2 and DRAM fields of the legs.
type modClass struct {
	ev Event
	// lat is the cycles from issue to the demand leg: the transfer, the
	// module latency and a clock-free module's stall (0 on a direct
	// access, whose one leg is its DRAM access).
	lat       int64
	dem, pref int32
	direct    bool
	row       uint32 // the class's first entry in classOf, or noRow
	// id is the class id + 1 of a module class without legs once it is
	// known, else 0.
	id uint32
}

// capture is the state of one CaptureBehavior call.
type capture struct {
	*captureScratch
	bt     *BehaviorTrace
	mods   []capModule
	defKey uint32 // the key of a data structure past dsKey
	l2     *mem.Cache
	l2Lat  int64
	l2Line int
	dram   *mem.DRAM
	// DRAM latencies of the first two codes: row hit, row miss.
	dramLat [2]int
	now     int64
	// gapStart is the clock at the start of the current skip gap.
	gapStart int64
}

// captureScratch holds the buffers a capture reuses from the last one:
// the block buffers, the dense class tables and the class map.
type captureScratch struct {
	keys  []uint32 // per block access: its key
	idx   []uint16 // the block accesses of one clock-free module
	dsKey []uint32 // per data structure: route+1 << keyRouteShift, and keyClocked
	// sizeKey maps an access size to its key bits (0: not yet seen).
	sizeKey [256]uint32
	nSizes  uint32
	// modClassOf maps a key's index bits to a module class + 1 (0: not
	// yet seen); classOf maps a module class's row plus its leg codes
	// to a class id + 1.
	modClassOf []uint16
	modClasses []modClass
	classOf    []uint32
	byEvent    map[Event]uint32
	stacks     []uint64 // the stack walkers' sets
	// skipAdv and skipL2 give, per route+1 << 4 | outcome code of a
	// direct access or a clock-free module's, the skip clock's advance
	// and whether a skipped miss warms the L2.
	skipAdv []int64
	skipL2  []bool
	// refills and lastReset are the stream tallies of the current gap:
	// line fetches issued since the last restart, and the restart's
	// clock (-1 when the gap has none).
	refills   []int32
	lastReset []int64
}

var scratchPool = sync.Pool{New: func() any {
	return &captureScratch{
		keys:    make([]uint32, captureBlock),
		idx:     make([]uint16, captureBlock),
		byEvent: make(map[Event]uint32),
	}
}}

// reset sizes the scratch for nm modules and clears what a capture reads
// before it writes.
func (s *captureScratch) reset(nm int) {
	s.modClassOf = grow(s.modClassOf, (nm+1)<<keyRouteShift)
	clear(s.modClassOf)
	s.modClasses = s.modClasses[:0]
	s.classOf = s.classOf[:0]
	s.sizeKey = [256]uint32{}
	s.nSizes = 0
	clear(s.byEvent)
	s.stacks = s.stacks[:0]
	s.refills = grow(s.refills, nm)
	s.lastReset = grow(s.lastReset, nm)
	s.skipAdv = grow(s.skipAdv, (nm+1)*numOutFree)
	s.skipL2 = grow(s.skipL2, (nm+1)*numOutFree)
}

// grow returns s resliced to length n, reallocated when too small.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// CaptureBehavior runs the memory-module model over the given
// on-windows of the trace (nil = one window covering everything) and
// returns the recorded event trace. The caller's module state is
// untouched: the capture runs on cold clones of the modules, except the
// caches a stack walker serves, of which it reads only the geometry.
func CaptureBehavior(t *trace.Trace, memArch *mem.Architecture, windows []Window) (*BehaviorTrace, error) {
	if err := memArch.Validate(); err != nil {
		return nil, err
	}
	n := t.NumAccesses()
	if len(windows) == 0 {
		windows = []Window{{0, n}}
	}
	pos := 0
	total := 0
	for _, w := range windows {
		if w.Lo < pos || w.Hi > n || w.Lo > w.Hi {
			return nil, fmt.Errorf("sim: capture window [%d,%d) out of order (trace has %d accesses)", w.Lo, w.Hi, n)
		}
		pos = w.Hi
		total += w.Hi - w.Lo
	}

	mods := make([]mem.Module, len(memArch.Modules))
	for i, m := range memArch.Modules {
		if cache, ok := m.(*mem.Cache); !ok || !stackWalkable(cache) {
			m = m.Clone()
		}
		mods[i] = m
	}
	var l2 *mem.Cache
	if memArch.L2 != nil {
		l2 = memArch.L2.Clone().(*mem.Cache)
	}
	dram := memArch.DRAM.Clone().(*mem.DRAM)
	bt := &BehaviorTrace{Channels: memArch.Channels()}
	nm := len(mods)
	c := &capture{bt: bt, l2: l2, dram: dram, captureScratch: scratchPool.Get().(*captureScratch)}
	defer scratchPool.Put(c.captureScratch)
	c.reset(nm)
	c.dramLat = [2]int{dram.RowHitCycles, dram.RowMissCycles}
	bt.Modules = make([]ModuleMeta, nm)
	for i, m := range mods {
		meta := ModuleMeta{Kind: m.Kind(), Latency: m.Latency(), Energy: m.Energy()}
		if sb, ok := m.(*mem.StreamBuffer); ok {
			meta.LineBytes = sb.LineBytes
			meta.Depth = sb.Depth
		}
		switch m.Kind() {
		case mem.KindCache, mem.KindStream, mem.KindDMA:
			meta.Backed = true
		}
		bt.Modules[i] = meta
	}
	if l2 != nil {
		bt.HasL2 = true
		bt.L2Latency = l2.Latency()
		bt.L2Energy = l2.Energy()
		c.l2Lat = int64(bt.L2Latency)
		c.l2Line = l2.LineBytes
	}
	bt.DRAMRowHit = dram.RowHitCycles
	bt.DRAMEnergy = dram.Energy()

	// Nominal fetch latency, mirroring sim.New's readiness wiring.
	nomFetch := int(nomTransfer(32))
	if l2 != nil {
		nomFetch += l2.Latency()
	} else {
		nomFetch += dram.RowHitCycles
	}
	c.mods = make([]capModule, nm)
	for i, m := range mods {
		if bt.Modules[i].Backed {
			m.SetFetchLatency(nomFetch)
		}
		c.mods[i] = c.newModule(m, bt.Modules[i])
	}
	c.setSkip()
	routeTab, routeDef := buildRouteTable(memArch)
	c.dsKey = grow(c.dsKey, len(routeTab))
	for ds, r := range routeTab {
		c.dsKey[ds] = c.routeKey(r)
	}
	c.defKey = c.routeKey(routeDef)

	bt.IDs = make([]uint32, 0, total)
	bt.WindowLen = make([]int32, len(windows))
	bt.GapCycles = make([]int64, len(windows))
	bt.Resync = make([]int32, len(windows)*nm*2)

	pos = 0
	for wi, w := range windows {
		if w.Lo > pos {
			for i := range c.refills {
				c.refills[i] = 0
				c.lastReset[i] = -1
			}
			c.gapStart = c.now
			c.walk(t.Accesses[pos:w.Lo], false)
			bt.GapCycles[wi] = c.now - c.gapStart
			c.resync(mods, bt.Resync[wi*nm*2:(wi+1)*nm*2])
		}
		c.walk(t.Accesses[w.Lo:w.Hi], true)
		bt.WindowLen[wi] = int32(w.Hi - w.Lo)
		pos = w.Hi
	}
	for _, id := range bt.IDs {
		bt.Classes[id].Count++
	}
	bt.setViews()
	bt.MaxBytes, bt.MaxDRAMLat = bt.eventBounds()
	return bt, nil
}

// setSkip fills the skip tables, mirroring Simulator.SkipWindow: a
// direct access advances the clock 8 cycles, a hit the module latency
// plus 2, a miss 16, and a miss with demand traffic warms the L2.
func (c *capture) setSkip() {
	for code := 0; code < numOutFree; code++ {
		c.skipAdv[code], c.skipL2[code] = 8, false
		for m := range c.mods {
			if c.mods[m].walk == nil {
				continue
			}
			j, o := (m+1)*numOutFree+code, &c.mods[m].outs[code]
			c.skipAdv[j], c.skipL2[j] = 16, o.dem > 0 || o.sizeDem
			if o.hit {
				c.skipAdv[j], c.skipL2[j] = c.mods[m].lat+2, false
			}
		}
	}
}

// routeKey returns the key bits of a route.
func (c *capture) routeKey(route int16) uint32 {
	k := uint32(route+1) << keyRouteShift
	if route >= 0 && c.mods[route].walk == nil {
		k |= keyClocked
	}
	return k
}

// newModule sets up a module's capture: a stage-1 walk for the
// clock-free library modules, Access in stage 2 for every other.
func (c *capture) newModule(m mem.Module, meta ModuleMeta) capModule {
	cm := capModule{
		mod:       m,
		kind:      meta.Kind,
		lat:       int64(meta.Latency),
		recStall:  meta.Kind != mem.KindStream && meta.Kind != mem.KindDMA,
		lineBytes: int32(meta.LineBytes),
	}
	line := 0
	switch mod := m.(type) {
	case *mem.Cache:
		line = mod.LineBytes
		cm.walk = c.newStackWalker(mod)
	case *mem.VictimCache:
		line = mod.LineBytes
	case *mem.SRAM:
		cm.walk = func(_ []trace.Access, idx []uint16, keys []uint32) {
			for _, i := range idx {
				keys[i] |= outHit
			}
		}
	case *mem.StreamBuffer:
		if mod.Depth <= keyOutMask {
			cm.guessMask = ^uint32(0)
			cm.lineShift = uint32(bits.TrailingZeros32(uint32(mod.LineBytes)))
			cm.outs = append(cm.outs, outcome{dem: int32(mod.LineBytes), pref: int32((mod.Depth - 1) * mod.LineBytes)})
			for i := 0; i < mod.Depth; i++ {
				cm.outs = append(cm.outs, outcome{hit: true, pref: int32(i * mod.LineBytes)})
			}
		}
		return cm
	case *mem.SelfIndirectDMA:
		cm.guessMask, cm.lineShift = ^uint32(0), 31
		cm.outs = []outcome{{dem: int32(mod.NodeBytes)}, {hit: true, pref: int32(mod.NodeBytes)}}
		return cm
	default:
		return cm
	}
	if cm.walk == nil {
		// A cache the stack walkers do not cover, or a victim cache.
		cm.walk = func(acc []trace.Access, idx []uint16, keys []uint32) {
			for _, i := range idx {
				keys[i] |= freeCode(m.Access(acc[i], 0), acc[i].Size, line)
			}
		}
	}
	cm.outs = make([]outcome, numOutFree)
	for code := range cm.outs {
		o := &cm.outs[code]
		o.hit = code&outHit != 0
		o.stall = int32(code >> 3 & 1)
		switch code & outDem2 {
		case outDemSize:
			o.sizeDem = true
		case outDemLine:
			o.dem = int32(line)
		case outDem2:
			o.dem = int32(2 * line)
		}
	}
	return cm
}

// freeCode returns the outcome code of a clock-free module's access.
func freeCode(r mem.AccessResult, size uint8, line int) uint32 {
	var code uint32
	if r.Hit {
		code = outHit
	}
	switch r.OffChipBytes {
	case 0:
	case line:
		code |= outDemLine
	case 2 * line:
		code |= outDem2
	case int(size):
		code |= outDemSize
	default:
		panic(fmt.Sprintf("sim: clock-free module moved %d bytes on a %d-byte access", r.OffChipBytes, size))
	}
	switch r.Stall {
	case 0:
	case 1:
		code |= outStall
	default:
		panic(fmt.Sprintf("sim: clock-free module stalled %d cycles", r.Stall))
	}
	if r.PrefetchBytes != 0 {
		panic("sim: clock-free module prefetched")
	}
	return code
}

// code returns the outcome code of a clocked module's access result, or
// keySlow.
func (m *capModule) code(r *mem.AccessResult) uint32 {
	// A miss computes code 0, a hit 1 plus its prefetched lines (a DMA's
	// lineShift drops them all); without a guess the code is 0.
	var hit uint32
	if r.Hit {
		hit = 1
	}
	code := hit * (1 + uint32(r.PrefetchBytes)>>m.lineShift) & m.guessMask
	// The fields are compared one by one: a copy of the outcome written
	// field by field and read back whole stalls the store forwarding.
	var stall int32
	if m.recStall {
		stall = int32(r.Stall)
	}
	if int(code) < len(m.outs) {
		if o := &m.outs[code]; o.hit == r.Hit && !o.sizeDem && o.dem == int32(r.OffChipBytes) &&
			o.pref == int32(r.PrefetchBytes) && o.stall == stall {
			return code
		}
	}
	return m.intern(m.outcomeOf(r))
}

// outcomeOf returns what the event of a clocked module's access records.
func (m *capModule) outcomeOf(r *mem.AccessResult) outcome {
	o := outcome{hit: r.Hit, dem: int32(r.OffChipBytes), pref: int32(r.PrefetchBytes)}
	if m.recStall {
		o.stall = int32(r.Stall)
	}
	return o
}

// intern returns the outcome code of o, adding it on first sight, or
// keySlow once the module has more distinct outcomes than the code
// field holds.
func (m *capModule) intern(o outcome) uint32 {
	for code := range m.outs {
		if m.outs[code] == o {
			return uint32(code)
		}
	}
	if len(m.outs) == keyOutMask+1 {
		return keySlow
	}
	m.outs = append(m.outs, o)
	return uint32(len(m.outs) - 1)
}

// walk captures a span of accesses that lies in one on-window (record)
// or in one skip gap, block by block.
func (c *capture) walk(acc []trace.Access, record bool) {
	for len(acc) > 0 {
		blk := acc[:min(len(acc), captureBlock)]
		acc = acc[len(blk):]
		c.walkModules(blk)
		if record {
			c.record(blk)
		} else {
			c.skip(blk)
		}
	}
}

// walkModules is stage 1: it keys the block's accesses by route and
// size, then every clock-free module walks its own accesses. The first
// pass also gathers the first clock-free module's accesses; each further
// one gathers its own in a pass over the keys. A gather writes every
// index and advances past the module's own, with no branch per access.
func (c *capture) walkModules(blk []trace.Access) {
	keys, idx, dsKey, defKey := c.keys[:len(blk)], c.idx, c.dsKey, c.defKey
	first := len(c.mods)
	for m := range c.mods {
		if c.mods[m].walk != nil {
			first = m
			break
		}
	}
	n, want := 0, uint32(first+1)
	for i := range blk {
		a := &blk[i]
		k := defKey
		if int(a.DS) < len(dsKey) {
			k = dsKey[a.DS]
		}
		sk := c.sizeKey[a.Size]
		if sk == 0 {
			sk = c.newSize(a.Size)
		}
		keys[i] = k | sk
		idx[n] = uint16(i)
		if k>>keyRouteShift&0xffff == want {
			n++
		}
	}
	for m := first; m < len(c.mods); m++ {
		w := c.mods[m].walk
		if w == nil {
			continue
		}
		if m > first {
			n, want = 0, uint32(m+1)
			for i, k := range keys {
				idx[n] = uint16(i)
				if k>>keyRouteShift&0xffff == want {
					n++
				}
			}
		}
		w(blk, idx[:n], keys)
	}
}

// newSize assigns an access size its key bits: codes 1 to 14, then
// keySlow with code 15 for every further size.
func (c *capture) newSize(size uint8) uint32 {
	const last = 1<<keySizeBits - 1
	if c.nSizes < last-1 {
		c.nSizes++
		c.sizeKey[size] = c.nSizes << keySizeShift
	} else {
		c.sizeKey[size] = keySlow | last<<keySizeShift
	}
	return c.sizeKey[size]
}

// record is stage 2 of an on-window block: it simulates each access at
// nominal timing and appends its event. A clocked module's access runs
// its Access first, which gives the outcome code. Then an access whose
// module class is known takes the fast path: an event without legs has
// its module class's class id and latency, and without an L2 the legs
// are DRAM accesses whose codes select the class. Every other access
// takes event.
func (c *capture) record(blk []trace.Access) {
	bt := c.bt
	ids, now := bt.IDs, c.now
	modClassOf, modClasses, classOf := c.modClassOf, c.modClasses, c.classOf
	noL2 := c.l2 == nil
	for i, k := range c.keys[:len(blk)] {
		a := &blk[i]
		// stall is a clocked module's stall: a clock-free module's is in
		// its module class.
		var stall int64
		if k&keyClocked != 0 {
			m := &c.mods[k>>keyRouteShift&0xffff-1]
			r := m.mod.Access(*a, now+nomTransfer(int(a.Size)))
			stall = int64(r.Stall)
			code := m.code(&r)
			if code&keySlow != 0 {
				o := m.outcomeOf(&r)
				id, t := c.event(a, k|keySlow, &o, stall, now)
				ids = append(ids, id)
				now = t + 1
				continue
			}
			k |= code
		}
		if mc := modClassOf[k&(1<<keyIndexBits-1)]; mc != 0 && k&keySlow == 0 && noL2 {
			mcl := &modClasses[mc-1]
			if mcl.id != 0 {
				ids = append(ids, mcl.id-1)
				now += mcl.lat + stall + 1
				continue
			}
			t := now + mcl.lat + stall
			var dem, pref leg
			if mcl.direct {
				dem.dram = c.dram.AccessLatency(a.Addr)
				dem.code = c.dramCode(dem.dram)
				t = nomOffChipDone(t, int(a.Size), dem.dram)
			} else if mcl.dem > 0 {
				dem.dram = c.dram.AccessLatency(a.Addr)
				dem.code = c.dramCode(dem.dram)
				t = nomOffChipDone(t, int(mcl.dem), dem.dram)
			}
			if mcl.pref > 0 {
				pref.dram = c.dram.AccessLatency(a.Addr + 64)
				pref.code = c.dramCode(pref.dram)
			}
			slot := &classOf[mcl.row+dem.code<<legBits|pref.code]
			if *slot == 0 {
				*slot = c.lookup(mcl.withLegs(&dem, &pref)) + 1
			}
			ids = append(ids, *slot-1)
			now = t + 1
			continue
		}
		id, t := c.event(a, k, nil, stall, now)
		modClasses, classOf = c.modClasses, c.classOf
		ids = append(ids, id)
		now = t + 1
	}
	bt.IDs, c.now = ids, now
}

// event records an access with key k (which holds its outcome code)
// issued at cycle now, whose clocked module stalled stall cycles, and
// returns its class id and completion cycle. An access whose codes do
// not index the dense tables (keySlow, or a full module-class table)
// builds its module class on the spot, from its outcome o when its key
// holds no outcome code, and takes its class from the class map.
func (c *capture) event(a *trace.Access, k uint32, o *outcome, stall, now int64) (uint32, int64) {
	var mcl *modClass
	if mc := c.modClassOf[k&(1<<keyIndexBits-1)]; mc != 0 && k&keySlow == 0 {
		mcl = &c.modClasses[mc-1]
	} else if k&keySlow == 0 && len(c.modClasses) < maxModClasses {
		c.modClasses = append(c.modClasses, c.newModClass(k, a.Size, nil))
		c.classOf = append(c.classOf, make([]uint32, legRow)...)
		c.modClassOf[k&(1<<keyIndexBits-1)] = uint16(len(c.modClasses))
		mcl = &c.modClasses[len(c.modClasses)-1]
	} else {
		slow := c.newModClass(k, a.Size, o)
		mcl = &slow
	}
	t := now + mcl.lat + stall
	var legs uint32
	var dem, pref leg
	if mcl.direct {
		dem.dram = c.dram.AccessLatency(a.Addr)
		t = nomOffChipDone(t, int(a.Size), dem.dram)
		legs = c.dramCode(dem.dram) << legBits
	} else {
		if mcl.dem > 0 {
			t = c.backing(int(mcl.dem), *a, t, &dem)
			legs = dem.code << legBits
		}
		if mcl.pref > 0 {
			pf := *a
			pf.Addr += 64
			c.backing(int(mcl.pref), pf, t, &pref)
			legs |= pref.code
		}
	}
	if mcl.row == noRow || legs >= legRow {
		return c.lookup(mcl.withLegs(&dem, &pref)), t
	}
	slot := &c.classOf[mcl.row+legs]
	if *slot == 0 {
		*slot = c.lookup(mcl.withLegs(&dem, &pref)) + 1
		if !mcl.direct && mcl.dem == 0 && mcl.pref == 0 {
			mcl.id = *slot
		}
	}
	return *slot - 1, t
}

// leg is one backing leg of an access: its L2 forward, its DRAM latency
// (-1 for none) and its code.
type leg struct {
	l2off int32
	dram  int
	code  uint32
}

// withLegs returns the module class's event with the given legs.
func (mcl *modClass) withLegs(dem, pref *leg) *Event {
	ev := mcl.ev
	if mcl.direct || mcl.dem > 0 {
		ev.DemandL2Off, ev.DemandDRAM = dem.l2off, int16(dem.dram)
	}
	if !mcl.direct && mcl.pref > 0 {
		ev.PrefL2Off, ev.PrefDRAM = pref.l2off, int16(pref.dram)
	}
	return &ev
}

// newModClass returns the module class of key k, an access of size
// size with outcome o (nil: the outcome its key's code names). Its row
// is the next in classOf, or noRow for a class outside the tables.
func (c *capture) newModClass(k uint32, size uint8, o *outcome) modClass {
	route := int16(k>>keyRouteShift&0xffff) - 1
	mcl := modClass{
		ev:  Event{Route: route, Size: size, DemandDRAM: noDRAM, PrefDRAM: noDRAM},
		row: uint32(len(c.classOf)),
	}
	if k&keySlow != 0 || len(c.modClasses) == maxModClasses {
		mcl.row = noRow
	}
	if route < 0 {
		mcl.direct = true
		return mcl
	}
	m := &c.mods[route]
	if o == nil {
		o = &m.outs[k&keyOutMask]
	}
	mcl.ev.Stall = o.stall
	if o.hit {
		mcl.ev.Flags = flagHit
	}
	mcl.dem, mcl.pref = o.dem, o.pref
	if o.sizeDem {
		mcl.dem = int32(size)
	}
	mcl.ev.DemandBytes, mcl.ev.PrefBytes = mcl.dem, mcl.pref
	mcl.lat = nomTransfer(int(size)) + m.lat
	if m.walk != nil {
		mcl.lat += int64(o.stall)
	}
	return mcl
}

// lookup returns the class id of ev, adding a class on first sight.
// Codes that differ can describe one event (a row hit and a closed-row
// latency of the same length), so the dense tables resolve through it.
func (c *capture) lookup(ev *Event) uint32 {
	if id, ok := c.byEvent[*ev]; ok {
		return id
	}
	id := uint32(len(c.bt.Classes))
	c.bt.Classes = append(c.bt.Classes, EventClass{Event: *ev})
	c.byEvent[*ev] = id
	return id
}

// dramCode returns the code of a DRAM latency: 1 row hit, 2 row miss, 3
// closed row (the one other latency mem.DRAM returns). Row hits and
// misses alternate unpredictably, so the code is selected without a
// branch.
func (c *capture) dramCode(lat int) uint32 {
	code := uint32(3)
	if lat == c.dramLat[1] {
		code = 2
	}
	if lat == c.dramLat[0] {
		code = 1
	}
	return code
}

// backing mirrors Simulator.backingTransaction at nominal timing: it
// fills l with the leg's L2 forward, DRAM latency and code and returns
// the completion cycle.
func (c *capture) backing(n int, a trace.Access, at int64, l *leg) int64 {
	if c.l2 == nil {
		l.l2off, l.dram = 0, c.dram.AccessLatency(a.Addr)
		l.code = c.dramCode(l.dram)
		return nomOffChipDone(at, n, l.dram)
	}
	return c.backingL2(n, a, at, l)
}

// backingL2 is backing through the shared L2.
func (c *capture) backingL2(n int, a trace.Access, at int64, l *leg) int64 {
	t := at + nomTransfer(n)
	lr := c.l2.Access(a, t)
	t += c.l2Lat + int64(lr.Stall)
	if lr.OffChipBytes == 0 {
		l.l2off, l.dram, l.code = 0, int(noDRAM), 0
		return t
	}
	l.l2off, l.dram = int32(lr.OffChipBytes), c.dram.AccessLatency(a.Addr)
	switch lr.OffChipBytes {
	case c.l2Line:
		l.code = 2 << 2
	case 2 * c.l2Line:
		l.code = 3 << 2
	case int(a.Size):
		l.code = 1 << 2
	default:
		l.code = badLeg
	}
	l.code |= c.dramCode(l.dram)
	return nomOffChipDone(t, lr.OffChipBytes, l.dram)
}

// skip is stage 2 of a skip-gap block, mirroring Simulator.SkipWindow:
// cheap hit/miss bookkeeping that keeps module and L2 state warm through
// an off-sampling region. Stream line refills and restarts are tallied
// per module for the gap resync.
func (c *capture) skip(blk []trace.Access) {
	now, adv := c.now, c.skipAdv
	for i, k := range c.keys[:len(blk)] {
		if k&keyClocked == 0 {
			// A direct access or a clock-free module's: its clock advance
			// and L2 warm-up follow from its route and outcome code.
			j := k>>keyRouteShift&0xffff<<4 | k&(numOutFree-1)
			if c.l2 != nil && c.skipL2[j] && (k&outDem2 != outDemSize || blk[i].Size > 0) {
				c.l2.Access(blk[i], now)
			}
			now += adv[j]
			continue
		}
		route := int(k>>keyRouteShift&0xffff) - 1
		m := &c.mods[route]
		r := m.mod.Access(blk[i], now)
		if m.kind == mem.KindStream {
			if !r.Hit {
				// Restart: the stream's readiness chain re-anchors here.
				c.refills[route] = 0
				c.lastReset[route] = now
			}
			if lb := m.lineBytes; lb > 0 && r.PrefetchBytes > 0 {
				c.refills[route] += int32(r.PrefetchBytes) / lb
			}
		}
		if r.Hit {
			now += m.lat + 2
		} else {
			if c.l2 != nil && r.OffChipBytes > 0 {
				c.l2.Access(blk[i], now)
			}
			now += 16
		}
	}
	c.now = now
}

// resync records each prefetching module's gap activity: stream buffers
// report their refill count since the last restart plus the restart's
// position (their readiness chain is rebuilt by the replay, in its own
// clock and at the actual fetch latency), DMA modules how long ago they
// were last touched.
func (c *capture) resync(mods []mem.Module, out []int32) {
	for i, m := range mods {
		switch mod := m.(type) {
		case *mem.StreamBuffer:
			out[2*i] = c.refills[i]
			if c.lastReset[i] >= 0 {
				off := c.lastReset[i] - c.gapStart
				if off > 1<<30 {
					off = 1 << 30
				}
				out[2*i+1] = int32(off)
			} else {
				out[2*i+1] = -1
			}
		case *mem.SelfIndirectDMA:
			idle := mod.SinceLastTouch(c.now)
			if idle > 1<<30 {
				idle = 1 << 30
			}
			out[2*i] = int32(idle)
		}
	}
}

// stackWalker is the stage-1 walk of a plain write-back cache of at
// most 2 ways on the stack kernel's set layout (lrustack.go): one
// uint64 per set, the MRU entry in its low 32 bits and the other way's
// in its high 32, an entry being tag+1 with its dirty bit. Each access
// takes a fixed sequence of masks, with no branch on hit, miss or
// dirtiness.
type stackWalker struct {
	lineShift, tagShift uint32
	sets                []uint64
}

// stackWalkable reports whether a stack walker serves cache: a
// write-back cache of at most 2 ways whose line × sets is at least 8
// bytes (the largest tag+1 must fit the 30-bit key).
func stackWalkable(cache *mem.Cache) bool {
	return cache.Policy == mem.WriteBack && cache.Assoc <= 2 && cache.SizeBytes/cache.Assoc >= 8
}

// newStackWalker returns the stage-1 walk of c, nil when no stack
// walker serves c. The walker keeps its own sets and reads only c's
// geometry.
func (c *capture) newStackWalker(cache *mem.Cache) func(acc []trace.Access, idx []uint16, keys []uint32) {
	if !stackWalkable(cache) {
		return nil
	}
	nSets := cache.SizeBytes / (cache.LineBytes * cache.Assoc)
	// The walkers of one capture share the scratch's arena; a walker
	// keeps its sets when the arena outgrows its array.
	n := len(c.stacks)
	c.stacks = grow(c.stacks[:cap(c.stacks)], n+nSets)[:n+nSets]
	w := &stackWalker{
		lineShift: uint32(bits.TrailingZeros32(uint32(cache.LineBytes))),
		tagShift:  uint32(bits.TrailingZeros32(uint32(nSets))),
		sets:      c.stacks[n : n+nSets : n+nSets],
	}
	clear(w.sets)
	if cache.Assoc == 1 {
		return w.walk1
	}
	return w.walk2
}

// walk1 adds the outcome code of each access at idx to its key in a
// direct-mapped cache, whose one block per set is the low entry: a
// hit, a line fill, or a line fill plus the write-back of the dirty
// block it evicts.
func (w *stackWalker) walk1(acc []trace.Access, idx []uint16, keys []uint32) {
	sets, lineShift, tagShift, mask := w.sets, w.lineShift&31, w.tagShift&31, uint32(len(w.sets)-1)
	for _, i := range idx {
		a := &acc[i]
		line := a.Addr >> lineShift
		set := &sets[line&mask]
		key := uint64(line>>tagShift) + 1
		old := *set
		var st uint64
		if a.Kind == trace.Store {
			st = stackDirty1
		}
		hit := ((old&stackKeyMask ^ key) - 1) >> 63
		*set = key | st | -hit&old&stackDirty1
		keys[i] |= uint32(hit | (1^hit)*(outDemLine|old>>29&2))
	}
}

// walk2 is walk1 for a 2-way cache: the old top sinks to depth 1 unless
// it is referenced, and a miss evicts the depth-1 block.
func (w *stackWalker) walk2(acc []trace.Access, idx []uint16, keys []uint32) {
	sets, lineShift, tagShift, mask := w.sets, w.lineShift&31, w.tagShift&31, uint32(len(w.sets)-1)
	for _, i := range idx {
		a := &acc[i]
		line := a.Addr >> lineShift
		set := &sets[line&mask]
		key := uint64(line>>tagShift) + 1
		top, low := *set&(1<<32-1), *set>>32
		var st uint64
		if a.Kind == trace.Store {
			st = stackDirty1
		}
		h0 := ((top&stackKeyMask ^ key) - 1) >> 63
		h1 := ((low&stackKeyMask ^ key) - 1) >> 63
		miss := 1 ^ (h0 | h1)
		newTop := key | st | -h0&top&stackDirty1 | -h1&low&stackDirty1
		newLow := -h0&low | (h0-1)&top
		*set = newTop | newLow<<32
		keys[i] |= uint32(1 ^ miss | miss*(outDemLine|low>>29&2))
	}
}
