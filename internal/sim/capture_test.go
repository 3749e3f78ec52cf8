package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"memorex/internal/mem"
	"memorex/internal/trace"
)

// clockModule is a module from outside the library whose outcome reads
// the clock: it hits when the line address and the cycle agree, stalls
// by the cycle, and issues demand and prefetch traffic of its own
// sizes. With a wide stall range it has more distinct outcomes than the
// capture's dense outcome codes hold.
type clockModule struct {
	kind          mem.Kind
	stallRange    int64
	dem, pref     int
	lastNow, seen int64
}

func (m *clockModule) Name() string        { return fmt.Sprintf("clock%d", m.stallRange) }
func (m *clockModule) Kind() mem.Kind      { return m.kind }
func (m *clockModule) Gates() float64      { return 100 }
func (m *clockModule) Energy() float64     { return 0.1 }
func (m *clockModule) Latency() int        { return 2 }
func (m *clockModule) SetFetchLatency(int) {}
func (m *clockModule) Reset()              { m.lastNow, m.seen = 0, 0 }
func (m *clockModule) Clone() mem.Module   { c := *m; c.Reset(); return &c }
func (m *clockModule) Access(a trace.Access, now int64) mem.AccessResult {
	m.seen++
	r := mem.AccessResult{Hit: (int64(a.Addr>>4)+now+m.seen)%3 != 0, Stall: int((now - m.lastNow) % m.stallRange)}
	if r.Stall < 0 {
		r.Stall = -r.Stall
	}
	m.lastNow = now
	if !r.Hit {
		r.OffChipBytes = m.dem
	}
	if now%4 == 0 {
		r.PrefetchBytes = m.pref
	}
	return r
}

// captureTestTrace returns a random trace over nDS data structures (ids
// 0..nDS-1, the last past every route table): each access continues a
// sequential walk of its data structure or jumps, addresses reach the
// top of the 32-bit space, and sizes come from sizes.
func captureTestTrace(rng *rand.Rand, n, nDS int, sizes []uint8) *trace.Trace {
	tr := &trace.Trace{Name: "capture"}
	for ds := 0; ds < nDS; ds++ {
		tr.DS = append(tr.DS, trace.DSInfo{Name: fmt.Sprintf("ds%d", ds)})
	}
	next := make([]uint32, nDS)
	for ds := range next {
		next[ds] = rng.Uint32()
	}
	next[0] = 0xffff_f000
	storeP := rng.Float64()
	for len(tr.Accesses) < n {
		ds := rng.Intn(nDS)
		size := sizes[rng.Intn(len(sizes))]
		switch rng.Intn(10) {
		case 0:
			next[ds] = rng.Uint32()
		case 1:
			next[ds] -= uint32(rng.Intn(256))
		}
		a := trace.Access{Addr: next[ds], DS: trace.DSID(ds), Kind: trace.Load, Size: size}
		if rng.Float64() < storeP {
			a.Kind = trace.Store
		}
		next[ds] += uint32(size)
		tr.Accesses = append(tr.Accesses, a)
	}
	return tr
}

// randCaptureArch draws an architecture of one to five modules of every
// kind, routes for data structures 0..nDS-2, a default route, an
// optional L2, and a DRAM of random timing, geometry and row policy.
func randCaptureArch(rng *rand.Rand, nDS int) *mem.Architecture {
	pow := func(lo, hi int) int { return 1 << (lo + rng.Intn(hi-lo+1)) }
	cacheDims := func() (size, line, assoc int) {
		line, assoc = pow(2, 6), pow(0, 2)
		return line * assoc * pow(0, 8), line, assoc
	}
	a := &mem.Architecture{Name: "rand", Route: map[trace.DSID]int{}}
	for nm := 1 + rng.Intn(5); len(a.Modules) < nm; {
		var m mem.Module
		switch rng.Intn(9) {
		case 0, 1:
			m = mem.MustCache(cacheDims())
		case 2:
			m = mem.MustWriteThroughCache(cacheDims())
		case 3:
			size, line, assoc := cacheDims()
			m = mem.MustVictimCache(size, line, assoc, 1+rng.Intn(8))
		case 4:
			m = mem.MustSRAM(1 << 12)
		case 5:
			m = mem.MustStreamBuffer(pow(2, 6), 1+rng.Intn(8))
		case 6:
			m = mem.MustSelfIndirectDMA(512, pow(3, 5), rng.Float64())
		default:
			kinds := []mem.Kind{mem.KindCache, mem.KindSRAM, mem.KindStream, mem.KindDMA}
			stall := []int64{1, 3, 500}[rng.Intn(3)]
			m = &clockModule{kind: kinds[rng.Intn(len(kinds))], stallRange: stall, dem: 1 + rng.Intn(64), pref: rng.Intn(3) * 16}
		}
		a.Modules = append(a.Modules, m)
	}
	route := func() int { return rng.Intn(len(a.Modules)+1) - 1 }
	for ds := 0; ds < nDS-1; ds++ {
		if rng.Intn(4) != 0 {
			a.Route[trace.DSID(ds)] = route()
		}
	}
	a.Default = route()
	if rng.Intn(2) == 0 {
		size, line, assoc := cacheDims()
		if rng.Intn(3) == 0 {
			a.L2 = mem.MustWriteThroughCache(size*4, line, assoc)
		} else {
			a.L2 = mem.MustCache(size*4, line, assoc)
		}
	}
	hit := 1 + rng.Intn(10)
	d, err := mem.NewDRAM(hit, hit+rng.Intn(3)*rng.Intn(10), []int{1000, 2048}[rng.Intn(2)], []int{3, 4}[rng.Intn(2)])
	if err != nil {
		panic(err)
	}
	if rng.Intn(2) == 0 {
		d.Policy = mem.ClosedRow
	}
	a.DRAM = d
	return a
}

// randCaptureWindows draws ordered windows over n accesses: sometimes
// one at 0, adjacent and empty ones, gaps longer than a capture block,
// and sometimes one ending at the trace end.
func randCaptureWindows(rng *rand.Rand, n int) []Window {
	var ws []Window
	pos := 0
	if rng.Intn(2) == 0 {
		pos = rng.Intn(2 * captureBlock)
		ws = append(ws, Window{0, pos})
	}
	for pos < n && len(ws) < 10 {
		lo := pos
		if rng.Intn(3) != 0 {
			lo += rng.Intn(6000)
		}
		hi := lo
		if rng.Intn(5) != 0 {
			hi += rng.Intn(3000)
		}
		lo, hi = min(lo, n), min(hi, n)
		ws = append(ws, Window{lo, hi})
		pos = hi
	}
	if rng.Intn(2) == 0 && pos < n {
		ws = append(ws, Window{pos + rng.Intn(n-pos), n})
	}
	return ws
}

// TestCaptureMatchesReference holds CaptureBehavior to captureReference,
// the one-pass capture it replaced: the whole BehaviorTrace, classes,
// ids and window bookkeeping included, must be reflect.DeepEqual over
// random architectures of every module kind (write-back and
// write-through caches of 1, 2 and 4 ways, victim caches, SRAMs, stream
// buffers, DMA and a clocked module from outside the library), with and
// without L2, open- and closed-row DRAM, direct-DRAM routes and data
// structures past the route table, full and over random window sets.
// One trace draws more distinct access sizes than the dense size codes
// hold.
func TestCaptureMatchesReference(t *testing.T) {
	const n, nDS = 14_000, 6
	rng := rand.New(rand.NewSource(27))
	traces := []*trace.Trace{
		captureTestTrace(rng, n, nDS, []uint8{1, 2, 4, 8}),
		captureTestTrace(rng, n, nDS, []uint8{4}),
	}
	var wide []uint8
	for s := 1; s <= 24; s++ {
		wide = append(wide, uint8(s))
	}
	traces = append(traces, captureTestTrace(rng, n, nDS, wide))
	for ai := 0; ai < 90; ai++ {
		tr := traces[ai%len(traces)]
		arch := randCaptureArch(rng, nDS)
		for wi, ws := range [][]Window{nil, randCaptureWindows(rng, n), randCaptureWindows(rng, n)} {
			want, err := captureReference(tr, arch, ws)
			if err != nil {
				t.Fatal(err)
			}
			got, err := CaptureBehavior(tr, arch, ws)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("arch %d (%s), windows %d %v: capture diverged from the reference:\n%s",
					ai, arch.Describe(nil), wi, ws, traceDiff(got, want))
			}
		}
	}
}

// traceDiff names the first field in which two behavior traces differ.
func traceDiff(got, want *BehaviorTrace) string {
	if len(got.Classes) != len(want.Classes) {
		return fmt.Sprintf("%d classes, want %d", len(got.Classes), len(want.Classes))
	}
	for i := range want.Classes {
		if got.Classes[i] != want.Classes[i] {
			return fmt.Sprintf("class %d is %+v, want %+v", i, got.Classes[i], want.Classes[i])
		}
	}
	for i := range want.IDs {
		if got.IDs[i] != want.IDs[i] {
			return fmt.Sprintf("event %d has class %d, want %d", i, got.IDs[i], want.IDs[i])
		}
	}
	return fmt.Sprintf("got %+v\nwant %+v", *got, *want)
}
