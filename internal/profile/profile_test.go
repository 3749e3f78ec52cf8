package profile

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"memorex/internal/trace"
	"memorex/internal/workload"
)

func TestClassifySynthetic(t *testing.T) {
	cases := []struct {
		kind workload.SyntheticKind
		want Class
	}{
		{workload.SynStream, ClassStream},
		{workload.SynSelfIndirect, ClassSelfIndirect},
	}
	for _, c := range cases {
		// The region must be revisited for successor consistency to be
		// observable (50k accesses over 16Ki elements = ~3 laps).
		tr := workload.Synthetic(c.kind, 50_000, 64*1024, 11)
		p := Analyze(tr)
		s := p.ByName("data")
		if s == nil {
			t.Fatalf("kind %d: data structure not profiled", c.kind)
		}
		if s.Class != c.want {
			t.Fatalf("kind %d classified as %v, want %v (stats %+v)", c.kind, s.Class, c.want, *s)
		}
	}
}

func TestClassifyRandomLargeFootprint(t *testing.T) {
	tr := workload.Synthetic(workload.SynRandom, 100_000, 1<<20, 5)
	p := Analyze(tr)
	s := p.ByName("data")
	if s.Class != ClassRandom {
		t.Fatalf("random over 1MiB classified as %v (stats %+v)", s.Class, *s)
	}
}

func TestClassifyIndexedSmallFootprint(t *testing.T) {
	// Random accesses within a small region: hot indexed table.
	tr := workload.Synthetic(workload.SynRandom, 50_000, 4096, 5)
	p := Analyze(tr)
	s := p.ByName("data")
	if s.Class != ClassIndexed {
		t.Fatalf("hot 4KiB random table classified as %v, want indexed", s.Class)
	}
}

func TestStatsBasics(t *testing.T) {
	b := trace.NewBuilder("t", 16)
	id, _ := b.Region("d", 1024, 4)
	for i := uint32(0); i < 10; i++ {
		b.Load(id, i*4, 4)
	}
	b.Store(id, 0, 4)
	tr := b.Build()
	p := Analyze(tr)
	s := p.ByDS(id)
	if s == nil {
		t.Fatal("structure missing")
	}
	if s.Count != 11 || s.Bytes != 44 {
		t.Fatalf("count/bytes wrong: %+v", s)
	}
	if s.StoreFrac <= 0.08 || s.StoreFrac >= 0.1 {
		t.Fatalf("store fraction = %v, want 1/11", s.StoreFrac)
	}
	if s.DominantStride != 4 {
		t.Fatalf("dominant stride = %d, want 4", s.DominantStride)
	}
	if s.Share(p.Total) != 1.0 {
		t.Fatalf("share = %v, want 1", s.Share(p.Total))
	}
}

func TestChainRatioPermutation(t *testing.T) {
	// A permutation cycle walked repeatedly: after the first lap, every
	// transition is consistent.
	tr := workload.Synthetic(workload.SynSelfIndirect, 4096, 4096, 13)
	p := Analyze(tr)
	s := p.ByName("data")
	if s.ChainRatio < 0.7 {
		t.Fatalf("chain ratio %.3f too low for a permutation walk", s.ChainRatio)
	}
}

func TestChainRatioRandomLow(t *testing.T) {
	tr := workload.Synthetic(workload.SynRandom, 50_000, 1<<20, 17)
	p := Analyze(tr)
	s := p.ByName("data")
	if s.ChainRatio > 0.05 {
		t.Fatalf("chain ratio %.3f too high for random accesses", s.ChainRatio)
	}
}

func TestProfileOrderedByCount(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	p := Analyze(tr)
	for i := 1; i < len(p.Stats); i++ {
		if p.Stats[i].Count > p.Stats[i-1].Count {
			t.Fatal("stats not sorted by descending count")
		}
	}
	if p.Stats[0].Name != "htab" {
		t.Fatalf("compress should be dominated by htab, got %q", p.Stats[0].Name)
	}
}

func TestWorkloadClassesMatchPaperIntuition(t *testing.T) {
	// The vocoder is stream-dominated; its big buffers must classify as
	// streams and its codebook must not.
	tr := workload.Vocoder{}.Generate(workload.DefaultConfig())
	p := Analyze(tr)
	if s := p.ByName("speech"); s == nil || s.Class != ClassStream {
		t.Fatalf("speech classified as %v, want stream", p.ByName("speech").Class)
	}
	if s := p.ByName("history"); s == nil || s.Class == ClassRandom {
		t.Fatalf("history should not look random")
	}
	// The li heap must show strong successor consistency (cons-cell
	// chains) — the property the LL-DMA module exploits.
	trLi := workload.Li{}.Generate(workload.DefaultConfig())
	pLi := Analyze(trLi)
	heap := pLi.ByName("heap")
	if heap == nil {
		t.Fatal("li heap missing")
	}
	if heap.ChainRatio < 0.3 {
		t.Fatalf("li heap chain ratio %.3f too low", heap.ChainRatio)
	}
}

func TestByNameMissing(t *testing.T) {
	tr := workload.Synthetic(workload.SynStream, 100, 1024, 1)
	p := Analyze(tr)
	if p.ByName("nope") != nil || p.ByDS(99) != nil {
		t.Fatal("lookup of missing structure should return nil")
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{
		ClassStream: "stream", ClassStrided: "strided",
		ClassSelfIndirect: "self-indirect", ClassIndexed: "indexed",
		ClassRandom: "random",
	} {
		if c.String() != want {
			t.Fatalf("Class(%d) = %q, want %q", c, c, want)
		}
	}
}

func TestShareZeroTotal(t *testing.T) {
	s := Stats{Count: 5}
	if s.Share(0) != 0 {
		t.Fatal("Share(0) should be 0")
	}
}

func TestReuseGapStats(t *testing.T) {
	// A hot 64-block table touched round-robin: every access after the
	// first lap reuses a block touched exactly 64 accesses ago.
	b := trace.NewBuilder("reuse", 10_000)
	id, _ := b.Region("tab", 64*32, 4)
	for i := uint32(0); i < 10_000; i++ {
		b.Load(id, (i%64)*32, 4)
	}
	p := Analyze(b.Build())
	s := p.ByDS(id)
	if s.ReuseFraction < 0.98 {
		t.Fatalf("round-robin table should reuse nearly always: %.3f", s.ReuseFraction)
	}
	if s.MedianReuseGap != 64 {
		t.Fatalf("median reuse gap = %d, want 64", s.MedianReuseGap)
	}
	// A pure one-pass stream never revisits a block.
	tr := workload.Synthetic(workload.SynStream, 1000, 1<<20, 1)
	st := Analyze(tr).ByName("data")
	if st.ReuseFraction > 0.9 {
		t.Fatalf("single-pass stream should barely reuse, got %.3f", st.ReuseFraction)
	}
}

// analyzeReference is the map-based Analyze that the table-based one
// replaced, kept as the reference it must equal on every trace.
func analyzeReference(t *trace.Trace) *Profile {
	n := len(t.DS)
	type state struct {
		count, bytes, stores int64
		blocks               map[uint32]int64 // block -> last access ordinal
		strides              map[int32]int64
		smallPos             int64
		transitions          int64
		consistent           int64
		lastAddr             uint32
		seen                 bool
		successor            map[uint32]uint32
		// gapHist[k] counts reuse gaps in [2^k, 2^(k+1)).
		gapHist [33]int64
		reuses  int64
	}
	states := make([]state, n)
	for i := range states {
		states[i].blocks = make(map[uint32]int64)
		states[i].strides = make(map[int32]int64)
		states[i].successor = make(map[uint32]uint32)
	}

	for _, a := range t.Accesses {
		if int(a.DS) >= n {
			continue
		}
		st := &states[a.DS]
		st.count++
		st.bytes += int64(a.Size)
		if a.Kind == trace.Store {
			st.stores++
		}
		block := a.Addr / 32
		if last, ok := st.blocks[block]; ok {
			gap := st.count - last
			st.gapHist[log2u64(uint64(gap))]++
			st.reuses++
		}
		st.blocks[block] = st.count
		if st.seen {
			delta := int32(a.Addr) - int32(st.lastAddr)
			if delta != 0 {
				st.strides[delta]++
			}
			if delta > 0 && delta <= 16 {
				st.smallPos++
			}
			st.transitions++
			if prev, ok := st.successor[st.lastAddr]; ok && prev == a.Addr {
				st.consistent++
			}
			st.successor[st.lastAddr] = a.Addr
		}
		st.lastAddr = a.Addr
		st.seen = true
	}

	p := &Profile{Trace: t, Total: int64(len(t.Accesses))}
	for i := 1; i < n; i++ { // skip the anonymous pseudo-structure
		st := &states[i]
		if st.count == 0 {
			continue
		}
		s := Stats{
			DS:             trace.DSID(i),
			Name:           t.DS[i].Name,
			Count:          st.count,
			Bytes:          st.bytes,
			FootprintBytes: int64(len(st.blocks)) * 32,
			RegionBytes:    int64(t.DS[i].Size),
		}
		if st.count > 0 {
			s.StoreFrac = float64(st.stores) / float64(st.count)
			s.ReuseFraction = float64(st.reuses) / float64(st.count)
		}
		if st.reuses > 0 {
			// Median of the log-bucketed gap histogram: the geometric
			// center of the bucket holding the middle sample.
			half := st.reuses / 2
			var cum int64
			for k, c := range st.gapHist {
				cum += c
				if cum > half {
					s.MedianReuseGap = int64(1) << uint(k)
					break
				}
			}
		}
		if st.transitions > 0 {
			s.StreamFrac = float64(st.smallPos) / float64(st.transitions)
			s.ChainRatio = float64(st.consistent) / float64(st.transitions)
			var bestStride int32
			var bestCount int64
			for d, c := range st.strides {
				if c > bestCount || (c == bestCount && d < bestStride) {
					bestStride, bestCount = d, c
				}
			}
			s.DominantStride = bestStride
			s.DominantFrac = float64(bestCount) / float64(st.transitions)
		}
		s.Class = classify(&s)
		p.Stats = append(p.Stats, s)
	}
	sort.Slice(p.Stats, func(i, j int) bool {
		if p.Stats[i].Count != p.Stats[j].Count {
			return p.Stats[i].Count > p.Stats[j].Count
		}
		return p.Stats[i].DS < p.Stats[j].DS
	})
	return p
}

// checkReference fails the test unless Analyze equals analyzeReference
// on t, field for field.
func checkReference(t *testing.T, name string, tr *trace.Trace) {
	t.Helper()
	got, want := Analyze(tr), analyzeReference(tr)
	if reflect.DeepEqual(got, want) {
		return
	}
	if len(got.Stats) != len(want.Stats) {
		t.Fatalf("%s: %d structures profiled, reference has %d", name, len(got.Stats), len(want.Stats))
	}
	for i := range got.Stats {
		if got.Stats[i] != want.Stats[i] {
			t.Fatalf("%s: stats %d differ:\n got %+v\nwant %+v", name, i, got.Stats[i], want.Stats[i])
		}
	}
	t.Fatalf("%s: profiles differ", name)
}

func TestAnalyzeMatchesReferenceWorkloads(t *testing.T) {
	for _, w := range []workload.Workload{workload.Compress{}, workload.Li{}, workload.Vocoder{}} {
		for _, seed := range []int64{1, 2, 42} {
			tr := w.Generate(workload.Config{Scale: 1, Seed: seed})
			name := fmt.Sprintf("%s/seed=%d", tr.Name, seed)
			checkReference(t, name, tr)
			checkReference(t, name+"/60k", tr.Slice(0, 60_000))
		}
	}
}

func TestAnalyzeMatchesReferenceSynthetic(t *testing.T) {
	kinds := []workload.SyntheticKind{workload.SynStream, workload.SynStrided,
		workload.SynSelfIndirect, workload.SynIndexed, workload.SynRandom}
	for _, k := range kinds {
		checkReference(t, fmt.Sprintf("synthetic/%d", k), workload.Synthetic(k, 50_000, 64*1024, 7))
	}
}

// TestAnalyzeMatchesReferenceRaw covers traces no workload emits and
// nothing validates: addresses outside every region, data-structure ids
// beyond the registry, addresses 0 and 0xFFFFFFFF, and address deltas
// that overflow int32.
func TestAnalyzeMatchesReferenceRaw(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	edges := []uint32{0, 1, 31, 32, 0x7FFFFFFF, 0x80000000, 0xFFFFFFE0, 0xFFFFFFFF}
	for round := 0; round < 40; round++ {
		nDS := 1 + rng.Intn(6)
		tr := &trace.Trace{Name: "raw", DS: make([]trace.DSInfo, nDS)}
		for i := 1; i < nDS; i++ {
			tr.DS[i] = trace.DSInfo{Name: fmt.Sprintf("d%d", i), Base: uint32(i) << 20, Size: 1 << 12, Elem: 4}
		}
		n := rng.Intn(20_000)
		tr.Accesses = make([]trace.Access, n)
		for i := range tr.Accesses {
			a := &tr.Accesses[i]
			a.DS = trace.DSID(rng.Intn(nDS + 2))
			a.Kind = trace.Kind(rng.Intn(2))
			a.Size = uint8(1 << rng.Intn(4))
			switch r := rng.Intn(10); {
			case r < 4: // inside the structure's region, if it has one
				a.Addr = uint32(a.DS)<<20 + uint32(rng.Intn(1<<12))
			case r < 6: // a small pool, so blocks and successors repeat
				a.Addr = uint32(rng.Intn(64)) * 4
			case r < 8:
				a.Addr = edges[rng.Intn(len(edges))]
			default:
				a.Addr = rng.Uint32()
			}
		}
		checkReference(t, fmt.Sprintf("raw/%d", round), tr)
	}
}

// FuzzAnalyze builds an unvalidated trace from the fuzz input and checks
// Analyze against the reference. The first byte sizes the registry;
// every following 7 bytes are one access: address, data-structure id,
// kind and size, taken as they come.
func FuzzAnalyze(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 0, 1, 0, 4, 0xFF, 0xFF, 0xFF, 0xFF, 1, 1, 4})
	f.Add([]byte{2, 0, 0, 0, 0x80, 1, 0, 4, 0xFF, 0xFF, 0xFF, 0x7F, 1, 0, 4, 0, 0, 0, 0x80, 1, 0, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		nDS := 1 + int(data[0]%8)
		tr := &trace.Trace{Name: "fuzz", DS: make([]trace.DSInfo, nDS)}
		for i := 1; i < nDS; i++ {
			tr.DS[i] = trace.DSInfo{Name: fmt.Sprintf("d%d", i), Base: uint32(i) << 8, Size: 256, Elem: 4}
		}
		for rec := data[1:]; len(rec) >= 7; rec = rec[7:] {
			tr.Accesses = append(tr.Accesses, trace.Access{
				Addr: binary.LittleEndian.Uint32(rec),
				DS:   trace.DSID(rec[4] % 12),
				Kind: trace.Kind(rec[5]),
				Size: rec[6],
			})
		}
		checkReference(t, "fuzz", tr)
	})
}
