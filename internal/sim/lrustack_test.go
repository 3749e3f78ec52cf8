package sim

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"memorex/internal/mem"
	"memorex/internal/trace"
)

// stackTestTrace returns a random trace of data structures 1 (the
// sub-stream under test) and 2 (interleaved accesses the sub-stream
// skips). Addresses cluster around hot spots spread over the whole
// 32-bit space, so tags reach the top of the key range; the accesses
// come in same-line runs of random length, one of which straddles the
// first chunk boundary; each segment of the trace stores with its own
// probability, from never to always.
func stackTestTrace(rng *rand.Rand, n int) *trace.Trace {
	hot := []uint32{0, 1 << 12, 0x7fff_f000, 0xffff_ff00}
	for len(hot) < 48 {
		hot = append(hot, rng.Uint32())
	}
	storeP := []float64{0, 0.05, 0.3, 0.7, 1}
	tr := &trace.Trace{Name: "stack", DS: []trace.DSInfo{{Name: "anon"}, {Name: "a"}, {Name: "b"}}}
	for len(tr.Accesses) < n {
		p := storeP[len(tr.Accesses)*len(storeP)/n]
		addr := hot[rng.Intn(len(hot))] + uint32(rng.Intn(512))
		run := 1 + rng.Intn(4)
		if rng.Intn(8) == 0 {
			run += rng.Intn(40)
		}
		if i := len(tr.Accesses); i < ctxCheckEvery && i+60 > ctxCheckEvery {
			run = 120 // crosses the chunk boundary at ctxCheckEvery
		}
		for k := 0; k < run; k++ {
			a := trace.Access{Addr: addr + uint32(rng.Intn(4)), DS: 1, Kind: trace.Load, Size: 1}
			if rng.Float64() < p {
				a.Kind = trace.Store
			}
			if rng.Intn(5) == 0 {
				a.DS, a.Addr = 2, rng.Uint32()
			}
			tr.Accesses = append(tr.Accesses, a)
		}
	}
	return tr
}

// TestStackKernelMatchesCache drives the LRU stack kernel and mem.Cache
// over random sub-streams with random store mixes and compares hits,
// misses and write-backs separately, bit for bit, for every cache of
// line 4–64 bytes, 1–1024 sets and 1, 2 or 4 ways. Those with line ×
// sets < 8 bytes or 4 ways must take the module walk instead; the rest
// must be served by the kernel. Every cache the kernel serves also runs
// capture's stage-1 walker over the same sub-stream, whose outcome code
// of each access (hit, line fill, or line fill plus write-back) must be
// mem.Cache.Access's.
func TestStackKernelMatchesCache(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		tr := stackTestTrace(rng, 3*ctxCheckEvery)
		in := []bool{false, true, false}
		var sub []trace.Access
		for _, a := range tr.Accesses {
			if in[a.DS] {
				sub = append(sub, a)
			}
		}
		g := &moGroup{in: in, n: int64(len(sub))}
		for line := 4; line <= 64; line *= 2 {
			for sets := 1; sets <= 1024; sets *= 2 {
				for _, ways := range []int{1, 2, 4} {
					c := mem.MustCache(line*sets*ways, line, ways)
					g.jobs = append(g.jobs, &moJob{module: c, cost: g.n})
				}
			}
		}
		// An L2-recording cache takes the walk too.
		g.jobs = append(g.jobs, &moJob{module: mem.MustCache(1024, 32, 2), cost: g.n, record: true})

		stacked := map[*moJob]bool{}
		lines, walk := newLRULines(g.jobs)
		for _, l := range lines {
			for _, f := range l.fams {
				for _, j := range f.jobs {
					if j != nil {
						stacked[j] = true
					}
				}
			}
		}
		if len(stacked)+len(walk) != len(g.jobs) {
			t.Fatalf("seed %d: %d jobs stacked and %d walked, want %d in all", seed, len(stacked), len(walk), len(g.jobs))
		}
		if err := g.run(context.Background(), tr); err != nil {
			t.Fatal(err)
		}
		var refWBs int64
		for _, j := range g.jobs {
			c := j.module.(*mem.Cache)
			sets := c.SizeBytes / (c.LineBytes * c.Assoc)
			name := fmt.Sprintf("seed %d: %dB lines × %d sets × %d ways (record %v)", seed, c.LineBytes, sets, c.Assoc, j.record)
			if want := c.LineBytes*sets >= 8 && c.Assoc <= 2 && !j.record; stacked[j] != want {
				t.Errorf("%s: served by the stack kernel = %v, want %v", name, stacked[j], want)
			}
			ref := c.Clone().(*mem.Cache)
			codes := make([]uint32, len(sub))
			for i, a := range sub {
				wbs := ref.WriteBacks
				switch r := ref.Access(a, int64(i)); {
				case r.Hit:
					codes[i] = outHit
				case ref.WriteBacks > wbs:
					codes[i] = outDem2
				default:
					codes[i] = outDemLine
				}
			}
			refWBs += ref.WriteBacks
			if stacked[j] {
				walkerMatchesCache(t, name, tr.Accesses, in, c, codes)
			}
			misses := j.cost - j.hits
			wbs := j.backBytes/int64(c.LineBytes) - misses
			if j.hits != ref.Hits || misses != ref.Misses || wbs != ref.WriteBacks {
				t.Errorf("%s: hits %d misses %d write-backs %d, mem.Cache %d %d %d",
					name, j.hits, misses, wbs, ref.Hits, ref.Misses, ref.WriteBacks)
			}
		}
		if refWBs == 0 {
			t.Fatalf("seed %d: no cache wrote back; the trace exercises no dirty state", seed)
		}
	}
}

// walkerMatchesCache runs capture's stage-1 walker of c over the
// accesses of acc that in marks, in capture's blocks, and compares the
// outcome code of each with want's.
func walkerMatchesCache(t *testing.T, name string, acc []trace.Access, in []bool, c *mem.Cache, want []uint32) {
	t.Helper()
	walk := (&capture{captureScratch: &captureScratch{}}).newStackWalker(c)
	if walk == nil {
		t.Errorf("%s: no stack walker", name)
		return
	}
	keys := make([]uint32, captureBlock)
	idx := make([]uint16, 0, captureBlock)
	n := 0
	for lo := 0; lo < len(acc); lo += captureBlock {
		blk := acc[lo:min(lo+captureBlock, len(acc))]
		idx = idx[:0]
		for i, a := range blk {
			if in[a.DS] {
				idx = append(idx, uint16(i))
			}
		}
		clear(keys)
		walk(blk, idx, keys)
		for _, i := range idx {
			if keys[i] != want[n] {
				t.Errorf("%s: walker's outcome code of access %d is %#x, mem.Cache's %#x", name, n, keys[i], want[n])
				return
			}
			n++
		}
	}
}
