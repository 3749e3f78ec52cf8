package sim_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"memorex/internal/apex"
	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/sim"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// runOnePhase simulates arch with the one-phase reference simulator on
// dedicated connectivity (one component per channel).
func runOnePhase(t *testing.T, tr *trace.Trace, a *mem.Architecture) *sim.Result {
	t.Helper()
	lib := connect.Library()
	on, _ := connect.ByName(lib, "ahb32")
	off, _ := connect.ByName(lib, "off32")
	c := &connect.Arch{Channels: a.Channels()}
	for i, ch := range c.Channels {
		c.Clusters = append(c.Clusters, []int{i})
		if ch.OffChip {
			c.Assign = append(c.Assign, off)
		} else {
			c.Assign = append(c.Assign, on)
		}
	}
	s, err := sim.New(a, c)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.Run(tr)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// checkAgainstRun asserts that a memory-only result carries exactly the
// one-phase simulator's counts for the architecture.
func checkAgainstRun(t *testing.T, a *mem.Architecture, got *sim.MemOnlyResult, want *sim.Result) {
	t.Helper()
	if got.Accesses != want.Accesses || got.Hits != want.Hits || got.Misses != want.Misses ||
		got.OffChipBytes != want.OffChipBytes || !reflect.DeepEqual(got.ChannelBytes, want.ChannelBytes) {
		t.Errorf("%s: memory-only {acc %d hits %d misses %d off %d ch %v} != one-phase {acc %d hits %d misses %d off %d ch %v}",
			a.Name, got.Accesses, got.Hits, got.Misses, got.OffChipBytes, got.ChannelBytes,
			want.Accesses, want.Hits, want.Misses, want.OffChipBytes, want.ChannelBytes)
	}
}

func dsByName(tr *trace.Trace, name string) trace.DSID {
	for i, d := range tr.DS {
		if d.Name == name {
			return trace.DSID(i)
		}
	}
	panic("no data structure " + name)
}

// TestMemOnlyMatchesRun is the differential test of the memory-only
// evaluator: over APEX sweeps with victim, write-through and L2 variants
// and up to four custom modules on every workload, and over hand-built
// architectures with direct-DRAM routes and several data structures per
// module, every architecture's Hits, Misses, OffChipBytes and
// ChannelBytes equal the one-phase simulator's, bit for bit, whether it
// is evaluated alone or deduplicated within a batch.
func TestMemOnlyMatchesRun(t *testing.T) {
	wcfg := workload.Config{Scale: 1, Seed: 7}
	benches := []struct {
		name string
		gen  workload.Workload
	}{
		{"compress", workload.Compress{}},
		{"li", workload.Li{}},
		{"vocoder", workload.Vocoder{}},
	}
	for _, b := range benches {
		tr := b.gen.Generate(wcfg).Slice(0, 6000)
		cfg := apex.Config{
			CacheSizes:        []int{1 << 10, 8 << 10},
			CacheAssocs:       []int{1, 2},
			CacheLines:        []int{32},
			MaxCustom:         4,
			SRAMLimit:         80 << 10,
			MaxSelected:       5,
			VictimLines:       8,
			SweepWriteThrough: true,
			L2Sizes:           []int{16 << 10},
		}
		res, err := apex.ExploreContext(context.Background(), tr, nil, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		for _, dp := range res.All {
			checkAgainstRun(t, dp.Arch, dp.MemOnly, runOnePhase(t, tr, dp.Arch))
		}
		if t.Failed() {
			t.Fatalf("%s: APEX sweep disagrees with the one-phase simulator", b.name)
		}
	}

	// Hand-built architectures, evaluated in one batch (sharing jobs)
	// and one by one.
	comp := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 42}).Slice(0, 100_000)
	voc := workload.Vocoder{}.Generate(workload.Config{Scale: 1, Seed: 1}).Slice(0, 50_000)
	li := workload.Li{}.Generate(workload.Config{Scale: 1, Seed: 3}).Slice(0, 50_000)
	htab, codetab := dsByName(comp, "htab"), dsByName(comp, "codetab")
	in, out := dsByName(comp, "in"), dsByName(comp, "out")
	cases := []struct {
		tr   *trace.Trace
		arch *mem.Architecture
	}{
		// A plain cache, as in TestMemOnlyMatchesModuleBehaviour.
		{comp, &mem.Architecture{Name: "cache8k", Modules: []mem.Module{mem.MustCache(8192, 32, 2)},
			DRAM: mem.DefaultDRAM()}},
		// A small L1 behind a large L2, as in TestL2MemOnlyAgrees.
		{comp, &mem.Architecture{Name: "hier", Modules: []mem.Module{mem.MustCache(1024, 32, 2)},
			DRAM: mem.DefaultDRAM(), L2: mem.MustCache(65536, 32, 4)}},
		// Direct-DRAM routes, explicit and by default.
		{comp, &mem.Architecture{Name: "direct-route", Modules: []mem.Module{mem.MustCache(4096, 32, 2)},
			DRAM: mem.DefaultDRAM(), Route: map[trace.DSID]int{htab: mem.DirectDRAM, out: mem.DirectDRAM}}},
		{comp, &mem.Architecture{Name: "direct-default",
			Modules: []mem.Module{mem.MustCache(4096, 32, 1), mem.MustStreamBuffer(32, 4)},
			DRAM:    mem.DefaultDRAM(), Route: map[trace.DSID]int{htab: 0, in: 1}, Default: mem.DirectDRAM}},
		// Several data structures routed to one module, beside an SRAM
		// holding two tables.
		{comp, &mem.Architecture{Name: "shared-modules",
			Modules: []mem.Module{mem.MustCache(2048, 32, 2), mem.MustStreamBuffer(32, 4),
				mem.MustSRAM(int(comp.Info(htab).Size + comp.Info(codetab).Size))},
			DRAM:  mem.DefaultDRAM(),
			Route: map[trace.DSID]int{in: 1, out: 1, htab: 2, codetab: 2}}},
		// The same modules behind an L2: stream prefetches reach it too.
		{comp, &mem.Architecture{Name: "shared-modules-l2",
			Modules: []mem.Module{mem.MustCache(2048, 32, 2), mem.MustStreamBuffer(32, 4),
				mem.MustSRAM(int(comp.Info(htab).Size + comp.Info(codetab).Size))},
			DRAM: mem.DefaultDRAM(), L2: mem.MustCache(32768, 32, 4),
			Route: map[trace.DSID]int{in: 1, out: 1, htab: 2, codetab: 2}}},
		// Victim and write-through caches with an L2 and a direct route.
		{voc, &mem.Architecture{Name: "victim-wt-l2",
			Modules: []mem.Module{mem.MustVictimCache(2048, 32, 1, 8), mem.MustWriteThroughCache(1024, 32, 2)},
			DRAM:    mem.DefaultDRAM(), L2: mem.MustCache(16384, 32, 4),
			Route: map[trace.DSID]int{1: 1, 2: 1, 3: mem.DirectDRAM}}},
		// Pointer chasing into DMA engines of different predictability
		// (equal names, different identities).
		{li, &mem.Architecture{Name: "dma-0.2",
			Modules: []mem.Module{mem.MustCache(4096, 32, 2), mem.MustSelfIndirectDMA(256, 8, 0.2)},
			DRAM:    mem.DefaultDRAM(), Route: map[trace.DSID]int{1: 1, 2: 1}}},
		{li, &mem.Architecture{Name: "dma-0.9",
			Modules: []mem.Module{mem.MustCache(4096, 32, 2), mem.MustSelfIndirectDMA(256, 8, 0.9)},
			DRAM:    mem.DefaultDRAM(), Route: map[trace.DSID]int{1: 1, 2: 1}}},
		{li, &mem.Architecture{Name: "dma-0.9-l2",
			Modules: []mem.Module{mem.MustCache(4096, 32, 2), mem.MustSelfIndirectDMA(256, 8, 0.9)},
			DRAM:    mem.DefaultDRAM(), L2: mem.MustCache(16384, 32, 4), Route: map[trace.DSID]int{1: 1, 2: 1}}},
	}
	byTrace := map[*trace.Trace][]*mem.Architecture{}
	want := map[*mem.Architecture]*sim.Result{}
	for _, c := range cases {
		byTrace[c.tr] = append(byTrace[c.tr], c.arch)
		want[c.arch] = runOnePhase(t, c.tr, c.arch)
		r, err := sim.RunMemOnly(c.tr, c.arch)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRun(t, c.arch, r, want[c.arch])
	}
	for tr, archs := range byTrace {
		rs, err := sim.MemOnly(context.Background(), tr, archs, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, a := range archs {
			checkAgainstRun(t, a, rs[i], want[a])
		}
	}
}

// TestMemOnlyCancel: a cancelled context stops the evaluation with the
// context's error.
func TestMemOnlyCancel(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 1}).Slice(0, 10_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := &mem.Architecture{Name: "c", Modules: []mem.Module{mem.MustCache(4096, 32, 2)}, DRAM: mem.DefaultDRAM()}
	for _, workers := range []int{1, 4} {
		if _, err := sim.MemOnly(ctx, tr, []*mem.Architecture{a, a}, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
	}
}

// TestMemOnlyDeterministic: the worker count never changes a result.
func TestMemOnlyDeterministic(t *testing.T) {
	tr := workload.Vocoder{}.Generate(workload.Config{Scale: 1, Seed: 5}).Slice(0, 20_000)
	res, err := apex.ExploreContext(context.Background(), tr, nil, apex.Config{
		CacheSizes: []int{2 << 10, 8 << 10}, CacheAssocs: []int{1, 2}, CacheLines: []int{32},
		MaxCustom: 3, SRAMLimit: 80 << 10, MaxSelected: 5, L2Sizes: []int{16 << 10},
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	archs := make([]*mem.Architecture, len(res.All))
	for i, dp := range res.All {
		archs[i] = dp.Arch
	}
	for _, workers := range []int{2, 5} {
		rs, err := sim.MemOnly(context.Background(), tr, archs, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i, dp := range res.All {
			if !reflect.DeepEqual(rs[i], dp.MemOnly) {
				t.Fatalf("workers=%d: %s differs from the one-worker result", workers, fmt.Sprint(archs[i].Name))
			}
		}
	}
}
