package apex

import (
	"context"
	"errors"
	"testing"
	"time"

	"memorex/internal/mem"
	"memorex/internal/profile"
	"memorex/internal/workload"
)

// smallConfig keeps unit tests fast.
func smallConfig() Config {
	return Config{
		CacheSizes:  []int{1 << 10, 4 << 10, 16 << 10},
		CacheAssocs: []int{1, 2},
		CacheLines:  []int{32},
		MaxCustom:   2,
		SRAMLimit:   80 << 10,
		MaxSelected: 5,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.CacheSizes = nil
	if err := bad.Validate(); err == nil {
		t.Fatal("empty cache sweep accepted")
	}
	bad = DefaultConfig()
	bad.MaxCustom = 9
	if err := bad.Validate(); err == nil {
		t.Fatal("huge MaxCustom accepted")
	}
	bad = DefaultConfig()
	bad.MaxSelected = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("zero MaxSelected accepted")
	}
}

func TestExploreCompress(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	prof := profile.Analyze(tr)
	res, err := Explore(tr, prof, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) < 12 {
		t.Fatalf("exploration evaluated only %d designs", len(res.All))
	}
	if len(res.Selected) == 0 || len(res.Selected) > 5 {
		t.Fatalf("selected %d designs, want 1..5", len(res.Selected))
	}
	// Selected points must be sorted by cost and strictly improving in
	// miss ratio (a pareto front).
	for i := 1; i < len(res.Selected); i++ {
		if res.Selected[i].Gates <= res.Selected[i-1].Gates {
			t.Fatal("selected designs not sorted by ascending cost")
		}
		if res.Selected[i].MissRatio >= res.Selected[i-1].MissRatio {
			t.Fatal("selected designs not strictly improving in miss ratio")
		}
	}
	// All selected architectures must validate and include a cache.
	for _, dp := range res.Selected {
		if err := dp.Arch.Validate(); err != nil {
			t.Fatalf("selected architecture invalid: %v", err)
		}
	}
	if res.EvaluatedAccesses == 0 {
		t.Fatal("no exploration work recorded")
	}
}

func TestExploreFindsCustomModulesHelp(t *testing.T) {
	// On compress, the best selected architectures should include at
	// least one with a custom module (the paper's architectures c..k).
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	res, err := Explore(tr, nil, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	foundCustom := false
	for _, dp := range res.Selected {
		if len(dp.Arch.Modules) > 1 {
			foundCustom = true
		}
	}
	if !foundCustom {
		t.Fatal("no selected architecture uses a custom memory module")
	}
}

func TestExploreMissRatioMonotoneInCache(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	cfg := Config{
		CacheSizes:  []int{1 << 10, 32 << 10},
		CacheAssocs: []int{2},
		CacheLines:  []int{32},
		MaxCustom:   0,
		MaxSelected: 5,
	}
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 2 {
		t.Fatalf("want exactly 2 designs, got %d", len(res.All))
	}
	small, big := res.All[0], res.All[1]
	if small.Gates > big.Gates {
		small, big = big, small
	}
	if big.MissRatio >= small.MissRatio {
		t.Fatalf("32k cache should miss less than 1k: %.4f vs %.4f", big.MissRatio, small.MissRatio)
	}
}

func TestExploreVocoderUsesStreamModules(t *testing.T) {
	tr := workload.Vocoder{}.Generate(workload.DefaultConfig())
	prof := profile.Analyze(tr)
	res, err := Explore(tr, prof, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Some evaluated design must carry a stream buffer or SRAM (vocoder
	// is stream/table dominated).
	found := false
	for _, dp := range res.All {
		for _, m := range dp.Arch.Modules {
			if m.Kind() == mem.KindStream || m.Kind() == mem.KindSRAM {
				found = true
			}
		}
	}
	if !found {
		t.Fatal("vocoder exploration never proposed stream/SRAM modules")
	}
}

func TestThinKeepsEndpoints(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig())
	res, err := Explore(tr, nil, Config{
		CacheSizes:  []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10},
		CacheAssocs: []int{1, 2},
		CacheLines:  []int{16, 32},
		MaxCustom:   1,
		SRAMLimit:   80 << 10,
		MaxSelected: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) > 3 {
		t.Fatalf("thinning failed: %d selected", len(res.Selected))
	}
}

func TestExploreRejectsBadConfig(t *testing.T) {
	tr := workload.Synthetic(workload.SynStream, 100, 1024, 1)
	if _, err := Explore(tr, nil, Config{}); err == nil {
		t.Fatal("zero config accepted")
	}
}

func TestExploreVictimVariants(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 60_000)
	cfg := smallConfig()
	cfg.VictimLines = 4
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Explore(tr, nil, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 2*len(plain.All) {
		t.Fatalf("victim sweep should double the space: %d vs %d", len(res.All), len(plain.All))
	}
	// Victim variants must exist and never miss more than their plain
	// counterpart of the same configuration.
	found := false
	for _, dp := range res.All {
		vc, ok := dp.Arch.Modules[0].(*mem.VictimCache)
		if !ok {
			continue
		}
		found = true
		for _, other := range res.All {
			if other.Arch.Modules[0].Name() == vc.Cache.Name() &&
				other.Arch.Name[len(other.Arch.Name)-2:] == dp.Arch.Name[len(dp.Arch.Name)-2:] {
				if dp.MissRatio > other.MissRatio+1e-9 {
					t.Fatalf("victim variant misses more than plain: %v vs %v",
						dp.MissRatio, other.MissRatio)
				}
			}
		}
	}
	if !found {
		t.Fatal("no victim variants generated")
	}
}

func TestExploreWriteThroughSweep(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 60_000)
	cfg := smallConfig()
	cfg.SweepWriteThrough = true
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wt, wb int
	for _, dp := range res.All {
		c, ok := dp.Arch.Modules[0].(*mem.Cache)
		if !ok {
			continue
		}
		if c.Policy == mem.WriteThrough {
			wt++
		} else {
			wb++
		}
	}
	if wt == 0 || wt != wb {
		t.Fatalf("write-through sweep should mirror the write-back space: %d wt vs %d wb", wt, wb)
	}
}

func TestExploreL2Sweep(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 60_000)
	cfg := smallConfig()
	cfg.L2Sizes = []int{32 << 10}
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Explore(tr, nil, smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.All) != 2*len(plain.All) {
		t.Fatalf("L2 sweep should double the space: %d vs %d", len(res.All), len(plain.All))
	}
	// Every L2 variant must cut the off-chip traffic of its base.
	for _, dp := range res.All {
		if dp.Arch.L2 == nil {
			continue
		}
		for _, other := range res.All {
			if other.Arch.L2 == nil && dp.Arch.Name == other.Arch.Name+"+l2-32k" {
				if dp.OffChipBytesPerAccess >= other.OffChipBytesPerAccess {
					t.Fatalf("%s: L2 did not cut off-chip traffic (%.3f vs %.3f)",
						dp.Arch.Name, dp.OffChipBytesPerAccess, other.OffChipBytesPerAccess)
				}
			}
		}
	}
}

func TestExploreMaxSelectedOne(t *testing.T) {
	tr := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 30_000)
	cfg := smallConfig()
	cfg.MaxSelected = 1
	res, err := Explore(tr, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) != 1 {
		t.Fatalf("MaxSelected=1 returned %d designs", len(res.Selected))
	}
}

// TestExploreContextCancel: a cancelled context stops the sweep with the
// context's error, whatever the worker count.
func TestExploreContextCancel(t *testing.T) {
	tr := workload.Li{}.Generate(workload.DefaultConfig())
	prof := profile.Analyze(tr)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		res, err := ExploreContext(ctx, tr, prof, DefaultConfig(), workers)
		if !errors.Is(err, context.Canceled) || res != nil {
			t.Fatalf("workers=%d: got (%v, %v), want (nil, context.Canceled)", workers, res, err)
		}
	}

	// Cancelled mid-sweep: a sweep that takes seconds returns promptly.
	big := DefaultConfig()
	big.VictimLines, big.SweepWriteThrough, big.L2Sizes = 8, true, []int{64 << 10}
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(20*time.Millisecond, cancel)
	start := time.Now()
	if _, err := ExploreContext(ctx, tr, prof, big, 2); !errors.Is(err, context.Canceled) {
		t.Fatalf("mid-sweep cancel: err = %v, want context.Canceled", err)
	}
	if wall := time.Since(start); wall > time.Second {
		t.Fatalf("cancelled sweep took %v to stop", wall)
	}
}
