// Package apex implements the Access Pattern-based memory-modules
// EXploration of Grun et al. (ISSS 2001), the stage that precedes the
// paper's connectivity exploration: starting from the profiled access
// patterns of the application's data structures, it enumerates memory
// architectures that mix caches with pattern-matched custom modules
// (SRAM scratchpads for hot tables, stream buffers for sequential data,
// DMA-like self-indirect engines for pointer chains), evaluates each
// under an idealized interconnect, and selects the most promising
// cost/miss-ratio designs — the points labelled 1..5 in Figure 3.
package apex

import (
	"context"
	"fmt"
	"sort"

	"memorex/internal/mem"
	"memorex/internal/pareto"
	"memorex/internal/profile"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// Config bounds the memory-modules design space.
type Config struct {
	// CacheSizes, CacheAssocs and CacheLines define the cache sweep.
	CacheSizes  []int `json:"cache_sizes,omitempty"`
	CacheAssocs []int `json:"cache_assocs,omitempty"`
	CacheLines  []int `json:"cache_lines,omitempty"`
	// MaxCustom is the number of hottest data structures considered for
	// custom modules (the power set of their candidates is explored).
	MaxCustom int `json:"max_custom,omitempty"`
	// SRAMLimit is the largest data structure (bytes) that may be
	// mapped to a scratchpad.
	SRAMLimit int `json:"sram_limit,omitempty"`
	// MaxSelected caps the architectures handed to the connectivity
	// exploration (the paper selects 5 for compress).
	MaxSelected int `json:"max_selected,omitempty"`
	// VictimLines, when positive, additionally sweeps victim-buffer
	// variants of every cache configuration (an extension module of the
	// library; see mem.VictimCache).
	VictimLines int `json:"victim_lines,omitempty"`
	// SweepWriteThrough additionally sweeps write-through variants of
	// every cache configuration (cheaper control, more off-chip store
	// traffic).
	SweepWriteThrough bool `json:"sweep_write_through,omitempty"`
	// L2Sizes, when non-empty, additionally sweeps variants of every
	// architecture with a shared L2 of each given size (4-way, 32-byte
	// lines) shielding the off-chip channel.
	L2Sizes []int `json:"l2_sizes,omitempty"`
}

// DefaultConfig returns the sweep used by the paper-reproduction
// experiments.
func DefaultConfig() Config {
	return Config{
		CacheSizes:  []int{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10},
		CacheAssocs: []int{1, 2},
		CacheLines:  []int{32},
		MaxCustom:   3,
		SRAMLimit:   80 << 10,
		MaxSelected: 5,
	}
}

// IsZero reports whether the config is the zero value, which callers
// treat as "use DefaultConfig".
func (c Config) IsZero() bool {
	return c.CacheSizes == nil && c.CacheAssocs == nil && c.CacheLines == nil &&
		c.MaxCustom == 0 && c.SRAMLimit == 0 && c.MaxSelected == 0 &&
		c.VictimLines == 0 && !c.SweepWriteThrough && c.L2Sizes == nil
}

// Normalize resolves the config the explorations run with: the zero
// value becomes DefaultConfig, anything else must validate as-is.
func (c Config) Normalize() (Config, error) {
	if c.IsZero() {
		return DefaultConfig(), nil
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.CacheSizes) == 0 || len(c.CacheAssocs) == 0 || len(c.CacheLines) == 0 {
		return fmt.Errorf("apex: cache sweep must be non-empty")
	}
	if c.MaxCustom < 0 || c.MaxCustom > 6 {
		return fmt.Errorf("apex: MaxCustom %d outside [0,6]", c.MaxCustom)
	}
	if c.MaxSelected <= 0 {
		return fmt.Errorf("apex: MaxSelected must be positive")
	}
	return nil
}

// DesignPoint is one evaluated memory-modules architecture.
type DesignPoint struct {
	Arch      *mem.Architecture
	Gates     float64
	MissRatio float64
	// OffChipBytesPerAccess measures the demand the architecture puts
	// on the chip boundary.
	OffChipBytesPerAccess float64
	// MemOnly is the memory-only simulation the design was scored
	// with. ConEx labels the architecture's Bandwidth Requirement Graph
	// from it instead of simulating the architecture again.
	MemOnly *sim.MemOnlyResult
}

// Result is the outcome of the memory-modules exploration.
type Result struct {
	// All is every evaluated design (Figure 3's point cloud).
	All []DesignPoint
	// Selected is the pruned cost/miss-ratio front, at most MaxSelected
	// entries, ordered by ascending cost (Figure 3's points 1..5).
	Selected []DesignPoint
	// EvaluatedAccesses is the exploration work in simulated accesses.
	EvaluatedAccesses int64
	// Trace is the trace the designs were evaluated on; their MemOnly
	// results describe this trace alone.
	Trace *trace.Trace
}

// customCandidate is a pattern-matched module proposal for one data
// structure.
type customCandidate struct {
	ds    trace.DSID
	build func() mem.Module
	label string
}

// Explore runs the memory-modules exploration on a profiled trace,
// evaluating on all CPUs.
func Explore(t *trace.Trace, prof *profile.Profile, cfg Config) (*Result, error) {
	return ExploreContext(context.Background(), t, prof, cfg, 0)
}

// ExploreContext runs the memory-modules exploration on a profiled
// trace. The whole sweep is evaluated in one batched memory-only
// simulation (sim.MemOnly) on at most workers goroutines (<= 0 means
// all CPUs). A cancelled ctx stops it with ctx.Err().
func ExploreContext(ctx context.Context, t *trace.Trace, prof *profile.Profile, cfg Config, workers int) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if prof == nil {
		prof = profile.Analyze(t)
	}
	candidates := customCandidates(prof, cfg)

	var archs []*mem.Architecture
	for _, size := range cfg.CacheSizes {
		for _, assoc := range cfg.CacheAssocs {
			for _, line := range cfg.CacheLines {
				if size < line*assoc {
					continue
				}
				var bases []mem.Module
				base, err := mem.NewCache(size, line, assoc)
				if err != nil {
					return nil, err
				}
				bases = append(bases, base)
				if cfg.VictimLines > 0 {
					vc, err := mem.NewVictimCache(size, line, assoc, cfg.VictimLines)
					if err != nil {
						return nil, err
					}
					bases = append(bases, vc)
				}
				if cfg.SweepWriteThrough {
					wt, err := mem.NewWriteThroughCache(size, line, assoc)
					if err != nil {
						return nil, err
					}
					bases = append(bases, wt)
				}
				for _, base := range bases {
					archs = append(archs, expandCustom(base, candidates)...)
				}
			}
		}
	}
	if len(cfg.L2Sizes) > 0 {
		flat := archs
		for _, l2Size := range cfg.L2Sizes {
			for _, a := range flat {
				l2, err := mem.NewCache(l2Size, 32, 4)
				if err != nil {
					return nil, err
				}
				v := a.Clone()
				v.Name = fmt.Sprintf("%s+l2-%dk", a.Name, l2Size/1024)
				v.L2 = l2
				archs = append(archs, v)
			}
		}
	}

	results, err := sim.MemOnly(ctx, t, archs, workers)
	if err != nil {
		return nil, err
	}
	res := &Result{Trace: t}
	for i, arch := range archs {
		r := results[i]
		res.EvaluatedAccesses += r.Accesses
		dp := DesignPoint{
			Arch:      arch,
			Gates:     arch.Gates(),
			MissRatio: r.MissRatio(),
			MemOnly:   r,
		}
		if r.Accesses > 0 {
			dp.OffChipBytesPerAccess = float64(r.OffChipBytes) / float64(r.Accesses)
		}
		res.All = append(res.All, dp)
	}

	res.Selected = selectFront(res.All, cfg.MaxSelected)
	return res, nil
}

// expandCustom builds one architecture per subset of the custom-module
// candidates on top of the given base cache.
func expandCustom(base mem.Module, candidates []customCandidate) []*mem.Architecture {
	var archs []*mem.Architecture
	for mask := 0; mask < 1<<len(candidates); mask++ {
		arch := &mem.Architecture{
			Name:    fmt.Sprintf("%s/m%d", base.Name(), mask),
			Modules: []mem.Module{base.Clone()},
			DRAM:    mem.DefaultDRAM(),
			Route:   map[trace.DSID]int{},
			Default: 0,
		}
		for bit, cand := range candidates {
			if mask&(1<<bit) == 0 {
				continue
			}
			arch.Modules = append(arch.Modules, cand.build())
			arch.Route[cand.ds] = len(arch.Modules) - 1
		}
		archs = append(archs, arch)
	}
	return archs
}

// customCandidates proposes pattern-matched modules for the hottest data
// structures, following the paper's module/pattern pairing.
func customCandidates(prof *profile.Profile, cfg Config) []customCandidate {
	var out []customCandidate
	for i := range prof.Stats {
		if len(out) >= cfg.MaxCustom {
			break
		}
		s := prof.Stats[i]
		// Only structures that carry a meaningful share of the traffic
		// justify dedicated hardware.
		if s.Share(prof.Total) < 0.02 {
			continue
		}
		switch s.Class {
		case profile.ClassStream, profile.ClassStrided:
			out = append(out, customCandidate{
				ds:    s.DS,
				label: "stream:" + s.Name,
				build: func() mem.Module { return mem.MustStreamBuffer(32, 4) },
			})
		case profile.ClassSelfIndirect:
			pred := s.ChainRatio
			node := 8
			out = append(out, customCandidate{
				ds:    s.DS,
				label: "lldma:" + s.Name,
				build: func() mem.Module { return mem.MustSelfIndirectDMA(256, node, pred) },
			})
		case profile.ClassIndexed:
			// Map the whole structure when it fits; otherwise place the
			// measured hot footprint (software-managed placement of the
			// live part, standard scratchpad practice).
			size := int(s.RegionBytes)
			if size > cfg.SRAMLimit && int(s.FootprintBytes) <= cfg.SRAMLimit/4 {
				size = int(s.FootprintBytes)
			}
			if size <= cfg.SRAMLimit {
				out = append(out, customCandidate{
					ds:    s.DS,
					label: "sram:" + s.Name,
					build: func() mem.Module { return mem.MustSRAM(size) },
				})
			}
		}
	}
	return out
}

// selectFront returns the cost/miss-ratio pareto front thinned to at
// most maxSel points, spread evenly along the front (keeping the
// endpoints), as the paper's Figure 3 selection does.
func selectFront(all []DesignPoint, maxSel int) []DesignPoint {
	points := make([]pareto.Point, len(all))
	for i, dp := range all {
		points[i] = pareto.Point{
			Label:   dp.Arch.Name,
			Cost:    dp.Gates,
			Latency: dp.MissRatio,
			Energy:  dp.OffChipBytesPerAccess,
			Meta:    i,
		}
	}
	front := pareto.Front(points, pareto.Cost, pareto.Latency)
	picked := thin(front, maxSel)
	out := make([]DesignPoint, 0, len(picked))
	for _, p := range picked {
		out = append(out, all[p.Meta.(int)])
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Gates < out[j].Gates })
	return out
}

// thin keeps at most n points of a front, including both endpoints,
// evenly spaced by index.
func thin(front []pareto.Point, n int) []pareto.Point {
	if len(front) <= n {
		return front
	}
	if n == 1 {
		return front[:1]
	}
	out := make([]pareto.Point, 0, n)
	for i := 0; i < n; i++ {
		idx := i * (len(front) - 1) / (n - 1)
		out = append(out, front[idx])
	}
	// Deduplicate indices that collided.
	dedup := out[:1]
	for _, p := range out[1:] {
		if p != dedup[len(dedup)-1] {
			dedup = append(dedup, p)
		}
	}
	return dedup
}
