// Package experiments regenerates every table and figure of the paper's
// evaluation section (Figures 3, 4, 6 and Tables 1, 2) from the MemorEx
// pipeline. Each experiment returns a typed result with a String method
// that renders rows in the layout of the paper, and cmd/paperbench and
// the repository's bench_test.go drive them.
//
// Two presets exist: the Paper preset runs the spaces used for
// EXPERIMENTS.md, and the Quick preset shrinks traces and enumeration
// caps so that benchmarks and CI stay fast. Both presets share one
// evaluation engine across the figure experiments, so a design point
// simulated for Figure 4 is served from the memo cache when Figure 6 or
// the energy views revisit it. Reproduction targets are shapes (who
// wins, rough factors, crossovers), not the paper's absolute 2002 gate
// counts.
package experiments

import (
	"context"
	"fmt"
	"sync"

	"memorex/internal/apex"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/profile"
	"memorex/internal/sampling"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// Options sizes an experiment run.
type Options struct {
	// TraceLimit truncates benchmark traces (0 = full trace).
	TraceLimit int
	// APEX bounds the memory-modules space.
	APEX apex.Config
	// ConEx parameterizes the connectivity exploration. Its Engine is
	// shared across the figure experiments (set by the presets).
	ConEx core.Config
	// Table2TraceLimit truncates the Table 2 traces (the Full baseline
	// simulates every design, so it gets its own, tighter limit).
	Table2TraceLimit int
	// Table2APEX / Table2ConEx bound the Table 2 space. Table2ConEx
	// deliberately carries no shared engine: each strategy run gets a
	// private one, so the Full-vs-Pruned work comparison stays honest.
	Table2APEX  apex.Config
	Table2ConEx core.Config
}

// Engine returns the evaluation engine shared by the figure
// experiments (nil when the preset did not set one).
func (o Options) Engine() *engine.Engine { return o.ConEx.Engine }

// Paper returns the preset used to produce EXPERIMENTS.md.
func Paper() Options {
	opt := Options{
		APEX:  apex.DefaultConfig(),
		ConEx: core.DefaultConfig(),
		Table2APEX: apex.Config{
			CacheSizes:  []int{2 << 10, 8 << 10, 32 << 10},
			CacheAssocs: []int{2},
			CacheLines:  []int{32},
			MaxCustom:   2,
			SRAMLimit:   80 << 10,
			MaxSelected: 4,
		},
		Table2ConEx:      core.DefaultConfig(),
		Table2TraceLimit: 120_000,
	}
	opt.ConEx.Engine = engine.New(0)
	opt.Table2ConEx.MaxAssignPerLevel = 24
	opt.Table2ConEx.KeepPerArch = 10
	return opt
}

// Quick returns the preset used by benchmarks and CI: same structure,
// smaller traces and enumeration caps.
func Quick() Options {
	opt := Options{
		TraceLimit: 60_000,
		APEX: apex.Config{
			CacheSizes:  []int{2 << 10, 8 << 10, 32 << 10},
			CacheAssocs: []int{1, 2},
			CacheLines:  []int{32},
			MaxCustom:   2,
			SRAMLimit:   80 << 10,
			MaxSelected: 5,
		},
		ConEx: core.DefaultConfig(),
		Table2APEX: apex.Config{
			CacheSizes:  []int{2 << 10, 32 << 10},
			CacheAssocs: []int{2},
			CacheLines:  []int{32},
			MaxCustom:   1,
			SRAMLimit:   80 << 10,
			MaxSelected: 2,
		},
		Table2ConEx:      core.DefaultConfig(),
		Table2TraceLimit: 40_000,
	}
	opt.ConEx.Engine = engine.New(0)
	opt.ConEx.MaxAssignPerLevel = 48
	opt.ConEx.KeepPerArch = 6
	opt.ConEx.Sampling = sampling.Config{OnWindow: 1000, OffRatio: 9}
	opt.Table2ConEx.MaxAssignPerLevel = 12
	opt.Table2ConEx.KeepPerArch = 4
	opt.Table2ConEx.Sampling = sampling.Config{OnWindow: 1000, OffRatio: 9}
	return opt
}

// traceCache shares generated benchmark traces (and their truncated
// slices) across experiments in one process. Trace generation is
// deterministic, and reusing the same slice object lets the engine skip
// re-fingerprinting the trace between experiments.
var (
	traceMu    sync.Mutex
	traceCache = map[string]*trace.Trace{}
	sliceCache = map[string]*trace.Trace{}
)

// benchTrace returns the (possibly truncated) trace of a benchmark.
func benchTrace(name string, limit int) (*trace.Trace, error) {
	traceMu.Lock()
	defer traceMu.Unlock()
	t, ok := traceCache[name]
	if !ok {
		w, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		t = w.Generate(workload.DefaultConfig())
		traceCache[name] = t
	}
	if limit > 0 && limit < t.NumAccesses() {
		key := fmt.Sprintf("%s#%d", name, limit)
		s, ok := sliceCache[key]
		if !ok {
			s = t.Slice(0, limit)
			sliceCache[key] = s
		}
		return s, nil
	}
	return t, nil
}

// workers is the evaluation parallelism of a ConEx configuration: its
// engine's bound when it has one.
func workers(cfg core.Config) int {
	if cfg.Engine != nil {
		return cfg.Engine.Workers()
	}
	return cfg.Workers
}

// pipeline runs profile + APEX + ConEx for a benchmark under the given
// bounds, sharing nothing mutable beyond the evaluation engine.
func pipeline(ctx context.Context, name string, limit int, apexCfg apex.Config, conexCfg core.Config) (*trace.Trace, *apex.Result, *core.Result, error) {
	t, err := benchTrace(name, limit)
	if err != nil {
		return nil, nil, nil, err
	}
	prof := profile.Analyze(t)
	apexRes, err := apex.ExploreContext(ctx, t, prof, apexCfg, workers(conexCfg))
	if err != nil {
		return nil, nil, nil, err
	}
	brgs := make([]*core.BRG, 0, len(apexRes.Selected))
	for _, dp := range apexRes.Selected {
		brgs = append(brgs, core.NewBRG(dp.Arch, dp.MemOnly))
	}
	conexRes, err := core.ExploreBRGs(ctx, t, brgs, conexCfg)
	if err != nil {
		return nil, nil, nil, err
	}
	return t, apexRes, conexRes, nil
}
