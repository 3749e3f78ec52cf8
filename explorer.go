package memorex

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"memorex/internal/apex"
	"memorex/internal/btcache"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/explore"
	"memorex/internal/obs"
	"memorex/internal/profile"
	"memorex/internal/sampling"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// Observability types re-exported for Explorer users.
type (
	// Observer fans exploration events out to sinks; build one with
	// NewObserver and attach it with WithObserver. A nil Observer is the
	// disabled observer and costs nothing on the evaluation hot path.
	Observer = obs.Observer
	// Event is one entry of the structured exploration event stream.
	Event = obs.Event
	// EventSink consumes events (JSONL writer, in-memory ring, progress
	// line — see NewJSONLSink, NewRingSink, NewProgressSink).
	EventSink = obs.Sink
	// MetricsSnapshot is a point-in-time copy of the exploration metrics
	// registry: counters, gauges and latency-histogram stats.
	MetricsSnapshot = obs.Snapshot
	// HistogramStats summarizes one latency histogram (count, mean,
	// p50/p95/p99).
	HistogramStats = obs.HistogramStats
	// RingSink retains the last n events in memory; its Events method
	// returns them oldest-first (tests, postmortem inspection).
	RingSink = obs.Ring
	// TraceCacheStats is a snapshot of the persistent behavior-trace
	// cache counters (see WithTraceCache).
	TraceCacheStats = btcache.Stats
)

// Event kinds of the structured stream.
const (
	KindRunStart       = obs.KindRunStart
	KindRunEnd         = obs.KindRunEnd
	KindPhaseStart     = obs.KindPhaseStart
	KindPhaseEnd       = obs.KindPhaseEnd
	KindTrace          = obs.KindTrace
	KindAPEX           = obs.KindAPEX
	KindEval           = obs.KindEval
	KindPrune          = obs.KindPrune
	KindEstimatorError = obs.KindEstimatorError
)

// NewObserver builds an observer over the given sinks. With no live
// sinks it returns nil — the disabled observer.
func NewObserver(sinks ...EventSink) *Observer { return obs.NewObserver(sinks...) }

// NewEngineWithObservability returns an evaluation engine with the
// given observer and a fresh metrics registry attached, for sharing an
// instrumented engine across Explorers (see WithEngine).
func NewEngineWithObservability(workers int, o *Observer) *Engine {
	return engine.New(workers, engine.WithObserver(o), engine.WithMetrics(obs.NewRegistry()))
}

// NewJSONLSink streams events to w as JSON Lines, one event per line;
// decode the stream with DecodeEvents.
func NewJSONLSink(w io.Writer) EventSink { return obs.NewJSONL(w) }

// NewRingSink retains the last n events in memory.
func NewRingSink(n int) *RingSink { return obs.NewRing(n) }

// NewProgressSink repaints a single-line terminal progress display,
// refreshed every `every` evaluations (0 = a sensible default).
func NewProgressSink(w io.Writer, every int) EventSink { return obs.NewProgress(w, every) }

// DecodeEvents parses a JSONL event stream written by NewJSONLSink.
func DecodeEvents(r io.Reader) ([]Event, error) { return obs.DecodeJSONL(r) }

// Explorer is a reusable handle on the full exploration pipeline:
// trace generation, profiling, APEX memory-modules exploration and
// ConEx connectivity exploration. It owns the evaluation engine (so
// repeated runs share the memoization cache), the metrics registry,
// and the observer that streams structured events. Build one with
// NewExplorer and functional options; the zero-option Explorer runs
// the paper-reproduction defaults.
//
// An Explorer is safe for use from multiple goroutines: the engine
// serializes shared state and the observer is internally locked.
type Explorer struct {
	wl      workload.Config
	apexCfg apex.Config
	conex   core.Config // Engine field set to eng
	eng     *engine.Engine
	obs     *obs.Observer
	reg     *obs.Registry
	cache   *btcache.Cache // nil without WithTraceCache

	closeOnce sync.Once
	closeErr  error
}

// explorerConfig accumulates the functional options before
// normalization.
type explorerConfig struct {
	wl       workload.Config
	apexCfg  apex.Config
	conexCfg core.Config
	workers  int
	engine   *engine.Engine
	observer *obs.Observer
	sinks    []obs.Sink
	cacheDir string
	cacheCap int64
}

// ExplorerOption configures an Explorer. Options are applied in order;
// later options win.
type ExplorerOption func(*explorerConfig)

// WithWorkers bounds evaluation parallelism (0 = all CPUs). Ignored
// when WithEngine supplies an engine, whose own bound wins.
func WithWorkers(n int) ExplorerOption {
	return func(c *explorerConfig) { c.workers = n }
}

// WithEngine shares an existing evaluation engine (and its memoization
// cache) with this Explorer. The engine's own observer and metrics
// registry win; combining WithEngine with WithObserver or
// WithEventSinks is an error because an engine's instrumentation is
// fixed at construction.
func WithEngine(e *Engine) ExplorerOption {
	return func(c *explorerConfig) { c.engine = e }
}

// WithObserver attaches a pre-built observer. Passing nil (the
// disabled observer) is allowed and equivalent to omitting the option.
func WithObserver(o *Observer) ExplorerOption {
	return func(c *explorerConfig) { c.observer = o }
}

// WithEventSinks builds the Explorer's observer from the given sinks;
// a convenience over WithObserver(NewObserver(sinks...)). Repeated
// uses accumulate sinks.
func WithEventSinks(sinks ...EventSink) ExplorerOption {
	return func(c *explorerConfig) { c.sinks = append(c.sinks, sinks...) }
}

// WithTraceCache persists Phase A behavior traces in dir: captures are
// written through to disk and later Explorers (including in other
// processes) sharing the directory warm-start from it instead of
// re-simulating the memory modules. Entries are fully validated on
// load — a damaged entry is quarantined and recaptured, never served.
// Combining with WithEngine is an error because an engine's cache is
// fixed at construction; attach the cache to the engine instead.
func WithTraceCache(dir string) ExplorerOption {
	return func(c *explorerConfig) { c.cacheDir = dir }
}

// WithTraceCacheLimit bounds the trace cache's on-disk size in bytes;
// least-recently-used entries are evicted beyond it. 0 (the default)
// means unbounded. Only meaningful together with WithTraceCache.
func WithTraceCacheLimit(bytes int64) ExplorerOption {
	return func(c *explorerConfig) { c.cacheCap = bytes }
}

// WithWorkloadConfig sets the benchmark scaling. The zero config means
// the paper-reproduction defaults; partially invalid configs surface
// as a NewExplorer error.
func WithWorkloadConfig(cfg WorkloadConfig) ExplorerOption {
	return func(c *explorerConfig) { c.wl = cfg }
}

// WithAPEXConfig replaces the memory-modules sweep. The zero config
// means the paper-reproduction defaults.
func WithAPEXConfig(cfg APEXConfig) ExplorerOption {
	return func(c *explorerConfig) { c.apexCfg = cfg }
}

// WithConExConfig replaces the connectivity-exploration config. The
// zero config means the paper-reproduction defaults. Its Engine field,
// when set, acts like WithEngine.
func WithConExConfig(cfg ConExConfig) ExplorerOption {
	return func(c *explorerConfig) { c.conexCfg = cfg }
}

// WithSampling sets the Phase I time-sampling plan.
func WithSampling(cfg SamplingConfig) ExplorerOption {
	return func(c *explorerConfig) { c.conexCfg.Sampling = cfg }
}

// WithLibrary sets the connectivity IP library ConEx maps channels
// onto.
func WithLibrary(lib []ConnComponent) ExplorerOption {
	return func(c *explorerConfig) { c.conexCfg.Library = lib }
}

// WithKeepPerArch sets how many locally promising designs each memory
// architecture contributes to Phase II full simulation.
func WithKeepPerArch(n int) ExplorerOption {
	return func(c *explorerConfig) { c.conexCfg.KeepPerArch = n }
}

// WithAssignCap caps the connectivity assignments enumerated per
// clustering level (0 = exhaustive).
func WithAssignCap(n int) ExplorerOption {
	return func(c *explorerConfig) { c.conexCfg.MaxAssignPerLevel = n }
}

// NewExplorer builds an Explorer. Configuration is validated here, in
// one place: zero configs become the paper-reproduction defaults,
// while explicitly invalid values are reported as errors instead of
// being silently replaced.
func NewExplorer(opts ...ExplorerOption) (*Explorer, error) {
	var c explorerConfig
	for _, opt := range opts {
		opt(&c)
	}

	wl, err := c.wl.Normalize()
	if err != nil {
		return nil, fmt.Errorf("memorex: %w", err)
	}
	apexCfg, err := c.apexCfg.Normalize()
	if err != nil {
		return nil, fmt.Errorf("memorex: %w", err)
	}
	conexCfg, err := c.conexCfg.Normalize()
	if err != nil {
		return nil, fmt.Errorf("memorex: %w", err)
	}

	observer := c.observer
	if len(c.sinks) > 0 {
		if observer != nil {
			return nil, fmt.Errorf("memorex: WithObserver and WithEventSinks are mutually exclusive")
		}
		observer = obs.NewObserver(c.sinks...)
	}

	eng := c.engine
	if eng == nil {
		eng = conexCfg.Engine
	}
	var reg *obs.Registry
	var cache *btcache.Cache
	if eng == nil {
		reg = obs.NewRegistry()
		workers := c.workers
		if workers == 0 {
			workers = conexCfg.Workers
		}
		engOpts := []engine.Option{engine.WithObserver(observer), engine.WithMetrics(reg)}
		if c.cacheDir != "" {
			var cacheOpts []btcache.Option
			if c.cacheCap > 0 {
				cacheOpts = append(cacheOpts, btcache.WithLimit(c.cacheCap))
			}
			cacheOpts = append(cacheOpts, btcache.WithMetrics(reg))
			var err error
			cache, err = btcache.Open(c.cacheDir, cacheOpts...)
			if err != nil {
				return nil, fmt.Errorf("memorex: %w", err)
			}
			engOpts = append(engOpts, engine.WithBehaviorCache(cache))
		}
		eng = engine.New(workers, engOpts...)
	} else {
		if c.cacheDir != "" {
			return nil, fmt.Errorf("memorex: WithEngine and WithTraceCache are mutually exclusive; attach the cache when building the engine (engine.WithBehaviorCache)")
		}
		// A supplied engine carries its own instrumentation, fixed at
		// construction; a second observer would silently miss the
		// per-evaluation events, so reject the combination outright.
		if observer != nil {
			return nil, fmt.Errorf("memorex: WithEngine and WithObserver/WithEventSinks are mutually exclusive; attach the observer when building the engine")
		}
		observer = eng.Observer()
		reg = eng.Metrics()
	}
	conexCfg.Engine = eng

	return &Explorer{
		wl:      wl,
		apexCfg: apexCfg,
		conex:   conexCfg,
		eng:     eng,
		obs:     observer,
		reg:     reg,
		cache:   cache,
	}, nil
}

// Options returns the effective (normalized) configuration the
// Explorer runs with, in the legacy Options form.
func (x *Explorer) Options() Options {
	return Options{WorkloadConfig: x.wl, APEX: x.apexCfg, ConEx: x.conex}
}

// Engine returns the Explorer's evaluation engine, for sharing its
// memoization cache with other explorations.
func (x *Explorer) Engine() *Engine { return x.eng }

// Observer returns the Explorer's observer (nil when event streaming
// is disabled).
func (x *Explorer) Observer() *Observer { return x.obs }

// Stats returns a snapshot of the evaluation-engine counters,
// cumulative over every run of this Explorer.
func (x *Explorer) Stats() EngineStats { return x.eng.Stats() }

// TraceCacheStats returns a snapshot of the persistent behavior-trace
// cache counters, and whether a cache is attached (see WithTraceCache).
func (x *Explorer) TraceCacheStats() (TraceCacheStats, bool) {
	if x.cache == nil {
		return TraceCacheStats{}, false
	}
	return x.cache.Stats(), true
}

// MetricsSnapshot returns a point-in-time copy of the metrics
// registry, cumulative over every run of this Explorer.
func (x *Explorer) MetricsSnapshot() MetricsSnapshot { return x.reg.Snapshot() }

// Close flushes and closes the observer's sinks. Runs after Close lose
// their events but are otherwise unaffected. Close is idempotent and
// safe for concurrent use — a draining service may call it from a
// signal handler while submitted runs are still finishing; every call
// returns the first call's result.
func (x *Explorer) Close() error {
	x.closeOnce.Do(func() { x.closeErr = x.obs.Close() })
	return x.closeErr
}

// Explore runs the full pipeline on the named benchmark. The context
// cancels the exploration between design-point evaluations. It is
// shorthand for Do with a benchmark-only request.
func (x *Explorer) Explore(ctx context.Context, benchmark string) (*Report, error) {
	return x.Do(ctx, ExploreRequest{Benchmark: benchmark})
}

// ExploreTrace runs profiling, APEX and ConEx on an existing trace
// (the trace's own Name labels the run in events and reports). It is
// shorthand for Do with a trace-only request.
func (x *Explorer) ExploreTrace(ctx context.Context, t *Trace) (*Report, error) {
	return x.Do(ctx, ExploreRequest{Trace: t})
}

// Do runs one exploration request. It is the single code path behind
// every public entry point — Explore, ExploreTrace and the memorexd job
// API all build an ExploreRequest and land here.
//
// The request is validated, then resolved against the Explorer's own
// configuration: nil config blocks inherit the Explorer's settings,
// present blocks override them for this request only. All evaluations
// go through the Explorer's shared engine, so identical requests —
// concurrent or sequential, from any submitter — share behavior
// captures, memoized design points and the persistent trace cache.
// When the request carries a JobID, the run-level events it emits are
// stamped with it for per-job routing (see obs.Router).
func (x *Explorer) Do(ctx context.Context, req ExploreRequest) (*Report, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	wl, apexCfg, conexCfg, err := x.resolve(req)
	if err != nil {
		return nil, err
	}

	t := req.Trace
	if t == nil {
		if t, err = GenerateTrace(req.Benchmark, wl); err != nil {
			return nil, err
		}
	}
	benchmark := benchmarkLabel(req.Benchmark, t)

	if ctx == nil {
		ctx = context.Background()
	}
	if t.NumAccesses() == 0 {
		return nil, fmt.Errorf("memorex: empty trace")
	}
	// Strategy was validated above; empty means the paper's pruned
	// two-phase driver.
	strategy := explore.Pruned
	if req.Strategy != "" {
		strategy, _ = explore.ParseStrategy(req.Strategy)
	}

	o := x.obs.ForJob(req.JobID)
	start := time.Now()
	o.RunStart(benchmark, int64(t.NumAccesses()))
	o.TraceGenerated(benchmark, int64(t.NumAccesses()), len(t.DS))
	rep, err := x.run(ctx, o, benchmark, t, wl, apexCfg, conexCfg, strategy)
	o.RunEnd(benchmark, time.Since(start), err)
	if err != nil {
		return nil, err
	}
	for _, c := range req.Constraints {
		rep.Selections = append(rep.Selections, c.apply(rep))
	}
	rep.Metrics = x.reg.Snapshot()
	return rep, nil
}

// resolve merges a validated request over the Explorer's configuration:
// absent blocks inherit, present blocks are normalized and win.
func (x *Explorer) resolve(req ExploreRequest) (workload.Config, apex.Config, core.Config, error) {
	wl, apexCfg, conexCfg := x.wl, x.apexCfg, x.conex
	var err error
	if req.Workload != nil {
		if wl, err = req.Workload.Normalize(); err != nil {
			return wl, apexCfg, conexCfg, fmt.Errorf("memorex: %w", err)
		}
	}
	if req.APEX != nil {
		if apexCfg, err = req.APEX.Normalize(); err != nil {
			return wl, apexCfg, conexCfg, fmt.Errorf("memorex: %w", err)
		}
	}
	if req.Sampling != nil {
		if conexCfg.Sampling, err = req.Sampling.Normalize(); err != nil {
			return wl, apexCfg, conexCfg, fmt.Errorf("memorex: %w", err)
		}
	}
	if req.Library != nil {
		conexCfg.Library = req.Library
	}
	if req.KeepPerArch > 0 {
		conexCfg.KeepPerArch = req.KeepPerArch
	}
	if req.MaxAssignPerLevel != nil {
		conexCfg.MaxAssignPerLevel = *req.MaxAssignPerLevel
	}
	if req.Search != nil {
		conexCfg.Search = *req.Search
	}
	return wl, apexCfg, conexCfg, nil
}

func (x *Explorer) run(ctx context.Context, o *obs.Observer, benchmark string, t *trace.Trace,
	wl workload.Config, apexCfg apex.Config, conexCfg core.Config, strategy explore.Strategy) (*Report, error) {
	prof := profile.Analyze(t)
	apexRes, err := apex.ExploreContext(ctx, t, prof, apexCfg, x.eng.Workers())
	if err != nil {
		return nil, fmt.Errorf("memorex: APEX failed: %w", err)
	}
	o.APEXSelected(len(apexRes.All), len(apexRes.Selected))
	opt := Options{Workload: benchmark, WorkloadConfig: wl, APEX: apexCfg, ConEx: conexCfg}
	rep := &Report{Options: opt, Trace: t, Profile: prof, APEX: apexRes}

	if strategy == explore.Pruned {
		// The paper's two-phase algorithm keeps its dedicated code path
		// (per-architecture pruning events, Phase I/II result split).
		// Each BRG comes from the memory-only result APEX scored the
		// architecture with.
		brgs := make([]*core.BRG, 0, len(apexRes.Selected))
		for _, dp := range apexRes.Selected {
			brgs = append(brgs, core.NewBRG(dp.Arch, dp.MemOnly))
		}
		conexRes, err := core.ExploreBRGs(ctx, t, brgs, conexCfg)
		if err != nil {
			return nil, fmt.Errorf("memorex: ConEx failed: %w", err)
		}
		rep.ConEx = conexRes
		return rep, nil
	}

	// Every other strategy (full, neighborhood, ga, sa) walks the
	// combined space through the explore drivers on the shared engine,
	// and its outcome is folded into the same Result shape the report
	// pipeline consumes.
	before := x.eng.Stats()
	sp := explore.BuildSpace(apexRes)
	out, err := explore.Run(ctx, t, sp, strategy, conexCfg)
	if err != nil {
		return nil, fmt.Errorf("memorex: %s exploration failed: %w", strategy, err)
	}
	res := &core.Result{Combined: out.Points, Stats: out.Stats}
	res.EstimatedAccesses = out.Stats.SampledAccesses - before.SampledAccesses
	res.SimulatedAccesses = out.Stats.FullAccesses - before.FullAccesses
	res.CacheHits = out.Stats.CacheHits - before.CacheHits
	for _, p := range out.Front {
		res.CostPerfFront = append(res.CostPerfFront, *p.Meta.(*core.DesignPoint))
	}
	o.Prune("cost-perf-front", "", len(res.Combined), len(res.CostPerfFront), 0)
	rep.ConEx = res
	rep.Search = out.Search
	return rep, nil
}

// SamplingDefault returns the paper's 1:9 time-sampling configuration.
func SamplingDefault() SamplingConfig { return sampling.DefaultConfig() }
