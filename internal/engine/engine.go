// Package engine is the unified design-point evaluation layer of
// MemorEx. Every caller that needs the (cost, latency, energy) figures
// of a (memory architecture, connectivity architecture) pair — the core
// ConEx phases, the exploration strategy drivers, the experiment
// harness and the CLIs — routes its evaluations through one Engine.
//
// The engine owns three concerns the callers used to hand-roll:
//
//   - bounded parallelism: each Evaluate call runs on at most Workers
//     worker slots of its own (concurrent calls, like memorexd's jobs
//     on its one engine, each get Workers), held only by captures,
//     disk loads and replays, with context.Context cancellation
//     plumbed through every batch;
//   - a memoization cache keyed by a stable fingerprint of
//     (trace, memory architecture, connectivity architecture,
//     sampled-vs-full), so a design estimated in ConEx Phase I or seen
//     by a sibling strategy or experiment is never simulated twice;
//   - evaluation statistics (simulations run, cache hits, sampled and
//     full access counts, wall time per named phase), counted once in
//     the engine's metrics registry and surfaced through the report
//     writer and the memorex/paperbench CLIs.
//
// Results of a batch are always returned in submission order, so pareto
// fronts derived from them are byte-identical regardless of the worker
// count.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"memorex/internal/btcache"
	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/sampling"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// Mode selects the evaluation fidelity of a request.
type Mode int

// Evaluation modes.
const (
	// Sampled evaluates with the time-sampling estimator (Phase I).
	Sampled Mode = iota
	// Full runs the full, non-sampled simulation (Phase II).
	Full
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case Sampled:
		return "sampled"
	case Full:
		return "full"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// Request asks for the evaluation of one design point.
type Request struct {
	// Trace is the memory-access trace to replay.
	Trace *trace.Trace
	// Mem is the memory-modules architecture.
	Mem *mem.Architecture
	// Conn is the connectivity architecture.
	Conn *connect.Arch
	// Mode selects sampled estimation or full simulation.
	Mode Mode
	// Sampling configures the estimator; used only when Mode is
	// Sampled (and part of the memoization key then).
	Sampling sampling.Config
	// Phase optionally attributes the evaluation to a named phase in
	// the engine statistics.
	Phase string
}

// Value is the outcome of one evaluation.
type Value struct {
	// Cost is the total on-chip area in gates (memory + connectivity).
	Cost float64
	// Latency is the average memory latency in cycles per access.
	Latency float64
	// Energy is the average energy in nJ per access.
	Energy float64
	// Estimated is true for Sampled-mode figures.
	Estimated bool
	// Work is the number of trace accesses actually simulated to
	// produce this value; 0 when it was served from the memo cache.
	Work int64
	// Hit reports whether the value came from the memo cache.
	Hit bool
}

// PhaseStat accumulates the evaluation activity of one named phase.
type PhaseStat struct {
	Name string
	// Wall is the accumulated wall-clock time spent inside the phase
	// (StartPhase..stop brackets).
	Wall time.Duration
	// Requests and Simulations count the evaluations attributed to the
	// phase via Request.Phase, and how many of them actually ran a
	// simulator (the rest were cache hits).
	Requests    int64
	Simulations int64
}

// Stats is a snapshot of the engine counters. Every counter is a read
// of the engine's metrics registry (see WithMetrics), the one place the
// engine counts anything, so Stats and a registry snapshot taken at the
// same quiet moment agree field for field. Engines given one shared
// registry therefore share these counters too; no production caller
// shares a registry between engines. Phases alone is kept by the
// engine, since the registry has no per-phase counters.
type Stats struct {
	// Requests counts the valid requests asked of the engine, each
	// once, when Evaluate claims it (engine/evaluations): a request
	// later cancelled or failed still counts.
	Requests int64
	// Simulations counts the evaluations that actually ran a simulator
	// (sampled or full); of the rest, CacheHits were answered from the
	// memo cache and the remainder failed or were cancelled.
	Simulations int64
	CacheHits   int64
	// SampledSimulations / FullSimulations split Simulations by mode:
	// the counts of engine/eval_wall_us/{sampled,full}.
	SampledSimulations int64
	FullSimulations    int64
	// SampledAccesses / FullAccesses count the trace accesses actually
	// simulated in each mode (the exploration's work measure).
	SampledAccesses int64
	FullAccesses    int64
	// BehaviorCaptures counts Phase A module-behavior runs;
	// BehaviorCacheHits counts evaluations (or batch dispatches) whose
	// replay reused an already-captured event trace; BehaviorDiskHits
	// counts captures avoided by loading the persistent behavior-trace
	// cache instead.
	BehaviorCaptures  int64
	BehaviorCacheHits int64
	BehaviorDiskHits  int64
	// BatchReplays counts ReplayBatch dispatches
	// (engine/batch/dispatches) and BatchedEvals the evaluations they
	// served (the sum of engine/batch/size).
	BatchReplays int64
	BatchedEvals int64
	// Phases lists per-phase wall times and counters in first-use
	// order.
	Phases []PhaseStat
}

// String renders the snapshot as a compact one-or-two-line summary for
// the CLIs.
func (s Stats) String() string {
	out := fmt.Sprintf("engine: %d evaluations, %d simulations (%d sampled + %d full), %d cache hits; %d sampled + %d full accesses",
		s.Requests, s.Simulations, s.SampledSimulations, s.FullSimulations,
		s.CacheHits, s.SampledAccesses, s.FullAccesses)
	if s.BehaviorCaptures > 0 || s.BehaviorCacheHits > 0 || s.BehaviorDiskHits > 0 {
		out += fmt.Sprintf("; %d behavior captures, %d behavior reuses",
			s.BehaviorCaptures, s.BehaviorCacheHits)
		if s.BehaviorDiskHits > 0 {
			out += fmt.Sprintf(", %d disk hits", s.BehaviorDiskHits)
		}
	}
	if s.BatchReplays > 0 {
		out += fmt.Sprintf("; %d batch replays covering %d evals",
			s.BatchReplays, s.BatchedEvals)
	}
	for _, p := range s.Phases {
		out += fmt.Sprintf("\n  phase %-18s %10v  %6d evals  %6d sims",
			p.Name, p.Wall.Round(time.Millisecond), p.Requests, p.Simulations)
	}
	return out
}

// DefaultWorkers is the canonical parallelism default used everywhere a
// worker count of 0 is configured.
func DefaultWorkers() int { return runtime.GOMAXPROCS(0) }

// entry is one memoization slot. The first requester computes the value
// while concurrent duplicates wait on done (single-flight).
type entry struct {
	done chan struct{}
	val  Value
	err  error
}

// behaviorEntry is one Phase A memoization slot (single-flight, like
// entry): the captured module-behavior event trace of one
// (trace, memory architecture, sampling plan).
type behaviorEntry struct {
	done chan struct{}
	bt   *sim.BehaviorTrace
	work int64
	err  error
}

// Engine is the shared evaluator. It is safe for concurrent use; one
// engine can (and should) be shared across exploration phases,
// strategies and experiments so the memo cache works across them.
type Engine struct {
	workers int

	// obs is the optional event observer (nil-safe: a nil observer
	// costs one nil check per use and never allocates). metrics is the
	// registry that holds every engine counter, never nil; m caches its
	// instrument handles.
	obs     *obs.Observer
	metrics *obs.Registry
	m       instruments

	// disk is the optional persistent behavior-trace cache, consulted
	// between the in-memory memo and a Phase A capture. Nil-safe: a nil
	// cache is always a miss and swallows Puts.
	disk *btcache.Cache

	mu       sync.Mutex
	cache    map[uint64]*entry
	behavior map[uint64]*behaviorEntry
	phases   []PhaseStat
	phase    map[string]int // phase name -> index into phases
}

// instruments caches the engine's metrics-registry handles so the per-
// evaluation path never pays a name lookup.
type instruments struct {
	evals, sims, hits   *obs.Counter
	sampledAcc, fullAcc *obs.Counter
	captures, capReuse  *obs.Counter
	diskHits            *obs.Counter
	schedIssues         *obs.Counter
	schedConflicts      *obs.Counter
	samplingWindows     *obs.Counter
	samplingOnAcc       *obs.Counter
	evalWallSampled     *obs.Histogram
	evalWallFull        *obs.Histogram
	batches             *obs.Counter
	batchSize           *obs.Histogram
	batchWall           *obs.Histogram
}

// Option configures an Engine beyond its worker bound.
type Option func(*Engine)

// WithObserver attaches a structured-event observer: the engine emits
// one obs.KindEval event per evaluation (including cache hits) and
// phase start/end events from StartPhase. A nil observer is the
// explicit "off" value.
func WithObserver(o *obs.Observer) Option {
	return func(e *Engine) { e.obs = o }
}

// WithMetrics sets the metrics registry the engine counts in:
// evaluation counters, per-mode wall-time histograms, scheduler
// contention and sampling-plan counters. Without it (or with a nil
// registry) the engine counts in a private registry of its own.
func WithMetrics(r *obs.Registry) Option {
	return func(e *Engine) { e.metrics = r }
}

// WithBehaviorCache attaches a persistent behavior-trace cache. Before
// running a Phase A capture the engine consults the cache under the
// request's behavior fingerprint, and after a capture it persists the
// result, so later processes (or engines sharing the directory) warm-
// start without simulating the memory modules at all. A nil cache is
// the explicit "off" value.
func WithBehaviorCache(c *btcache.Cache) Option {
	return func(e *Engine) { e.disk = c }
}

// New returns an engine bounded to the given worker count
// (0 or negative = DefaultWorkers).
func New(workers int, opts ...Option) *Engine {
	if workers <= 0 {
		workers = DefaultWorkers()
	}
	e := &Engine{
		workers:  workers,
		cache:    map[uint64]*entry{},
		behavior: map[uint64]*behaviorEntry{},
		phase:    map[string]int{},
	}
	for _, opt := range opts {
		opt(e)
	}
	if e.metrics == nil {
		e.metrics = obs.NewRegistry()
	}
	e.m = instruments{
		evals:           e.metrics.Counter("engine/evaluations"),
		sims:            e.metrics.Counter("engine/simulations"),
		hits:            e.metrics.Counter("engine/cache_hits"),
		sampledAcc:      e.metrics.Counter("engine/sampled_accesses"),
		fullAcc:         e.metrics.Counter("engine/full_accesses"),
		captures:        e.metrics.Counter("engine/behavior_captures"),
		capReuse:        e.metrics.Counter("engine/behavior_reuses"),
		diskHits:        e.metrics.Counter("engine/behavior_disk_hits"),
		schedIssues:     e.metrics.Counter("rtable/issues"),
		schedConflicts:  e.metrics.Counter("rtable/conflicts"),
		samplingWindows: e.metrics.Counter("sampling/windows"),
		samplingOnAcc:   e.metrics.Counter("sampling/on_accesses"),
		evalWallSampled: e.metrics.Histogram("engine/eval_wall_us/sampled"),
		evalWallFull:    e.metrics.Histogram("engine/eval_wall_us/full"),
		batches:         e.metrics.Counter("engine/batch/dispatches"),
		batchSize:       e.metrics.Histogram("engine/batch/size"),
		batchWall:       e.metrics.Histogram("engine/batch/wall_us"),
	}
	e.metrics.Gauge("engine/workers").Set(float64(workers))
	return e
}

// Workers returns the engine's parallelism bound: the worker slots
// each Evaluate call gets.
func (e *Engine) Workers() int { return e.workers }

// Observer returns the engine's event observer (nil when detached).
func (e *Engine) Observer() *obs.Observer { return e.obs }

// Metrics returns the engine's metrics registry: the one given to
// WithMetrics, or the engine's private registry.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// Stats returns a snapshot of the engine counters, read from the
// metrics registry.
func (e *Engine) Stats() Stats {
	m := &e.m
	s := Stats{
		Requests:           m.evals.Value(),
		Simulations:        m.sims.Value(),
		CacheHits:          m.hits.Value(),
		SampledSimulations: m.evalWallSampled.Count(),
		FullSimulations:    m.evalWallFull.Count(),
		SampledAccesses:    m.sampledAcc.Value(),
		FullAccesses:       m.fullAcc.Value(),
		BehaviorCaptures:   m.captures.Value(),
		BehaviorCacheHits:  m.capReuse.Value(),
		BehaviorDiskHits:   m.diskHits.Value(),
		BatchReplays:       m.batches.Value(),
		BatchedEvals:       int64(m.batchSize.Sum()),
	}
	e.mu.Lock()
	s.Phases = append([]PhaseStat(nil), e.phases...)
	e.mu.Unlock()
	return s
}

// StartPhase starts (or resumes) the wall-clock timer of a named phase
// and returns the function that stops it. Phases appear in the stats in
// first-use order.
func (e *Engine) StartPhase(name string) (stop func()) {
	e.obs.PhaseStart(name)
	start := time.Now()
	var once sync.Once
	return func() {
		once.Do(func() {
			d := time.Since(start)
			e.mu.Lock()
			e.phaseLocked(name).Wall += d
			e.mu.Unlock()
			e.obs.PhaseEnd(name, d)
		})
	}
}

// phaseLocked returns the phase slot for name, creating it if needed.
// Callers must hold e.mu.
func (e *Engine) phaseLocked(name string) *PhaseStat {
	if i, ok := e.phase[name]; ok {
		return &e.phases[i]
	}
	e.phase[name] = len(e.phases)
	e.phases = append(e.phases, PhaseStat{Name: name})
	return &e.phases[len(e.phases)-1]
}

// EvaluateOne evaluates a single request through the pool and cache.
func (e *Engine) EvaluateOne(ctx context.Context, req Request) (Value, error) {
	vals, err := e.Evaluate(ctx, []Request{req})
	if err != nil {
		return Value{}, err
	}
	return vals[0], nil
}

// finishOwned publishes an owned memo entry: failures are dropped from
// the cache (never memoized) before the entry's waiters are released.
func (e *Engine) finishOwned(key uint64, ent *entry, v Value, err error) {
	if err != nil {
		ent.err = err
		e.mu.Lock()
		delete(e.cache, key)
		e.mu.Unlock()
	} else {
		ent.val = v
	}
	close(ent.done)
}

// emitEval publishes the per-evaluation observer event.
func (e *Engine) emitEval(r Request, v Value, wall time.Duration) {
	if !e.obs.Enabled() {
		return
	}
	e.obs.Eval(obs.Evaluation{
		Phase:     r.Phase,
		Mem:       r.Mem.Name,
		Conn:      r.Conn.Describe(r.Mem),
		Cost:      v.Cost,
		Latency:   v.Latency,
		Energy:    v.Energy,
		Estimated: v.Estimated,
		CacheHit:  v.Hit,
		Work:      v.Work,
		Wall:      wall,
	})
}

// awaitHit waits for the owning computation of an already-claimed memo
// entry and returns its value as a cache hit.
func (e *Engine) awaitHit(ctx context.Context, r Request, ent *entry) (Value, error) {
	start := time.Now()
	select {
	case <-ent.done:
	case <-ctx.Done():
		return Value{}, ctx.Err()
	}
	if ent.err != nil {
		return Value{}, ent.err
	}
	v := ent.val
	v.Work = 0
	v.Hit = true
	e.m.hits.Inc()
	e.emitEval(r, v, time.Since(start))
	return v, nil
}

// behaviorTrace returns the Phase A event trace of a request whose
// behavior key is key, for uses chunks that will replay it. A trace
// already held, or being resolved by another owner in this call or a
// concurrent one, is waited for without a worker slot, and every use
// counts as a behavior reuse. Otherwise the caller takes a slot from
// sem, claims the trace, loads it from the persistent cache or
// captures it, and frees the slot; every use but one counts as a
// reuse, and lead is the time the resolution took in the slot. The
// returned store, non-nil only after a fresh capture, writes the trace
// through to the persistent cache and is left to the caller to run.
func (e *Engine) behaviorTrace(ctx context.Context, key uint64, r Request, sem chan struct{}, uses int) (bt *sim.BehaviorTrace, lead time.Duration, store func(), err error) {
	e.mu.Lock()
	ent, held := e.behavior[key]
	e.mu.Unlock()
	if !held {
		// The slot is taken before the claim, so a claimed entry is
		// always being resolved and never fails on this call's
		// cancellation.
		select {
		case sem <- struct{}{}:
		case <-ctx.Done():
			return nil, 0, nil, ctx.Err()
		}
		if err := ctx.Err(); err != nil {
			<-sem
			return nil, 0, nil, err
		}
		e.mu.Lock()
		if ent, held = e.behavior[key]; !held {
			ent = &behaviorEntry{done: make(chan struct{})}
			e.behavior[key] = ent
		}
		e.mu.Unlock()
		if !held {
			start := time.Now()
			store = e.resolveBehavior(key, ent, r)
			lead = time.Since(start)
			<-sem
			if ent.err != nil {
				return nil, 0, nil, ent.err
			}
			e.m.capReuse.Add(int64(uses - 1))
			return ent.bt, lead, store, nil
		}
		<-sem
	}
	select {
	case <-ent.done:
	case <-ctx.Done():
		return nil, 0, nil, ctx.Err()
	}
	if ent.err != nil {
		return nil, 0, nil, ent.err
	}
	e.m.capReuse.Add(int64(uses))
	return ent.bt, 0, nil, nil
}

// resolveBehavior fills and publishes a claimed behavior entry: from
// the persistent cache when it holds a valid entry, else by a Phase A
// capture. It returns the write-through of a fresh capture, else nil.
func (e *Engine) resolveBehavior(key uint64, ent *behaviorEntry, r Request) (store func()) {
	defer close(ent.done)
	// Second layer: the persistent cache. A validated disk entry stands
	// in for the capture; any validation failure inside Get is a plain
	// miss (the damaged file is quarantined by the cache) and we fall
	// through to capturing.
	if bt, ok := e.disk.Get(key); ok {
		ent.bt = bt
		e.m.diskHits.Inc()
		return nil
	}
	ent.bt, ent.err = e.captureBehavior(r)
	if ent.err != nil {
		e.mu.Lock()
		delete(e.behavior, key) // failures are not memoized
		e.mu.Unlock()
		return nil
	}
	e.m.captures.Inc()
	// Best-effort persist: a failed write only costs a future
	// recapture and is counted by the cache's put_errors.
	bt := ent.bt
	return func() { e.disk.Put(key, bt) }
}

// captureTrace is the Phase A capture; the dispatch tests swap it to
// hold captures in flight.
var captureTrace = sim.CaptureBehavior

// captureBehavior runs Phase A for a request: the whole trace in Full
// mode, the sampling plan's on-windows in Sampled mode.
func (e *Engine) captureBehavior(r Request) (*sim.BehaviorTrace, error) {
	var windows []sim.Window
	if r.Mode == Sampled {
		if err := r.Sampling.Validate(); err != nil {
			return nil, err
		}
		windows = sampling.Plan(r.Trace.NumAccesses(), r.Sampling)
		if len(windows) == 0 {
			return nil, fmt.Errorf("sampling: empty trace")
		}
		e.m.samplingWindows.Add(int64(len(windows)))
		var on int64
		for _, w := range windows {
			on += int64(w.Hi - w.Lo)
		}
		e.m.samplingOnAcc.Add(on)
	}
	return captureTrace(r.Trace, r.Mem, windows)
}
