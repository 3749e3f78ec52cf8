package core

import (
	"context"
	"fmt"

	"memorex/internal/connect"
	"memorex/internal/engine"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/pareto"
	"memorex/internal/sampling"
	"memorex/internal/sim"
	"memorex/internal/trace"
)

// DesignPoint is one evaluated memory+connectivity design.
type DesignPoint struct {
	MemArch *mem.Architecture
	Conn    *connect.Arch
	// Cost is the total on-chip area: memory modules + connectivity.
	Cost float64
	// Latency is the average memory latency in cycles per access.
	Latency float64
	// Energy is the average energy in nJ per access.
	Energy float64
	// Estimated is true for Phase I (time-sampled) figures and false
	// after Phase II full simulation.
	Estimated bool

	// label memoizes Label(). The identifying fields above are never
	// mutated after construction, so the memo is safe; being unexported
	// it is invisible to JSON encoding and lost on copy, which only
	// costs a re-format.
	label string
}

// Point converts the design to a pareto point carrying the design as
// metadata.
func (d *DesignPoint) Point() pareto.Point {
	return pareto.Point{
		Label:   d.Label(),
		Cost:    d.Cost,
		Latency: d.Latency,
		Energy:  d.Energy,
		Meta:    d,
	}
}

// Label returns a compact design identifier, memoized on first use —
// the pruning loops call it for every point on every front they build.
func (d *DesignPoint) Label() string {
	if d.label != "" {
		return d.label
	}
	if d.MemArch == nil || d.Conn == nil {
		return "(unbound design)"
	}
	d.label = fmt.Sprintf("%s | %s", d.MemArch.Name, d.Conn.Describe(d.MemArch))
	return d.label
}

// Config parameterizes the ConEx exploration.
type Config struct {
	// Library is the connectivity IP library.
	Library []connect.Component
	// Sampling configures the Phase I estimator.
	Sampling sampling.Config
	// MaxAssignPerLevel caps the assignments enumerated per clustering
	// level (bounded-enumeration heuristic).
	MaxAssignPerLevel int
	// KeepPerArch is how many locally promising designs each memory
	// architecture contributes to Phase II.
	KeepPerArch int
	// Engine, when non-nil, is the shared evaluation engine, whose
	// Workers bound the evaluation parallelism. Sharing one engine
	// across explorations lets the memoization cache elide repeated
	// simulations of equivalent designs. When nil, each Explore call
	// builds a private engine on every CPU.
	Engine *engine.Engine
	// Search parameterizes the heuristic exploration drivers (the GA
	// and SA strategies of internal/explore); the enumeration-based
	// strategies ignore it. The zero value means the defaults.
	Search SearchConfig
}

// DefaultConfig returns the configuration used by the experiments.
func DefaultConfig() Config {
	return Config{
		Library:           connect.Library(),
		Sampling:          sampling.DefaultConfig(),
		MaxAssignPerLevel: 192,
		KeepPerArch:       8,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Library) == 0 {
		return fmt.Errorf("core: empty connectivity library")
	}
	if err := c.Sampling.Validate(); err != nil {
		return err
	}
	if c.KeepPerArch <= 0 {
		return fmt.Errorf("core: KeepPerArch must be positive")
	}
	if c.MaxAssignPerLevel < 0 {
		return fmt.Errorf("core: MaxAssignPerLevel must be non-negative")
	}
	// Search is resolved lazily by the heuristic drivers (zero fields
	// mean the defaults); explicitly out-of-range knobs fail here.
	if err := c.Search.Validate(); err != nil {
		return err
	}
	return nil
}

// EngineOrNew returns the configured shared engine, or a fresh one
// on every CPU.
func (c Config) EngineOrNew() *engine.Engine {
	if c.Engine != nil {
		return c.Engine
	}
	return engine.New(0)
}

// Result is the outcome of the full ConEx exploration.
type Result struct {
	// PerArch holds the Phase I estimated points per memory
	// architecture, in evaluation order.
	PerArch [][]DesignPoint
	// Combined is the Phase II fully simulated set.
	Combined []DesignPoint
	// CostPerfFront is the global cost/latency pareto front of
	// Combined, ordered by ascending cost.
	CostPerfFront []DesignPoint
	// EstimatedAccesses and SimulatedAccesses measure the exploration
	// work (Phase I sampled accesses and Phase II full-sim accesses)
	// actually performed — designs served from the engine's memo cache
	// contribute nothing.
	EstimatedAccesses int64
	SimulatedAccesses int64
	// CacheHits counts the evaluations served from the engine's memo
	// cache during this exploration.
	CacheHits int64
	// DroppedAssignments counts assignments skipped by the enumeration
	// cap (0 = the level cross products were explored exhaustively).
	DroppedAssignments int64
	// Stats is a snapshot of the evaluation engine counters taken when
	// the exploration finished (cumulative when the engine is shared).
	Stats engine.Stats

	// pts memoizes Points(); Combined is final once the Result is built.
	pts []pareto.Point
}

// Points returns the combined designs as pareto points. The slice is
// built once and shared by subsequent calls (front extraction, report
// writing and plotting all ask for it); callers must not mutate it.
func (r *Result) Points() []pareto.Point {
	if r.pts == nil && len(r.Combined) > 0 {
		r.pts = make([]pareto.Point, len(r.Combined))
		for i := range r.Combined {
			r.pts[i] = r.Combined[i].Point()
		}
	}
	return r.pts
}

// Engine phase labels used by the ConEx loops.
const (
	phaseEstimate = "conex/estimate"
	phaseFullSim  = "conex/full-sim"
)

// ConnectivityExploration is the per-memory-architecture procedure of
// Figure 5: build the BRG, walk the clustering hierarchy, enumerate
// feasible assignments at each level, and estimate every candidate with
// time-sampled simulation. It returns all estimated design points plus
// the sampled-access work count and the number of assignments dropped
// by the enumeration cap.
func ConnectivityExploration(ctx context.Context, t *trace.Trace, arch *mem.Architecture, cfg Config) ([]DesignPoint, int64, int64, error) {
	if err := cfg.Validate(); err != nil {
		return nil, 0, 0, err
	}
	brg, err := BuildBRG(t, arch)
	if err != nil {
		return nil, 0, 0, err
	}
	points, dropped := Candidates(brg, cfg)
	work, err := estimate(ctx, cfg.EngineOrNew(), t, points, cfg)
	if err != nil {
		return nil, 0, 0, err
	}
	return points, work, dropped, nil
}

// Candidates enumerates the connectivity candidates of one memory
// architecture: the feasible assignments of every clustering level of
// its BRG, at most cfg.MaxAssignPerLevel per level, as design points
// still to be evaluated. It also returns the number of assignments the
// cap dropped.
func Candidates(brg *BRG, cfg Config) ([]DesignPoint, int64) {
	var conns []*connect.Arch
	var dropped int64
	for _, level := range Levels(brg) {
		archs, d := EnumerateAssignments(brg, level, cfg.Library, cfg.MaxAssignPerLevel)
		conns = append(conns, archs...)
		dropped += d
	}
	points := make([]DesignPoint, len(conns))
	for i, conn := range conns {
		points[i] = DesignPoint{MemArch: brg.Arch, Conn: conn}
	}
	return points, dropped
}

// estimate is Phase I's time-sampled estimation of points, in one
// engine batch timed as the estimate phase. The engine groups the
// points by behavior trace, one group per memory architecture, and
// replays each group's candidates in batches over one captured trace.
func estimate(ctx context.Context, eng *engine.Engine, t *trace.Trace, points []DesignPoint, cfg Config) (int64, error) {
	stop := eng.StartPhase(phaseEstimate)
	defer stop()
	return Evaluate(ctx, eng, t, points, engine.Sampled, cfg.Sampling, phaseEstimate)
}

// Evaluate evaluates designs through the engine in one batch and fills
// their Cost, Latency, Energy and Estimated fields in place; each
// design's MemArch and Conn must be set. s is the sampling plan of
// Sampled mode (ignored in Full mode) and phase attributes the
// evaluations in the engine statistics. It returns the trace accesses
// actually simulated; designs served from the memo cache add nothing.
func Evaluate(ctx context.Context, eng *engine.Engine, t *trace.Trace, designs []DesignPoint, mode engine.Mode, s sampling.Config, phase string) (int64, error) {
	reqs := make([]engine.Request, len(designs))
	for i := range designs {
		reqs[i] = engine.Request{
			Trace:    t,
			Mem:      designs[i].MemArch,
			Conn:     designs[i].Conn,
			Mode:     mode,
			Sampling: s,
			Phase:    phase,
		}
	}
	vals, err := eng.Evaluate(ctx, reqs)
	if err != nil {
		return 0, err
	}
	var work int64
	for i, v := range vals {
		d := &designs[i]
		d.Cost, d.Latency, d.Energy, d.Estimated = v.Cost, v.Latency, v.Energy, v.Estimated
		work += v.Work
	}
	return work, nil
}

// SelectLocal picks the locally most promising designs of one memory
// architecture: the union of the pareto fronts in the three metric
// projections, thinned to keep points.
func SelectLocal(points []DesignPoint, keep int) []DesignPoint {
	if len(points) == 0 {
		return nil
	}
	pts := make([]pareto.Point, len(points))
	for i := range points {
		pts[i] = points[i].Point()
		pts[i].Meta = i
	}
	seen := map[int]bool{}
	var picked []DesignPoint
	addFront := func(x, y pareto.Dim) {
		for _, p := range pareto.Front(pts, x, y) {
			i := p.Meta.(int)
			if !seen[i] {
				seen[i] = true
				picked = append(picked, points[i])
			}
		}
	}
	addFront(pareto.Cost, pareto.Latency)
	addFront(pareto.Latency, pareto.Energy)
	addFront(pareto.Cost, pareto.Energy)
	if len(picked) <= keep {
		return picked
	}
	if keep == 1 {
		return picked[:1]
	}
	// Thin deterministically, preferring the cost/latency front order.
	out := make([]DesignPoint, 0, keep)
	for i := 0; i < keep; i++ {
		out = append(out, picked[i*(len(picked)-1)/(keep-1)])
	}
	return out
}

// Explore runs the full two-phase ConEx algorithm over the memory
// architectures selected by APEX, profiling their BRGs in one batched
// memory-only simulation first. All design-point evaluations go through
// the configured engine (cfg.Engine, or a private one), which bounds
// parallelism, memoizes equivalent designs and honours ctx cancellation.
func Explore(ctx context.Context, t *trace.Trace, memArchs []*mem.Architecture, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(memArchs) == 0 {
		return nil, fmt.Errorf("core: no memory architectures to explore")
	}
	cfg.Engine = cfg.EngineOrNew()
	brgs, err := BuildBRGs(ctx, t, memArchs, cfg.Engine.Workers())
	if err != nil {
		return nil, err
	}
	return ExploreBRGs(ctx, t, brgs, cfg)
}

// ExploreBRGs is Explore over memory architectures whose BRGs are
// already built, e.g. from the memory-only results APEX scored them
// with (NewBRG). Phase I estimates the candidates of every architecture
// in one engine batch, so the architectures' captures and replays share
// the engine's worker slots. It reports each per-architecture
// select-local cut, in architecture order, as a prune event and each
// Phase II design's estimate error, to the run's observer when ctx
// carries one (obs.NewContext) and else to the engine's; the final
// cost-perf-front cut is the run's, which memorex.Explorer reports once
// whatever the strategy.
func ExploreBRGs(ctx context.Context, t *trace.Trace, brgs []*BRG, cfg Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(brgs) == 0 {
		return nil, fmt.Errorf("core: no memory architectures to explore")
	}
	eng := cfg.EngineOrNew()
	o := obs.FromContext(ctx, eng.Observer())
	before := eng.Stats()
	res := &Result{}

	// Phase I: enumerate every architecture's candidates, estimate them
	// all in one engine batch, then select locally per architecture.
	cands := make([][]DesignPoint, len(brgs))
	dropped := make([]int64, len(brgs))
	total := 0
	for i, brg := range brgs {
		cands[i], dropped[i] = Candidates(brg, cfg)
		res.DroppedAssignments += dropped[i]
		total += len(cands[i])
	}
	points := make([]DesignPoint, 0, total)
	for _, c := range cands {
		points = append(points, c...)
	}
	work, err := estimate(ctx, eng, t, points, cfg)
	if err != nil {
		return nil, err
	}
	res.EstimatedAccesses = work
	var phase2 []DesignPoint
	for i, brg := range brgs {
		n := len(cands[i])
		archPoints := points[:n:n]
		points = points[n:]
		res.PerArch = append(res.PerArch, archPoints)
		kept := SelectLocal(archPoints, cfg.KeepPerArch)
		o.Prune("select-local", brg.Arch.Name, len(archPoints), len(kept), dropped[i])
		phase2 = append(phase2, kept...)
	}

	// Phase II: full simulation of the combined promising set, submitted
	// as one slice so survivors of the same memory architecture batch
	// into shared full-trace replays.
	stop := eng.StartPhase(phaseFullSim)
	combined := append([]DesignPoint(nil), phase2...)
	work, err = Evaluate(ctx, eng, t, combined, engine.Full, cfg.Sampling, phaseFullSim)
	stop()
	if err != nil {
		return nil, err
	}
	res.SimulatedAccesses = work
	estErr := eng.Metrics().Histogram("sampling/est_err_pct")
	for i := range combined {
		// Phase II revisits every Phase I survivor, which is exactly the
		// fidelity experiment of the paper: compare the time-sampled
		// latency estimate against the full-simulation ground truth.
		est, full := &phase2[i], &combined[i]
		if full.Latency > 0 {
			rel := 100 * (est.Latency - full.Latency) / full.Latency
			if rel < 0 {
				rel = -rel
			}
			estErr.Observe(rel)
			if o.Enabled() {
				o.EstimatorError(est.MemArch.Name, est.Conn.Describe(est.MemArch),
					est.Latency, full.Latency, rel)
			}
		}
	}
	res.Combined = combined

	for _, p := range pareto.Front(res.Points(), pareto.Cost, pareto.Latency) {
		res.CostPerfFront = append(res.CostPerfFront, *p.Meta.(*DesignPoint))
	}
	res.Stats = eng.Stats()
	res.CacheHits = res.Stats.CacheHits - before.CacheHits
	return res, nil
}

// FullSimulate runs the full (non-sampled) simulation of one design and
// returns its exact design point plus the simulated access count. It is
// a convenience for one-off evaluations; batch callers should go
// through an engine.
func FullSimulate(t *trace.Trace, arch *mem.Architecture, conn *connect.Arch) (*DesignPoint, int64, error) {
	s, err := sim.New(arch, conn)
	if err != nil {
		return nil, 0, err
	}
	r, err := s.Run(t)
	if err != nil {
		return nil, 0, err
	}
	return &DesignPoint{
		MemArch: arch,
		Conn:    conn,
		Cost:    arch.Gates() + conn.Gates(),
		Latency: r.AvgLatency(),
		Energy:  r.AvgEnergy(),
	}, r.Accesses, nil
}
