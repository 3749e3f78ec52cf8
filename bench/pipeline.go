package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"memorex"
	"memorex/internal/apex"
	"memorex/internal/btcache"
	"memorex/internal/connect"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/explore"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/pareto"
	"memorex/internal/profile"
	"memorex/internal/sampling"
	"memorex/internal/sim"
)

// span is one timed call the benchmark made into a layer. Spans of one
// op share Op; Parent 0 marks a root.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so the same pipeline code runs traced and untraced. It is
// used from one goroutine at a time.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, op, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name, Start: now, End: now})
	return len(t.spans)
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
}

// add records a span whose bounds were measured elsewhere (the daemon's
// job timestamps).
func (t *tracer) add(name string, op, parent int, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return len(t.spans)
}

// totalMS sums the durations of the spans with any of the given names.
func (t *tracer) totalMS(names ...string) float64 {
	var d time.Duration
	for _, s := range t.spans {
		for _, n := range names {
			if s.Name == n {
				d += s.dur()
			}
		}
	}
	return ms(d)
}

// children maps each span id to the spans it caused.
func (t *tracer) children() map[int][]span {
	out := map[int][]span{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// rootMS returns the durations in ms of the root spans named root.
func (t *tracer) rootMS(root string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == root && s.Parent == 0 {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// attributedPct is the share of the root spans' wall time that their
// child spans, the calls into named layers, cover.
func (t *tracer) attributedPct(root string) float64 {
	children := t.children()
	var wall, named time.Duration
	for _, s := range t.spans {
		if s.Name == root && s.Parent == 0 {
			wall += s.dur()
			named += covered(s, children[s.ID])
		}
	}
	if wall == 0 {
		return 0
	}
	return 100 * float64(named) / float64(wall)
}

// selfTimes returns, per span name, the total and the self time: each
// span's duration minus the part of it its children cover.
func (t *tracer) selfTimes() (names []string, total, self map[string]time.Duration) {
	total, self = map[string]time.Duration{}, map[string]time.Duration{}
	children := t.children()
	for _, s := range t.spans {
		if _, ok := total[s.Name]; !ok {
			names = append(names, s.Name)
		}
		total[s.Name] += s.dur()
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return names, total, self
}

// covered is the length of the part of parent's interval that the
// union of its children covers.
func covered(parent span, kids []span) time.Duration {
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var d time.Duration
	lo, hi := int64(0), int64(0)
	open := false
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if open && s <= hi {
			hi = max(hi, e)
			continue
		}
		if open {
			d += time.Duration(hi - lo)
		}
		lo, hi, open = s, e, true
	}
	if open {
		d += time.Duration(hi - lo)
	}
	return d
}

// write stores the spans as JSON Lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

// Span names of an op's stages, the named layers of its wall time, and
// of the probes.
const (
	spanOp        = "op"
	spanWorkload  = "workload"
	spanProfile   = "profile"
	spanAPEX      = "apex"
	spanCore      = "core"
	spanExplore   = "explore"
	spanSelect    = "selections"
	spanReport    = "report"
	probeCapSamp  = "probe.capture_sampled"
	probeCapFull  = "probe.capture_full"
	probeReplay   = "probe.replay_batch"
	probePareto   = "probe.pareto"
	probeCacheOpn = "probe.btcache_open"
	probeCacheGet = "probe.btcache_get"
)

// stagedRun is one op performed stage by stage: its report, the final
// snapshot of its engine's metrics registry and the report's JSON.
type stagedRun struct {
	rep     *memorex.Report
	metrics obs.Snapshot
	json    []byte
}

// staged performs the stages of Explorer.Do itself, in its order: trace
// generation (when the spec names a benchmark), profile.Analyze,
// apex.Explore, the exploration driver, the constrained selections and
// Report.WriteJSON, on an engine built the way NewExplorer builds one.
// With a tracer it records a span around each stage.
func staged(ctx context.Context, s *spec, workers int, tr *tracer, op int) (*stagedRun, error) {
	root := tr.begin(spanOp, op, 0)
	defer tr.end(root)
	stage := func(name string, f func() error) error {
		id := tr.begin(name, op, root)
		err := f()
		tr.end(id)
		return err
	}

	t := s.trace
	if t == nil {
		if err := stage(spanWorkload, func() (err error) {
			t, err = memorex.GenerateTrace(s.bench, s.wl)
			return err
		}); err != nil {
			return nil, err
		}
	}
	var prof *profile.Profile
	stage(spanProfile, func() error { prof = profile.Analyze(t); return nil })
	var apexRes *apex.Result
	if err := stage(spanAPEX, func() (err error) {
		apexRes, err = apex.Explore(t, prof, s.apex)
		return err
	}); err != nil {
		return nil, fmt.Errorf("APEX: %w", err)
	}

	reg := obs.NewRegistry()
	eng := engine.New(workers, engine.WithObserver(nil), engine.WithMetrics(reg))
	cfg := core.Config{
		Library:           connect.Library(),
		Sampling:          s.sampling,
		MaxAssignPerLevel: s.assignCap,
		KeepPerArch:       s.keep,
		Engine:            eng,
	}
	if s.search != nil {
		cfg.Search = *s.search
	}
	rep := &memorex.Report{
		Options: memorex.Options{Workload: s.bench, WorkloadConfig: s.wl, APEX: s.apex, ConEx: cfg},
		Trace:   t, Profile: prof, APEX: apexRes,
	}
	if s.strategy == "" {
		archs := make([]*mem.Architecture, 0, len(apexRes.Selected))
		for _, dp := range apexRes.Selected {
			archs = append(archs, dp.Arch)
		}
		if err := stage(spanCore, func() (err error) {
			rep.ConEx, err = core.Explore(ctx, t, archs, cfg)
			return err
		}); err != nil {
			return nil, fmt.Errorf("ConEx: %w", err)
		}
	} else {
		strategy, err := explore.ParseStrategy(s.strategy)
		if err != nil {
			return nil, err
		}
		if err := stage(spanExplore, func() error {
			before := eng.Stats()
			out, err := explore.Run(ctx, t, explore.BuildSpace(apexRes), strategy, cfg)
			if err != nil {
				return err
			}
			res := &core.Result{Combined: out.Points, Stats: out.Stats}
			res.EstimatedAccesses = out.Stats.SampledAccesses - before.SampledAccesses
			res.SimulatedAccesses = out.Stats.FullAccesses - before.FullAccesses
			res.CacheHits = out.Stats.CacheHits - before.CacheHits
			for _, p := range out.Front {
				res.CostPerfFront = append(res.CostPerfFront, *p.Meta.(*core.DesignPoint))
			}
			rep.ConEx, rep.Search = res, out.Search
			return nil
		}); err != nil {
			return nil, fmt.Errorf("%s exploration: %w", s.strategy, err)
		}
	}
	stage(spanSelect, func() error {
		for _, c := range s.constraints {
			var pts []pareto.Point
			switch c.Scenario {
			case memorex.ScenarioPower:
				pts = rep.PowerConstrained(c.Limit)
			case memorex.ScenarioCost:
				pts = rep.CostConstrained(c.Limit)
			case memorex.ScenarioPerf:
				pts = rep.PerformanceConstrained(c.Limit)
			}
			rep.Selections = append(rep.Selections, memorex.Selection{Scenario: c.Scenario, Limit: c.Limit, Points: pts})
		}
		return nil
	})
	rep.Metrics = reg.Snapshot()
	var buf bytes.Buffer
	if err := stage(spanReport, func() error { return rep.WriteJSON(&buf) }); err != nil {
		return nil, fmt.Errorf("writing report: %w", err)
	}
	return &stagedRun{rep: rep, metrics: reg.Snapshot(), json: buf.Bytes()}, nil
}

// probeStats counts the work the probes timed.
type probeStats struct {
	replayAccesses int64
}

// probe times, on an op's own inputs, the layers the engine runs inside
// Evaluate where the benchmark cannot put a span: a Phase A capture
// with the sampling plan's windows and one of the whole trace, a Phase
// B batched replay of the front designs that share the probed memory
// architecture, and pareto selection over the op's designs. The two
// captures are stored in cache (when non-nil) for the btcache probe.
func probe(tr *tracer, op int, s *spec, rep *memorex.Report, cache *btcache.Cache, ps *probeStats) error {
	front := rep.ConEx.CostPerfFront
	if len(front) == 0 {
		return fmt.Errorf("probe: empty front")
	}
	t, arch := rep.Trace, front[0].MemArch
	var conns []*connect.Arch
	for i := range front {
		if front[i].MemArch == arch {
			conns = append(conns, front[i].Conn)
		}
	}
	windows := sampling.Plan(t.NumAccesses(), s.sampling)
	id := tr.begin(probeCapSamp, op, 0)
	sampled, err := sim.CaptureBehavior(t, arch, windows)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: sampled capture: %w", err)
	}
	id = tr.begin(probeCapFull, op, 0)
	full, err := sim.CaptureBehavior(t, arch, nil)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: full capture: %w", err)
	}
	id = tr.begin(probeReplay, op, 0)
	results, err := sim.ReplayBatch(full, conns)
	tr.end(id)
	if err != nil {
		return fmt.Errorf("probe: replay: %w", err)
	}
	for _, r := range results {
		ps.replayAccesses += r.Accesses
	}

	pts := rep.ConEx.Points()
	id = tr.begin(probePareto, op, 0)
	pareto.Front(pts, pareto.Cost, pareto.Latency)
	pareto.Front3D(pts)
	pareto.PowerConstrained(pts, allConstraints[0].Limit)
	pareto.CostConstrained(pts, allConstraints[1].Limit)
	pareto.PerformanceConstrained(pts, allConstraints[2].Limit)
	tr.end(id)

	if cache != nil {
		if err := cache.Put(engine.BehaviorFingerprint(t, arch, engine.Sampled, s.sampling), sampled); err != nil {
			return err
		}
		if err := cache.Put(engine.BehaviorFingerprint(t, arch, engine.Full, sampling.Config{}), full); err != nil {
			return err
		}
	}
	return nil
}

// cacheProbe times opening the behavior-trace cache in dir and loading
// (fully validating) every entry in it. It returns the number of
// entries and the bytes on disk.
func cacheProbe(tr *tracer, dir string) (entries int, bytesOnDisk int64, err error) {
	id := tr.begin(probeCacheOpn, 0, 0)
	c, err := btcache.Open(dir)
	tr.end(id)
	if err != nil {
		return 0, 0, err
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.btc"))
	if err != nil {
		return 0, 0, err
	}
	fps := make([]uint64, 0, len(names))
	for _, n := range names {
		var fp uint64
		if _, err := fmt.Sscanf(filepath.Base(n), "%016x.btc", &fp); err != nil {
			return 0, 0, fmt.Errorf("cache entry %s: %w", n, err)
		}
		fps = append(fps, fp)
	}
	id = tr.begin(probeCacheGet, 0, 0)
	for _, fp := range fps {
		if _, ok := c.Get(fp); !ok {
			tr.end(id)
			return 0, 0, fmt.Errorf("cache entry %016x failed to load", fp)
		}
	}
	tr.end(id)
	return len(fps), c.Stats().BytesOnDisk, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
