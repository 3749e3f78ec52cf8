package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/sampling"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

func testTrace(t testing.TB) *trace.Trace {
	t.Helper()
	return workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 20_000)
}

// testArch builds a fresh single-cache architecture. Each call returns a
// new object so pointer identity never hides fingerprint differences.
func testArch(size int) *mem.Architecture {
	return &mem.Architecture{
		Name:    "c",
		Modules: []mem.Module{mem.MustCache(size, 32, 2)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
}

func testConn(t testing.TB, a *mem.Architecture, onChip string) *connect.Arch {
	t.Helper()
	lib := connect.Library()
	on, err := connect.ByName(lib, onChip)
	if err != nil {
		t.Fatal(err)
	}
	off, err := connect.ByName(lib, "off32")
	if err != nil {
		t.Fatal(err)
	}
	chans := a.Channels()
	c := &connect.Arch{Channels: chans}
	for i, ch := range chans {
		c.Clusters = append(c.Clusters, []int{i})
		if ch.OffChip {
			c.Assign = append(c.Assign, off)
		} else {
			c.Assign = append(c.Assign, on)
		}
	}
	return c
}

func sampled(tr *trace.Trace, a *mem.Architecture, c *connect.Arch) Request {
	return Request{
		Trace: tr, Mem: a, Conn: c,
		Mode:     Sampled,
		Sampling: sampling.Config{OnWindow: 500, OffRatio: 9},
	}
}

// Equivalent architectures built independently must fingerprint
// identically — that is what makes the cache work across sibling
// strategies and experiments that re-create the same designs — while any
// structural difference (module size, component choice, sampling window,
// mode) must change the key.
func TestFingerprintStability(t *testing.T) {
	tr := testTrace(t)
	e := New(1)

	a1, a2 := testArch(4096), testArch(4096)
	c1, c2 := testConn(t, a1, "ahb32"), testConn(t, a2, "ahb32")
	base := sampled(tr, a1, c1)
	if got := e.key(sampled(tr, a2, c2)); got != e.key(base) {
		t.Fatal("equivalent architectures produced different memo keys")
	}

	diff := []struct {
		name string
		req  Request
	}{
		{"cache size", sampled(tr, testArch(8192), testConn(t, testArch(8192), "ahb32"))},
		{"component", sampled(tr, a1, testConn(t, a1, "apb32"))},
		{"mode", Request{Trace: tr, Mem: a1, Conn: c1, Mode: Full}},
		{"sampling window", Request{Trace: tr, Mem: a1, Conn: c1, Mode: Sampled,
			Sampling: sampling.Config{OnWindow: 1000, OffRatio: 9}}},
	}
	for _, d := range diff {
		if e.key(d.req) == e.key(base) {
			t.Errorf("%s change did not change the memo key", d.name)
		}
	}

	// The trace content matters, not its object identity: a different
	// slice of the same benchmark must miss.
	tr2 := workload.Compress{}.Generate(workload.DefaultConfig()).Slice(0, 10_000)
	if e.key(sampled(tr2, a1, c1)) == e.key(base) {
		t.Fatal("different traces produced the same memo key")
	}
}

// TestFingerprintCoversModuleParameters: parameters a module's name
// omits still change its behaviour, so they must change the behavior
// fingerprint. Two self-indirect DMA engines that differ only in chain
// predictability (or node size) miss at very different rates; sharing
// one memo or btcache entry would hand one the other's results.
func TestFingerprintCoversModuleParameters(t *testing.T) {
	tr := testTrace(t)
	dmaArch := func(node int, pred float64) *mem.Architecture {
		return &mem.Architecture{
			Name:    "dma",
			Modules: []mem.Module{mem.MustCache(4096, 32, 2), mem.MustSelfIndirectDMA(256, node, pred)},
			DRAM:    mem.DefaultDRAM(),
			Route:   map[trace.DSID]int{1: 1},
			Default: 0,
		}
	}
	base := BehaviorFingerprint(tr, dmaArch(8, 0.2), Full, sampling.Config{})
	if BehaviorFingerprint(tr, dmaArch(8, 0.2), Full, sampling.Config{}) != base {
		t.Fatal("equal DMA architectures fingerprint differently")
	}
	if BehaviorFingerprint(tr, dmaArch(8, 0.9), Full, sampling.Config{}) == base {
		t.Error("DMA predictability does not reach the behavior fingerprint")
	}
	if BehaviorFingerprint(tr, dmaArch(16, 0.2), Full, sampling.Config{}) == base {
		t.Error("DMA node size does not reach the behavior fingerprint")
	}
	wt := testArch(4096)
	wt.Modules[0] = mem.MustWriteThroughCache(4096, 32, 2)
	if BehaviorFingerprint(tr, wt, Full, sampling.Config{}) == BehaviorFingerprint(tr, testArch(4096), Full, sampling.Config{}) {
		t.Error("cache write policy does not reach the behavior fingerprint")
	}
}

// Hit/miss accounting: the second evaluation of an equivalent design is a
// cache hit, reports Work=0, and returns the identical figures.
func TestCacheHitAccounting(t *testing.T) {
	tr := testTrace(t)
	e := New(2)
	ctx := context.Background()

	a1 := testArch(4096)
	first, err := e.EvaluateOne(ctx, sampled(tr, a1, testConn(t, a1, "ahb32")))
	if err != nil {
		t.Fatal(err)
	}
	if first.Hit || first.Work == 0 {
		t.Fatalf("first evaluation should simulate: hit=%v work=%d", first.Hit, first.Work)
	}

	a2 := testArch(4096) // equivalent, distinct object
	second, err := e.EvaluateOne(ctx, sampled(tr, a2, testConn(t, a2, "ahb32")))
	if err != nil {
		t.Fatal(err)
	}
	if !second.Hit || second.Work != 0 {
		t.Fatalf("second evaluation should hit the cache: hit=%v work=%d", second.Hit, second.Work)
	}
	if second.Cost != first.Cost || second.Latency != first.Latency || second.Energy != first.Energy {
		t.Fatalf("cache hit returned different figures: %+v vs %+v", second, first)
	}

	st := e.Stats()
	if st.Requests != 2 || st.Simulations != 1 || st.CacheHits != 1 {
		t.Fatalf("stats = %d requests, %d simulations, %d hits; want 2, 1, 1",
			st.Requests, st.Simulations, st.CacheHits)
	}
	if st.SampledSimulations != 1 || st.SampledAccesses != first.Work {
		t.Fatalf("sampled counters = %d sims, %d accesses; want 1, %d",
			st.SampledSimulations, st.SampledAccesses, first.Work)
	}
}

// Batch results come back in submission order regardless of the worker
// count, so downstream pareto fronts are byte-identical for any
// parallelism.
func TestSubmissionOrderDeterministic(t *testing.T) {
	tr := testTrace(t)
	var reqs []Request
	for _, size := range []int{1024, 2048, 4096, 8192, 16384} {
		for _, on := range []string{"ahb32", "apb32", "mux32"} {
			a := testArch(size)
			reqs = append(reqs, sampled(tr, a, testConn(t, a, on)))
		}
	}
	serial, err := New(1).Evaluate(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := New(8).Evaluate(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial) != len(parallel) {
		t.Fatalf("result lengths differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Cost != parallel[i].Cost ||
			serial[i].Latency != parallel[i].Latency ||
			serial[i].Energy != parallel[i].Energy {
			t.Fatalf("result %d differs between 1 and 8 workers: %+v vs %+v",
				i, serial[i], parallel[i])
		}
	}
}

// A cancelled context aborts the batch with the context error.
func TestEvaluateCancellation(t *testing.T) {
	tr := testTrace(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	a := testArch(4096)
	_, err := New(2).Evaluate(ctx, []Request{sampled(tr, a, testConn(t, a, "ahb32"))})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled batch returned %v; want context.Canceled", err)
	}
}

// An invalid request fails the whole batch with its own error (not the
// cancellation it triggers), and failures are not memoized.
func TestEvaluateErrorNotCached(t *testing.T) {
	tr := testTrace(t)
	e := New(4)
	a := testArch(4096)
	good := sampled(tr, a, testConn(t, a, "ahb32"))
	for _, bad := range []Request{
		{Trace: tr, Mem: nil, Conn: good.Conn, Mode: Sampled},
		{Trace: tr, Mem: a, Conn: good.Conn, Mode: Mode(7)},
	} {
		_, err := e.Evaluate(context.Background(), []Request{good, bad, good})
		if err == nil || errors.Is(err, context.Canceled) {
			t.Fatalf("batch with invalid request returned %v; want the request error", err)
		}
	}
	if _, err := e.EvaluateOne(context.Background(), good); err != nil {
		t.Fatalf("engine unusable after a failed batch: %v", err)
	}
}

// Phase attribution: requests tagged with a phase show up under it, and
// StartPhase accumulates wall time.
func TestPhaseStats(t *testing.T) {
	tr := testTrace(t)
	e := New(2)
	stop := e.StartPhase("test/estimate")
	a := testArch(4096)
	req := sampled(tr, a, testConn(t, a, "ahb32"))
	req.Phase = "test/estimate"
	if _, err := e.EvaluateOne(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	stop()
	stop() // idempotent

	st := e.Stats()
	if len(st.Phases) != 1 || st.Phases[0].Name != "test/estimate" {
		t.Fatalf("phases = %+v; want one test/estimate entry", st.Phases)
	}
	p := st.Phases[0]
	if p.Requests != 1 || p.Simulations != 1 || p.Wall <= 0 {
		t.Fatalf("phase stats = %+v; want 1 request, 1 simulation, positive wall", p)
	}
	if !strings.Contains(st.String(), "test/estimate") {
		t.Fatalf("Stats.String() missing the phase:\n%s", st.String())
	}
}

func TestDefaultWorkers(t *testing.T) {
	if DefaultWorkers() < 1 {
		t.Fatalf("DefaultWorkers() = %d", DefaultWorkers())
	}
	if got := New(0).Workers(); got != DefaultWorkers() {
		t.Fatalf("New(0).Workers() = %d; want %d", got, DefaultWorkers())
	}
	if got := New(3).Workers(); got != 3 {
		t.Fatalf("New(3).Workers() = %d; want 3", got)
	}
}

// The observability wiring: an engine built with an observer and a
// metrics registry must emit one eval event per request (flagging
// cache hits), bracket StartPhase with phase events, and keep the
// registry counters consistent with Stats().
func TestObserverAndMetricsWiring(t *testing.T) {
	tr := testTrace(t)
	ring := obs.NewRing(64)
	reg := obs.NewRegistry()
	e := New(2, WithObserver(obs.NewObserver(ring)), WithMetrics(reg))
	if e.Observer() == nil || e.Metrics() != reg {
		t.Fatal("engine lost its observer or registry")
	}
	a := testArch(4096)
	c := testConn(t, a, "ahb32")
	req := sampled(tr, a, c)
	req.Phase = "test/obs"

	stop := e.StartPhase("test/obs")
	if _, err := e.Evaluate(context.Background(), []Request{req, req}); err != nil {
		t.Fatal(err)
	}
	stop()

	var evals, hits, phaseStart, phaseEnd int
	for _, ev := range ring.Events() {
		switch ev.Kind {
		case obs.KindEval:
			evals++
			if ev.CacheHit {
				hits++
			}
			if ev.Mem != a.Name || ev.Conn == "" || ev.Phase != "test/obs" {
				t.Fatalf("eval event lost labels: %+v", ev)
			}
		case obs.KindPhaseStart:
			phaseStart++
		case obs.KindPhaseEnd:
			phaseEnd++
			if ev.WallNS <= 0 {
				t.Fatalf("phase-end without wall time: %+v", ev)
			}
		}
	}
	if evals != 2 || hits != 1 {
		t.Fatalf("got %d eval events (%d cache hits), want 2 with 1 hit", evals, hits)
	}
	if phaseStart != 1 || phaseEnd != 1 {
		t.Fatalf("phase events = %d start, %d end; want 1 each", phaseStart, phaseEnd)
	}

	snap := reg.Snapshot()
	if snap.Counters["engine/evaluations"] != 2 ||
		snap.Counters["engine/simulations"] != 1 ||
		snap.Counters["engine/cache_hits"] != 1 {
		t.Fatalf("registry counters inconsistent: %+v", snap.Counters)
	}
	if snap.Counters["rtable/issues"] <= 0 {
		t.Fatalf("scheduler issues not propagated: %+v", snap.Counters)
	}
	if snap.Counters["sampling/windows"] <= 0 || snap.Counters["sampling/on_accesses"] <= 0 {
		t.Fatalf("sampling plan not counted: %+v", snap.Counters)
	}
	h, ok := snap.Histograms["engine/eval_wall_us/sampled"]
	if !ok || h.Count != 1 {
		t.Fatalf("sampled eval-wall histogram missing or miscounted: %+v", snap.Histograms)
	}
	if snap.Gauges["engine/workers"] != 2 {
		t.Fatalf("workers gauge = %v, want 2", snap.Gauges["engine/workers"])
	}
}

// BenchmarkEvaluateObserver measures the per-evaluation overhead of
// the observability layer on the cheapest possible request — a memo
// cache hit, where the wrapper is a measurable fraction of the work.
// Compare allocs/op of the disabled and instrumented variants: the
// disabled engine must not allocate anything the instrumented one
// avoids.
func BenchmarkEvaluateObserver(b *testing.B) {
	bench := func(b *testing.B, e *Engine) {
		tr := testTrace(b)
		a := testArch(4096)
		req := sampled(tr, a, testConn(b, a, "ahb32"))
		ctx := context.Background()
		reqs := []Request{req}
		if _, err := e.Evaluate(ctx, reqs); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.Evaluate(ctx, reqs); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("disabled", func(b *testing.B) { bench(b, New(1)) })
	b.Run("instrumented", func(b *testing.B) {
		bench(b, New(1,
			WithObserver(obs.NewObserver(obs.NewRing(16))),
			WithMetrics(obs.NewRegistry())))
	})
}
