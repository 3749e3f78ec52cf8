package memorex

import (
	"bytes"
	"context"
	"encoding/json"
	"strings"
	"testing"
)

// TestExplorerWarmStart is the end-to-end contract of the persistent
// behavior-trace cache: a second Explorer sharing the cache directory
// runs the whole pipeline without a single Phase A capture, serves
// every behavior trace from disk, surfaces the cache counters in
// Report.Metrics, and produces byte-identical design points.
func TestExplorerWarmStart(t *testing.T) {
	dir := t.TempDir()
	run := func() (*Report, EngineStats, TraceCacheStats) {
		t.Helper()
		ex, err := NewExplorer(append(fastExplorerOpts(), WithTraceCache(dir))...)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ex.Explore(context.Background(), "vocoder")
		if err != nil {
			t.Fatal(err)
		}
		cs, ok := ex.TraceCacheStats()
		if !ok {
			t.Fatal("TraceCacheStats reports no cache despite WithTraceCache")
		}
		return rep, ex.Stats(), cs
	}

	rep1, st1, cs1 := run()
	if st1.BehaviorCaptures == 0 {
		t.Fatal("cold run captured no behavior traces")
	}
	if cs1.Puts == 0 || cs1.Hits != 0 {
		t.Fatalf("cold cache stats = %+v, want puts and no hits", cs1)
	}

	rep2, st2, cs2 := run()
	if st2.BehaviorCaptures != 0 {
		t.Fatalf("warm run ran %d behavior captures, want 0", st2.BehaviorCaptures)
	}
	if st2.BehaviorDiskHits == 0 || cs2.Hits == 0 {
		t.Fatalf("warm run served nothing from disk: engine %+v, cache %+v", st2, cs2)
	}
	if cs2.CorruptQuarantined != 0 {
		t.Fatalf("warm run quarantined %d entries", cs2.CorruptQuarantined)
	}

	// The cache counters must surface through Report.Metrics (and thus
	// the report's JSON form).
	if rep2.Metrics.Counters["btcache/hits"] == 0 {
		t.Fatalf("btcache counters missing from Report.Metrics: %+v", rep2.Metrics.Counters)
	}
	if rep2.Metrics.Counters["engine/behavior_disk_hits"] == 0 {
		t.Fatal("engine/behavior_disk_hits missing from Report.Metrics")
	}

	// Bit-identical results: the serialized design points of both runs
	// must match byte for byte (engine stats and metrics carry wall
	// times and cache counters that legitimately differ, so compare the
	// designs section).
	designs := func(r *Report) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := r.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		var rj ReportJSON
		if err := json.Unmarshal(buf.Bytes(), &rj); err != nil {
			t.Fatal(err)
		}
		rj.Engine, rj.Metrics = nil, nil
		out, err := json.Marshal(rj)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if d1, d2 := designs(rep1), designs(rep2); !bytes.Equal(d1, d2) {
		t.Fatalf("warm-start designs diverged:\ncold %s\nwarm %s", d1, d2)
	}
}

// fastExplorerOpts shrinks the design spaces so Explorer tests stay
// quick.
func fastExplorerOpts() []ExplorerOption {
	return []ExplorerOption{
		WithAPEXConfig(APEXConfig{
			CacheSizes:  []int{2 << 10, 16 << 10},
			CacheAssocs: []int{2},
			CacheLines:  []int{32},
			MaxCustom:   1,
			SRAMLimit:   80 << 10,
			MaxSelected: 2,
		}),
		WithAssignCap(12),
		WithKeepPerArch(3),
		WithSampling(SamplingConfig{OnWindow: 500, OffRatio: 9}),
	}
}

// TestExplorerEventStream is the completeness contract of the event
// stream: over a full run, every evaluated design appears exactly once
// per phase, every pruning decision is reported, the stream brackets
// cleanly with run-start/run-end, and the same stream round-trips
// through the JSONL sink.
func TestExplorerEventStream(t *testing.T) {
	ring := NewRingSink(1 << 14)
	var jsonl bytes.Buffer
	ex, err := NewExplorer(append(fastExplorerOpts(),
		WithEventSinks(ring, NewJSONLSink(&jsonl)))...)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Explore(context.Background(), "vocoder")
	if err != nil {
		t.Fatal(err)
	}
	if err := ex.Close(); err != nil {
		t.Fatal(err)
	}

	events := ring.Events()
	if int(ring.Total()) != len(events) {
		t.Fatalf("ring dropped events: total %d, retained %d", ring.Total(), len(events))
	}
	if events[0].Kind != KindRunStart || events[0].Benchmark != "vocoder" {
		t.Fatalf("stream does not open with run-start: %+v", events[0])
	}
	last := events[len(events)-1]
	if last.Kind != KindRunEnd || last.WallNS <= 0 || last.Err != "" {
		t.Fatalf("stream does not close with a clean run-end: %+v", last)
	}

	seen := map[string]int{}
	var evals, prunes, estErrs, traces, apexSel int
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want dense ordering", i, ev.Seq)
		}
		switch ev.Kind {
		case KindEval:
			evals++
			seen[ev.Phase+"|"+ev.Mem+"|"+ev.Conn]++
		case KindPrune:
			prunes++
			if ev.Selected > ev.Evaluated {
				t.Fatalf("prune kept more than it saw: %+v", ev)
			}
		case KindEstimatorError:
			estErrs++
			if ev.EstLatency <= 0 || ev.FullLatency <= 0 {
				t.Fatalf("estimator-error without latencies: %+v", ev)
			}
		case KindTrace:
			traces++
		case KindAPEX:
			apexSel++
		}
	}

	// Every evaluated design exactly once: the engine saw as many eval
	// events as requests, and no (phase, design) pair repeats.
	if got := ex.Stats().Requests; int64(evals) != got {
		t.Fatalf("%d eval events for %d engine requests", evals, got)
	}
	for key, n := range seen {
		if n != 1 {
			t.Fatalf("design %q evaluated %d times in one run", key, n)
		}
	}
	// One select-local prune per explored architecture plus the final
	// cost/perf front cut.
	if want := len(rep.ConEx.PerArch) + 1; prunes != want {
		t.Fatalf("%d prune events, want %d", prunes, want)
	}
	if estErrs != len(rep.ConEx.Combined) {
		t.Fatalf("%d estimator-error events for %d fully simulated designs",
			estErrs, len(rep.ConEx.Combined))
	}
	if traces != 1 || apexSel != 1 {
		t.Fatalf("trace/apex events = %d/%d, want 1/1", traces, apexSel)
	}

	// The JSONL stream decodes to the same events.
	decoded, err := DecodeEvents(&jsonl)
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != len(events) {
		t.Fatalf("JSONL decoded %d events, ring saw %d", len(decoded), len(events))
	}
	for i := range decoded {
		if decoded[i].Seq != events[i].Seq || decoded[i].Kind != events[i].Kind {
			t.Fatalf("JSONL event %d diverged: %+v vs %+v", i, decoded[i], events[i])
		}
	}

	// The run's metrics snapshot landed in the report and agrees with
	// the engine counters.
	if rep.Metrics.Counters["engine/evaluations"] != ex.Stats().Requests {
		t.Fatalf("report metrics inconsistent: %+v vs %+v", rep.Metrics.Counters, ex.Stats())
	}
	if _, ok := rep.Metrics.Histograms["sampling/est_err_pct"]; !ok {
		t.Fatal("report metrics missing the estimator-error histogram")
	}
}

// TestExplorerReuse: two runs on one Explorer share the memoization
// cache, and the second is served (at least partly) from it.
func TestExplorerReuse(t *testing.T) {
	ex, err := NewExplorer(fastExplorerOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Explore(context.Background(), "vocoder"); err != nil {
		t.Fatal(err)
	}
	afterFirst := ex.Stats()
	if _, err := ex.Explore(context.Background(), "vocoder"); err != nil {
		t.Fatal(err)
	}
	afterSecond := ex.Stats()
	newHits := afterSecond.CacheHits - afterFirst.CacheHits
	newSims := afterSecond.Simulations - afterFirst.Simulations
	if newHits == 0 {
		t.Fatal("second run produced no cache hits")
	}
	if newSims != 0 {
		t.Fatalf("second run re-simulated %d designs", newSims)
	}
}

func TestNewExplorerErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []ExplorerOption
		want string
	}{
		{"negative scale", []ExplorerOption{WithWorkloadConfig(WorkloadConfig{Scale: -1})}, "Scale"},
		{"bad sampling", []ExplorerOption{WithSampling(SamplingConfig{OnWindow: -5})}, "on-window"},
		{"bad keep", []ExplorerOption{WithKeepPerArch(-1)}, "KeepPerArch"},
		{"bad apex", []ExplorerOption{WithAPEXConfig(APEXConfig{CacheSizes: []int{1024}})}, "apex"},
		{"engine+observer", []ExplorerOption{
			WithEngine(NewEngine(1)),
			WithObserver(NewObserver(NewRingSink(4))),
		}, "mutually exclusive"},
		{"observer+sinks", []ExplorerOption{
			WithObserver(NewObserver(NewRingSink(4))),
			WithEventSinks(NewRingSink(4)),
		}, "mutually exclusive"},
		{"engine+tracecache", []ExplorerOption{
			WithEngine(NewEngine(1)),
			WithTraceCache(t.TempDir()),
		}, "mutually exclusive"},
	}
	for _, c := range cases {
		_, err := NewExplorer(c.opts...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}

	// The zero-option Explorer is valid and runs with defaults.
	ex, err := NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	if ex.Options().ConEx.KeepPerArch != DefaultOptions("compress").ConEx.KeepPerArch {
		t.Fatal("zero-option Explorer did not adopt defaults")
	}
}

// TestExplorerSharedEngine: an Explorer built over an engine that
// carries its own observer reports through that observer.
func TestExplorerSharedEngine(t *testing.T) {
	ring := NewRingSink(1 << 12)
	eng := NewEngineWithObservability(1, NewObserver(ring))
	ex, err := NewExplorer(append(fastExplorerOpts(), WithEngine(eng))...)
	if err != nil {
		t.Fatal(err)
	}
	if ex.Observer() == nil {
		t.Fatal("Explorer did not adopt the engine's observer")
	}
	if _, err := ex.Explore(context.Background(), "vocoder"); err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Fatal("engine observer saw no events")
	}
}
