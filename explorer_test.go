package memorex

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
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
		ex, err := NewExplorer(WithTraceCache(dir))
		if err != nil {
			t.Fatal(err)
		}
		rep, err := ex.Do(context.Background(), fastRequest("vocoder"))
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

// fastRequest shrinks the design spaces so Explorer tests stay quick.
func fastRequest(benchmark string) ExploreRequest {
	assignCap := 12
	return ExploreRequest{
		Benchmark: benchmark,
		APEX: &APEXConfig{
			CacheSizes:  []int{2 << 10, 16 << 10},
			CacheAssocs: []int{2},
			CacheLines:  []int{32},
			MaxCustom:   1,
			SRAMLimit:   80 << 10,
			MaxSelected: 2,
		},
		Sampling:          &SamplingConfig{OnWindow: 500, OffRatio: 9},
		KeepPerArch:       3,
		MaxAssignPerLevel: &assignCap,
	}
}

// TestExplorerEventStream is the completeness contract of the event
// stream, for every strategy: the stream brackets cleanly with
// run-start/run-end, every engine request appears as exactly one eval
// event, the run's final cost/perf front cut is reported exactly once
// and stamped with the job, and the same stream round-trips through
// the JSONL sink. The pruned run also reports every select-local cut
// and every Phase I/II estimator comparison.
func TestExplorerEventStream(t *testing.T) {
	for _, strategy := range []string{"pruned", "full", "neighborhood", "ga", "sa"} {
		t.Run(strategy, func(t *testing.T) {
			ring := NewRingSink(1 << 14)
			var jsonl bytes.Buffer
			ex, err := NewExplorer(WithEventSinks(ring, NewJSONLSink(&jsonl)))
			if err != nil {
				t.Fatal(err)
			}
			req := fastRequest("vocoder")
			req.Strategy, req.JobID = strategy, "job-"+strategy
			req.Search = &SearchConfig{Seed: 11, Budget: 60, Population: 8}
			rep, err := ex.Do(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			if err := ex.Close(); err != nil {
				t.Fatal(err)
			}
			checkEventStream(t, ex, rep, ring, &jsonl, req)
		})
	}
}

func checkEventStream(t *testing.T, ex *Explorer, rep *Report, ring *RingSink, jsonl *bytes.Buffer, req ExploreRequest) {
	t.Helper()
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
	localCuts := map[string]int{} // select-local prunes per memory architecture
	var evals, prunes, fronts, estErrs, traces, apexSel int
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
			if ev.Stage == "select-local" {
				localCuts[ev.Mem]++
				if ev.Job != req.JobID {
					t.Errorf("select-local prune of %s stamped %q, want %q", ev.Mem, ev.Job, req.JobID)
				}
			}
			if ev.Stage == "cost-perf-front" {
				fronts++
				if ev.Job != req.JobID {
					t.Errorf("cost-perf-front prune stamped %q, want %q", ev.Job, req.JobID)
				}
				if ev.Selected != len(rep.ConEx.CostPerfFront) || ev.Evaluated != len(rep.ConEx.Combined) {
					t.Errorf("cost-perf-front prune kept %d of %d, report front %d of %d",
						ev.Selected, ev.Evaluated, len(rep.ConEx.CostPerfFront), len(rep.ConEx.Combined))
				}
			}
		case KindEstimatorError:
			estErrs++
			if ev.EstLatency <= 0 || ev.FullLatency <= 0 {
				t.Fatalf("estimator-error without latencies: %+v", ev)
			}
			if ev.Job != req.JobID {
				t.Errorf("estimator-error event stamped %q, want %q", ev.Job, req.JobID)
			}
		case KindTrace:
			traces++
		case KindAPEX:
			apexSel++
		}
	}
	if fronts != 1 {
		t.Errorf("%d cost-perf-front prune events, want 1", fronts)
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
	if req.Strategy == "pruned" {
		// One select-local prune per explored architecture plus the
		// final cost/perf front cut.
		if want := len(rep.ConEx.PerArch) + 1; prunes != want {
			t.Fatalf("%d prune events, want %d", prunes, want)
		}
		if estErrs != len(rep.ConEx.Combined) {
			t.Fatalf("%d estimator-error events for %d fully simulated designs",
				estErrs, len(rep.ConEx.Combined))
		}
		// Exactly one select-local cut per memory architecture, each
		// carrying the job stamp (checked above).
		for _, pts := range rep.ConEx.PerArch {
			if name := pts[0].MemArch.Name; localCuts[name] != 1 {
				t.Errorf("%d select-local prunes of %s, want 1", localCuts[name], name)
			}
		}
		if len(localCuts) != len(rep.ConEx.PerArch) {
			t.Errorf("select-local prunes of %d architectures, want %d", len(localCuts), len(rep.ConEx.PerArch))
		}
		if _, ok := rep.Metrics.Histograms["sampling/est_err_pct"]; !ok {
			t.Fatal("report metrics missing the estimator-error histogram")
		}
	}
	if traces != 1 || apexSel != 1 {
		t.Fatalf("trace/apex events = %d/%d, want 1/1", traces, apexSel)
	}

	// The JSONL stream decodes to the same events.
	decoded, err := DecodeEvents(jsonl)
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
}

// TestExplorerReuse: two runs on one Explorer share the memoization
// cache, and the second is served (at least partly) from it.
func TestExplorerReuse(t *testing.T) {
	ex, err := NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ex.Do(context.Background(), fastRequest("vocoder")); err != nil {
		t.Fatal(err)
	}
	afterFirst := ex.Stats()
	if _, err := ex.Do(context.Background(), fastRequest("vocoder")); err != nil {
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

// cancelOnEval is an event sink that cancels a run's context on its
// first evaluation event.
type cancelOnEval struct{ cancel context.CancelFunc }

func (s *cancelOnEval) Emit(ev *Event) {
	if ev.Kind == KindEval {
		s.cancel()
	}
}

func (s *cancelOnEval) Close() error { return nil }

// TestExplorerReportBooksAgree: after a run cancelled mid-way, a good
// run's report must state the same engine counters in its engine block
// and in its metrics block. The cancelled run leaves requests that were
// claimed but never evaluated, which is where two separate sets of
// counters used to part ways.
func TestExplorerReportBooksAgree(t *testing.T) {
	sink := &cancelOnEval{}
	ex, err := NewExplorer(WithWorkers(1), WithEventSinks(sink))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	sink.cancel = cancel
	if _, err := ex.Do(ctx, fastRequest("vocoder")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled run returned %v, want context.Canceled", err)
	}
	if st := ex.Stats(); st.Requests <= st.Simulations+st.CacheHits {
		t.Fatalf("cancelled run left no claimed-but-unevaluated request: %+v", st)
	}
	rep, err := ex.Do(context.Background(), fastRequest("vocoder"))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out ReportJSON
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Engine == nil || out.Metrics == nil {
		t.Fatalf("report lacks its engine or metrics block:\n%s", buf.Bytes())
	}
	c := out.Metrics.Counters
	for _, f := range []struct {
		name         string
		engine, regd int64
	}{
		{"evaluations", out.Engine.Evaluations, c["engine/evaluations"]},
		{"simulations", out.Engine.Simulations, c["engine/simulations"]},
		{"cache hits", out.Engine.CacheHits, c["engine/cache_hits"]},
		{"sampled accesses", out.Engine.SampledAccesses, c["engine/sampled_accesses"]},
		{"full accesses", out.Engine.FullAccesses, c["engine/full_accesses"]},
	} {
		if f.engine != f.regd {
			t.Errorf("%s: engine block %d, metrics block %d", f.name, f.engine, f.regd)
		}
	}
}

func TestNewExplorerErrors(t *testing.T) {
	cases := []struct {
		name string
		opts []ExplorerOption
		want string
	}{
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

	// The zero-option Explorer is valid, and a request's absent blocks
	// run with the paper defaults on the Explorer's engine.
	ex, err := NewExplorer()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := ex.Do(context.Background(), fastRequest("vocoder"))
	if err != nil {
		t.Fatal(err)
	}
	def := DefaultOptions("vocoder")
	if got := rep.Options; got.Workload != "vocoder" || got.WorkloadConfig != def.WorkloadConfig ||
		len(got.ConEx.Library) != len(def.ConEx.Library) || got.ConEx.Engine != ex.Engine() {
		t.Fatalf("report options %+v did not adopt the defaults", got)
	}
}

// TestExplorerSharedEngine: an Explorer built over an engine that
// carries its own observer reports through that observer.
func TestExplorerSharedEngine(t *testing.T) {
	ring := NewRingSink(1 << 12)
	eng := NewEngineWithObservability(1, NewObserver(ring))
	ex, err := NewExplorer(WithEngine(eng))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Observer() == nil {
		t.Fatal("Explorer did not adopt the engine's observer")
	}
	if _, err := ex.Do(context.Background(), fastRequest("vocoder")); err != nil {
		t.Fatal(err)
	}
	if ring.Total() == 0 {
		t.Fatal("engine observer saw no events")
	}
}
