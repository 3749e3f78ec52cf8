package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// emitSample drives one of each event kind through the observer.
func emitSample(o *Observer) {
	o.RunStart("compress", 1000)
	o.TraceGenerated("compress", 1000, 4)
	o.APEXSelected(24, 5)
	o.PhaseStart("conex/estimate")
	o.Eval(Evaluation{
		Phase: "conex/estimate", Mem: "cache8k/m0", Conn: "ahb32",
		Cost: 51234, Latency: 4.25, Energy: 1.5,
		Estimated: true, Work: 6000, Wall: 1500 * time.Microsecond,
	})
	o.Eval(Evaluation{
		Phase: "conex/estimate", Mem: "cache8k/m0", Conn: "mux",
		Cost: 49000, Latency: 4.75, Energy: 1.4,
		Estimated: true, CacheHit: true,
	})
	o.PhaseEnd("conex/estimate", 20*time.Millisecond)
	o.Prune("select-local", "cache8k/m0", 40, 8, 3)
	o.EstimatorError("cache8k/m0", "ahb32", 4.25, 4.31, 1.4)
	o.RunEnd("compress", 120*time.Millisecond, nil)
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	sink := NewJSONL(&buf)
	o := NewObserver(sink)
	emitSample(o)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}

	events, err := DecodeJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 10 {
		t.Fatalf("decoded %d events, want 10", len(events))
	}
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d, want dense 1-based ordering", i, ev.Seq)
		}
		if ev.Time.IsZero() {
			t.Fatalf("event %d has no timestamp", i)
		}
	}
	wantKinds := []Kind{
		KindRunStart, KindTrace, KindAPEX, KindPhaseStart, KindEval,
		KindEval, KindPhaseEnd, KindPrune, KindEstimatorError, KindRunEnd,
	}
	for i, k := range wantKinds {
		if events[i].Kind != k {
			t.Fatalf("event %d kind = %q, want %q", i, events[i].Kind, k)
		}
	}
	// Spot-check field fidelity through the encode/decode cycle.
	ev := events[4]
	if ev.Mem != "cache8k/m0" || ev.Conn != "ahb32" || !ev.Estimated || ev.CacheHit {
		t.Fatalf("eval event lost fields: %+v", ev)
	}
	if ev.Cost != 51234 || ev.Latency != 4.25 || ev.Work != 6000 || ev.WallNS != 1_500_000 {
		t.Fatalf("eval event lost metrics: %+v", ev)
	}
	if pr := events[7]; pr.Evaluated != 40 || pr.Selected != 8 || pr.Dropped != 3 {
		t.Fatalf("prune event lost counts: %+v", pr)
	}
	if ee := events[8]; ee.EstLatency != 4.25 || ee.FullLatency != 4.31 || ee.RelErrPct != 1.4 {
		t.Fatalf("estimator-error event lost fields: %+v", ee)
	}
}

func TestDecodeJSONLRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSONL(strings.NewReader(`{"seq":1,"kind":"eval","bogus":3}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
	if _, err := DecodeJSONL(strings.NewReader(`{truncated`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestRingWrapsAndOrders(t *testing.T) {
	r := NewRing(4)
	o := NewObserver(r)
	for i := 0; i < 10; i++ {
		o.PhaseStart("p")
	}
	if r.Total() != 10 {
		t.Fatalf("total = %d, want 10", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("retained %d, want 4", len(evs))
	}
	for i, ev := range evs {
		if ev.Seq != uint64(7+i) {
			t.Fatalf("retained seq %d at %d, want oldest-first 7..10", ev.Seq, i)
		}
	}
}

func TestNewObserverNoSinksIsDisabled(t *testing.T) {
	if o := NewObserver(); o.Enabled() {
		t.Fatal("sinkless observer reports enabled")
	}
	if o := NewObserver(nil, nil); o != nil {
		t.Fatal("nil sinks produced a live observer")
	}
}

// TestNilObserverZeroAlloc is the hot-path guarantee: emitting through
// a nil observer and updating live registry instruments must not
// allocate.
func TestNilObserverZeroAlloc(t *testing.T) {
	var o *Observer
	reg := NewRegistry()
	c := reg.Counter("x")
	h := reg.Histogram("y")
	g := reg.Gauge("z")
	allocs := testing.AllocsPerRun(100, func() {
		o.PhaseStart("p")
		o.Eval(Evaluation{Mem: "m", Conn: "c"})
		o.Prune("s", "m", 10, 2, 0)
		o.RunEnd("b", time.Second, nil)
		c.Inc()
		c.Add(5)
		h.Observe(12)
		g.Set(3.5)
	})
	if allocs != 0 {
		t.Fatalf("nil observer and registry instruments allocated %.1f per op, want 0", allocs)
	}
	if o.Enabled() {
		t.Fatal("nil observer reports enabled")
	}
	// AllocsPerRun makes one warm-up call before its 100 measured runs.
	if c.Value() != 6*101 || h.Count() != 101 || h.Sum() != 12*101 || g.Value() != 3.5 {
		t.Fatalf("instruments lost updates: counter %d, histogram %d/%v, gauge %v",
			c.Value(), h.Count(), h.Sum(), g.Value())
	}
}

func TestHistogramQuantiles(t *testing.T) {
	reg := NewRegistry()
	h := reg.Histogram("lat")
	// 1000 observations uniform on [0, 1000).
	for i := 0; i < 1000; i++ {
		h.Observe(float64(i))
	}
	checks := []struct{ q, lo, hi float64 }{
		{0.50, 350, 700},
		{0.95, 800, 1000},
		{0.99, 900, 1000},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.lo || got > c.hi {
			t.Fatalf("q%.2f = %.1f, want within [%.0f, %.0f]", c.q, got, c.lo, c.hi)
		}
	}
	s := reg.Snapshot()
	st, ok := s.Histograms["lat"]
	if !ok {
		t.Fatal("snapshot missing histogram")
	}
	if st.Count != 1000 || st.Min != 0 || st.Max != 999 {
		t.Fatalf("snapshot stats wrong: %+v", st)
	}
	if st.Mean < 450 || st.Mean > 550 {
		t.Fatalf("mean = %.1f, want ~499.5", st.Mean)
	}
	if st.P50 > st.P95 || st.P95 > st.P99 {
		t.Fatalf("quantiles not monotone: %+v", st)
	}

	// 1000 observations uniform on the integers 900..1099 straddle the
	// 1024 bucket boundary, and the upper bucket is mostly empty above
	// the maximum: interpolating over [1024, 2048) and clamping to the
	// maximum afterwards reported p95 == p99 == 1099.
	h = reg.Histogram("straddle")
	for i := 0; i < 1000; i++ {
		h.Observe(float64(900 + i/5))
	}
	st = reg.Snapshot().Histograms["straddle"]
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"p50", st.P50, 999.5}, {"p95", st.P95, 1089}, {"p99", st.P99, 1097},
	} {
		if math.Abs(c.got-c.want) > 0.02*c.want {
			t.Errorf("%s = %.1f, want within 2%% of %.1f", c.name, c.got, c.want)
		}
	}
	if st.P95 >= st.P99 {
		t.Errorf("p95 %.1f not below p99 %.1f", st.P95, st.P99)
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("evals").Add(7)
	reg.Counter("evals").Inc()
	reg.Gauge("workers").Set(8)
	s := reg.Snapshot()
	if s.Counters["evals"] != 8 {
		t.Fatalf("counter = %d, want 8", s.Counters["evals"])
	}
	if s.Gauges["workers"] != 8 {
		t.Fatalf("gauge = %v, want 8", s.Gauges["workers"])
	}
	if len(s.Histograms) != 0 {
		t.Fatal("unexpected histograms in snapshot")
	}
}

func TestProgressSink(t *testing.T) {
	var buf bytes.Buffer
	p := NewProgress(&buf, 2)
	o := NewObserver(p)
	o.PhaseStart("conex/estimate")
	for i := 0; i < 5; i++ {
		o.Eval(Evaluation{Cost: 1000, Latency: 4})
	}
	o.RunEnd("b", time.Second, nil)
	if err := o.Close(); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "conex/estimate") || !strings.Contains(out, "5 evals") {
		t.Fatalf("progress output missing status: %q", out)
	}
	if !strings.HasSuffix(out, "\n") {
		t.Fatal("progress line not finished with newline")
	}
}
