package main

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 99)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := percentile(xs, 0.9); err == nil {
		t.Fatal("p90 of 99 samples was accepted; it needs 100")
	}
	xs = append(xs, 99)
	p90, err := percentile(xs, 0.9)
	if err != nil {
		t.Fatalf("p90 of 100 samples: %v", err)
	}
	if math.Abs(p90-89.1) > 1e-9 {
		t.Errorf("p90 = %v, want 89.1", p90)
	}
	if m := median([]float64{7}); m != 7 {
		t.Errorf("median of one sample = %v, want 7", m)
	}
}

// The quartiles must be Python's statistics.quantiles(xs, n=4), the
// figures the benchmark's spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.0, 2.25}, [3]float64{1.0, 2.25, 3.5}},
		{[]float64{5, 1}, [3]float64{0.0, 3.0, 6.0}},
		{[]float64{10, 12, 11, 13, 9, 30, 8, 11.5, 10.5, 12.5}, [3]float64{9.75, 11.25, 12.625}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

// Compare mode pairs runs by seed, fails on an unpaired run or too few
// pairs, and fails on a worse verdict or an unresolved one on any
// metric but setup_s.
func TestCompareRunsPairsBySeed(t *testing.T) {
	spec := &benchSpec{
		Workloads: []workloadSpec{{Name: "w"}},
		EndToEnd: []metricSpec{
			{Name: "op_p50_ms", Unit: "ms", Better: "lower", Bound: 0.1},
			{Name: setupMetric, Unit: "s", Better: "lower", Bound: 0.25},
		},
	}
	// set makes one run per value of op_p50_ms, seeds 1, 2, …, each with
	// a set-up time of 0.3 s.
	set := func(name string, values ...float64) []savedRun {
		var runs []savedRun
		for i, v := range values {
			runs = append(runs, savedRun{path: fmt.Sprintf("%s/%d.out", name, i), workload: "w", seed: int64(i + 1),
				res: result{Correct: true, Attempted: 1, Metrics: map[string]metricValue{"op_p50_ms": {Value: v}, setupMetric: {Value: 0.3}}}})
		}
		return runs
	}
	withSetups := func(runs []savedRun, setups ...float64) []savedRun {
		for i := range runs {
			runs[i].res.Metrics[setupMetric] = metricValue{Value: setups[i]}
		}
		return runs
	}
	base := set("base", 100, 200, 100, 200, 100, 200, 100, 200, 100, 200)
	for _, tc := range []struct {
		name       string
		base, next []savedRun
		ok         bool
	}{
		{"same speed, drifting host", base, set("new", 101, 199, 100, 201, 99, 200, 101, 199, 100, 200), true},
		{"slower in every pair", base, set("new", 130, 260, 130, 260, 130, 260, 130, 260, 130, 260), false},
		{"unresolved", base, set("new", 60, 280, 100, 150, 140, 200, 70, 260, 120, 190), false},
		{"unresolved set-up", base, withSetups(set("new", 100, 200, 100, 200, 100, 200, 100, 200, 100, 200),
			0.15, 0.45, 0.3, 0.2, 0.42, 0.3, 0.18, 0.4, 0.36, 0.27), true},
		{"slower set-up", base, withSetups(set("new", 100, 200, 100, 200, 100, 200, 100, 200, 100, 200),
			0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4, 0.4), false},
		{"unpaired run", base, set("new", 100, 200, 100, 200, 100, 200, 100, 200, 100, 200, 150), false},
		{"too few pairs", set("base", 100, 200, 100, 200, 100), set("new", 100, 200, 100, 200, 100), false},
	} {
		var out strings.Builder
		if got := compareRuns(spec, tc.base, tc.next, &out); got != tc.ok {
			t.Errorf("%s: compare passed = %v, want %v\n%s", tc.name, got, tc.ok, out.String())
		}
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	times := func(xs, fs []float64) []float64 {
		out := make([]float64, len(xs))
		for i := range xs {
			out[i] = xs[i] * fs[i]
		}
		return out
	}
	// noise moves each new run independently of its base run; drift moves
	// both runs of a pair, as a slow stretch of the host does.
	noise := []float64{0.6, 1.4, 0.8, 1.2, 1.0, 0.7, 1.3, 0.9, 1.1, 1.0}
	drift := []float64{1.0, 1.9, 1.1, 1.0, 2.0, 1.0, 1.2, 1.8, 1.0, 1.1}
	drifting := times(steady, drift)
	for _, tc := range []struct {
		name          string
		base, next    []float64
		lowerIsBetter bool
		want          string
	}{
		{"same", steady, steady, true, verdictUnchanged},
		{"within bound", steady, scale(steady, 1.05), true, verdictUnchanged},
		{"slower past bound", steady, scale(steady, 1.2), true, verdictWorse},
		{"faster", steady, scale(steady, 0.8), true, verdictBetter},
		{"higher is better", steady, scale(steady, 1.2), false, verdictBetter},
		{"lower throughput", steady, scale(steady, 0.8), false, verdictWorse},
		{"noisy pairs", steady, times(steady, noise), true, verdictUnresolved},
		{"noisy but twice as slow", steady, scale(times(steady, noise), 2), true, verdictWorse},
		{"noisy but always faster", scale(steady, 2), times(steady, noise), true, verdictBetter},
		{"host drift cancels in pairs", drifting, drifting, true, verdictUnchanged},
		// A gain is claimed only beyond the base runs' own spread.
		{"gain within the base runs' spread", drifting, scale(drifting, 0.8), true, verdictUnchanged},
		{"loss under host drift", drifting, scale(drifting, 1.2), true, verdictWorse},
	} {
		if got := verdict(tc.base, tc.next, tc.lowerIsBetter, 0.1); got.verdict != tc.want {
			t.Errorf("%s: verdict = %s (change %+.3f, spread %.3f, wins %d), want %s",
				tc.name, got.verdict, got.change, got.ratioSpread, got.wins, tc.want)
		}
	}
}
