package main

import (
	"math"
	"strings"
	"testing"
)

func bench(ns, bop, allocs float64) Bench {
	return Bench{Iterations: 1, Metrics: map[string]float64{
		"ns/op": ns, "B/op": bop, "allocs/op": allocs,
	}}
}

func TestParseLine(t *testing.T) {
	name, b, ok := parseLine("BenchmarkFigure4-8   3   812345678 ns/op   1024 B/op   12 allocs/op")
	if !ok || name != "BenchmarkFigure4" {
		t.Fatalf("parseLine: ok=%v name=%q", ok, name)
	}
	if b.Iterations != 3 || b.Metrics["ns/op"] != 812345678 || b.Metrics["B/op"] != 1024 || b.Metrics["allocs/op"] != 12 {
		t.Fatalf("parseLine metrics: %+v", b)
	}
	for _, junk := range []string{"", "ok  memorex 1.2s", "PASS", "Benchmark", "BenchmarkX notanint 5 ns/op"} {
		if _, _, ok := parseLine(junk); ok {
			t.Fatalf("parseLine accepted %q", junk)
		}
	}
}

// TestPrintDeltasGate: the compare gate fails on >10% ns/op growth, on
// >10% B/op growth, and passes improvements and small noise.
func TestPrintDeltasGate(t *testing.T) {
	cases := []struct {
		name     string
		old, cur Bench
		pass     bool
		want     string
	}{
		{"unchanged", bench(100, 50, 2), bench(100, 50, 2), true, ""},
		{"faster", bench(100, 50, 2), bench(50, 40, 1), true, ""},
		{"small noise", bench(100, 50, 2), bench(109, 54, 2), true, ""},
		{"ns regression", bench(100, 50, 2), bench(120, 50, 2), false, "REGRESSION"},
		{"alloc regression", bench(100, 50, 2), bench(100, 60, 2), false, "ALLOC-REGRESSION"},
		{"both regress", bench(100, 50, 2), bench(120, 60, 2), false, "REGRESSION ALLOC-REGRESSION"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var sb strings.Builder
			got := printDeltas(&sb, map[string]Bench{"BenchmarkX": c.old}, map[string]Bench{"BenchmarkX": c.cur})
			if got != c.pass {
				t.Fatalf("pass = %v, want %v\n%s", got, c.pass, sb.String())
			}
			if c.want != "" && !strings.Contains(sb.String(), c.want) {
				t.Fatalf("output lacks %q:\n%s", c.want, sb.String())
			}
		})
	}

	// No overlap between the reports is a failure, not a silent pass.
	var sb strings.Builder
	if printDeltas(&sb, map[string]Bench{"A": bench(1, 1, 1)}, map[string]Bench{"B": bench(1, 1, 1)}) {
		t.Fatal("disjoint reports passed the gate")
	}
}

// TestPrintDeltasOneSided: benchmarks present in only one report are
// skipped with a warning naming the side, not silently dropped, and
// the common benchmarks still gate normally.
func TestPrintDeltasOneSided(t *testing.T) {
	old := map[string]Bench{"BenchmarkShared": bench(100, 50, 2), "BenchmarkGone": bench(1, 1, 1)}
	cur := map[string]Bench{"BenchmarkShared": bench(100, 50, 2), "BenchmarkNew": bench(1, 1, 1)}
	var sb strings.Builder
	if !printDeltas(&sb, old, cur) {
		t.Fatalf("unchanged shared benchmark failed the gate:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{
		"skipping BenchmarkGone (only in the old report)",
		"skipping BenchmarkNew (only in the new report)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks warning %q:\n%s", want, out)
		}
	}
	// Each one-sided benchmark appears exactly once — in its warning —
	// and never as a delta-table row.
	if strings.Count(out, "BenchmarkGone") != 1 || strings.Count(out, "BenchmarkNew") != 1 {
		t.Errorf("one-sided benchmark leaked into the delta table:\n%s", out)
	}
}

// TestPrintSearchMetrics: search-* units (evals, coverage) surface in
// -compare output, a >2-point coverage drop warns without failing the
// gate, and improvements or small noise stay quiet.
func TestPrintSearchMetrics(t *testing.T) {
	searchBench := func(evals, coverage float64) Bench {
		return Bench{Iterations: 1, Metrics: map[string]float64{
			"ns/op": 100, "B/op": 50, "allocs/op": 2,
			"search-evals": evals, "search-coverage-pct": coverage,
		}}
	}

	old := map[string]Bench{"BenchmarkSearchGA": searchBench(600, 97)}

	// Coverage drop beyond 2 points: warn, but still pass the gate.
	var sb strings.Builder
	if !printDeltas(&sb, old, map[string]Bench{"BenchmarkSearchGA": searchBench(600, 90)}) {
		t.Fatalf("coverage drop failed the timing gate:\n%s", sb.String())
	}
	out := sb.String()
	for _, want := range []string{"search-evals", "search-coverage-pct",
		"warning: BenchmarkSearchGA search coverage dropped 97.0% -> 90.0% (-7.0 points)"} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}

	// Small noise and improvements stay quiet; the evals column still
	// prints.
	for _, quiet := range []float64{96, 97, 100} {
		sb.Reset()
		printDeltas(&sb, old, map[string]Bench{"BenchmarkSearchGA": searchBench(600, quiet)})
		if strings.Contains(sb.String(), "coverage dropped") {
			t.Errorf("coverage %v warned:\n%s", quiet, sb.String())
		}
		if !strings.Contains(sb.String(), "search-evals") {
			t.Errorf("coverage %v lost the search metric table:\n%s", quiet, sb.String())
		}
	}

	// Benchmarks with no search metrics print no search section.
	sb.Reset()
	printDeltas(&sb, map[string]Bench{"BenchmarkX": bench(100, 50, 2)},
		map[string]Bench{"BenchmarkX": bench(100, 50, 2)})
	if strings.Contains(sb.String(), "search metric") {
		t.Errorf("search section printed with no search metrics:\n%s", sb.String())
	}

	if got := metricVal(map[string]float64{}, "search-evals"); got != "-" {
		t.Errorf("metricVal for absent unit = %q, want -", got)
	}
}

// TestDelta: absent metrics are NaN (ignored by the gate), not zero.
func TestDelta(t *testing.T) {
	if d := delta(0, 100); !math.IsNaN(d) {
		t.Fatalf("delta from 0 = %v, want NaN", d)
	}
	if d := delta(100, 110); d != 10 {
		t.Fatalf("delta(100,110) = %v, want 10", d)
	}
	if pct(math.NaN()) != "-" {
		t.Fatal("pct(NaN) must render as -")
	}
}
