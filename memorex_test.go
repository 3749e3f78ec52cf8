package memorex

import (
	"bytes"
	"context"
	"testing"

	"memorex/internal/apex"
	"memorex/internal/sampling"
)

// fastExplorer shrinks the spaces so the facade tests stay quick.
func fastExplorer(t *testing.T) *Explorer {
	t.Helper()
	conex := DefaultOptions("").ConEx
	conex.MaxAssignPerLevel = 16
	conex.KeepPerArch = 4
	conex.Sampling = sampling.Config{OnWindow: 500, OffRatio: 9}
	ex, err := NewExplorer(
		WithAPEXConfig(apex.Config{
			CacheSizes:  []int{2 << 10, 16 << 10},
			CacheAssocs: []int{2},
			CacheLines:  []int{32},
			MaxCustom:   1,
			SRAMLimit:   80 << 10,
			MaxSelected: 3,
		}),
		WithConExConfig(conex),
	)
	if err != nil {
		t.Fatal(err)
	}
	return ex
}

func TestExplorePipeline(t *testing.T) {
	rep, err := fastExplorer(t).Do(context.Background(), ExploreRequest{Benchmark: "vocoder"})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Trace.NumAccesses() == 0 {
		t.Fatal("no trace")
	}
	if len(rep.Profile.Stats) == 0 {
		t.Fatal("no profile")
	}
	if len(rep.APEX.Selected) == 0 {
		t.Fatal("APEX selected nothing")
	}
	if len(rep.ConEx.CostPerfFront) == 0 {
		t.Fatal("ConEx produced no front")
	}

	// Scenario selections respect their constraints.
	pts := rep.ConEx.Points()
	var maxE, maxC, maxL float64
	for _, p := range pts {
		if p.Energy > maxE {
			maxE = p.Energy
		}
		if p.Cost > maxC {
			maxC = p.Cost
		}
		if p.Latency > maxL {
			maxL = p.Latency
		}
	}
	for _, p := range rep.PowerConstrained(maxE / 2) {
		if p.Energy > maxE/2 {
			t.Fatal("power constraint violated")
		}
	}
	for _, p := range rep.CostConstrained(maxC / 2) {
		if p.Cost > maxC/2 {
			t.Fatal("cost constraint violated")
		}
	}
	for _, p := range rep.PerformanceConstrained(maxL) {
		if p.Latency > maxL {
			t.Fatal("latency constraint violated")
		}
	}
}

func TestGenerateTraceErrors(t *testing.T) {
	if _, err := GenerateTrace("nope", WorkloadConfig{}); err == nil {
		t.Fatal("unknown benchmark accepted")
	}
	tr, err := GenerateTrace("compress", WorkloadConfig{}) // zero config -> defaults
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumAccesses() == 0 {
		t.Fatal("default config produced empty trace")
	}
	// A non-zero but invalid config is an explicit error, not a silent
	// fallback to the defaults.
	if _, err := GenerateTrace("compress", WorkloadConfig{Scale: -2, Seed: 7}); err == nil {
		t.Fatal("negative scale accepted")
	}
	if _, err := GenerateTrace("compress", WorkloadConfig{Seed: 7}); err == nil {
		t.Fatal("partial config with zero scale accepted")
	}
}

func TestExploreTraceEmpty(t *testing.T) {
	req := ExploreRequest{Trace: &Trace{DS: nil}, Benchmark: "compress"}
	if _, err := fastExplorer(t).Do(context.Background(), req); err == nil {
		t.Fatal("empty trace accepted")
	}
}

func TestBenchmarksList(t *testing.T) {
	names := Benchmarks()
	if len(names) != 4 { // the paper's three + the jpegenc extension
		t.Fatalf("want 4 benchmarks, got %v", names)
	}
}

func TestReportJSONRoundTrip(t *testing.T) {
	rep, err := fastExplorer(t).Do(context.Background(), ExploreRequest{Benchmark: "vocoder"})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadReportJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != "vocoder" || got.Accesses != rep.Trace.NumAccesses() {
		t.Fatalf("report header wrong: %+v", got)
	}
	if len(got.Designs) != len(rep.ConEx.Combined) {
		t.Fatalf("designs = %d, want %d", len(got.Designs), len(rep.ConEx.Combined))
	}
	front := 0
	for _, d := range got.Designs {
		if d.OnFront {
			front++
		}
		if d.CostGates <= 0 || d.LatencyCyc <= 0 || d.EnergyNJ <= 0 {
			t.Fatalf("degenerate design row: %+v", d)
		}
	}
	if front != len(rep.ConEx.CostPerfFront) {
		t.Fatalf("front flags = %d, want %d", front, len(rep.ConEx.CostPerfFront))
	}
	if _, err := ReadReportJSON(bytes.NewReader([]byte("{bad"))); err == nil {
		t.Fatal("bad JSON accepted")
	}
}
