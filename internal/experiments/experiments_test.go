package experiments

import (
	"context"
	"strings"
	"testing"

	"memorex/internal/engine"
)

func TestFigure3Quick(t *testing.T) {
	res, err := Figure3(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 6 {
		t.Fatalf("figure 3 evaluated only %d designs", len(res.Rows))
	}
	sel := res.SelectedRows()
	if len(sel) == 0 || len(sel) > 5 {
		t.Fatalf("selected %d designs, want 1..5", len(sel))
	}
	// The selected designs form a descending-miss-ratio staircase.
	for i := 1; i < len(sel); i++ {
		if sel[i].Gates <= sel[i-1].Gates || sel[i].MissRatio >= sel[i-1].MissRatio {
			t.Fatalf("selected points not a pareto staircase: %+v", sel)
		}
	}
	s := res.String()
	if !strings.Contains(s, "Figure 3") || !strings.Contains(s, "missratio") {
		t.Fatalf("rendering wrong:\n%s", s)
	}
	if res.Work == 0 {
		t.Fatal("work not recorded")
	}
}

func TestFigure4Quick(t *testing.T) {
	res, err := Figure4(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if res.CloudSize < 20 {
		t.Fatalf("cloud too small: %d", res.CloudSize)
	}
	if len(res.Front) < 2 {
		t.Fatalf("front too small: %d", len(res.Front))
	}
	// The paper's headline: significant latency improvement across the
	// front (36% for compress; we require a meaningful spread).
	if res.ImprovementPct < 15 {
		t.Fatalf("latency improvement %.1f%% too small for the paper's claim", res.ImprovementPct)
	}
	if res.BestLatency >= res.WorstLatency {
		t.Fatal("front endpoints inverted")
	}
	if res.EstimatedAccesses == 0 || res.SimulatedAccesses == 0 {
		t.Fatal("work split not recorded")
	}
	if !strings.Contains(res.String(), "improvement") {
		t.Fatal("rendering missing improvement line")
	}
}

func TestFigure6Quick(t *testing.T) {
	res, err := Figure6(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) < 2 {
		t.Fatalf("too few annotated designs: %d", len(res.Rows))
	}
	// Labels are a, b, c, ...
	if res.Rows[0].Label != "a" || res.Rows[1].Label != "b" {
		t.Fatalf("labels wrong: %+v", res.Rows)
	}
	// Custom architectures must beat the best traditional one (the
	// paper's central claim for compress).
	if res.BestGainPct <= 0 {
		t.Fatalf("no gain over traditional architectures: %.2f%%", res.BestGainPct)
	}
	s := res.String()
	if !strings.Contains(s, "traditional") {
		t.Fatalf("rendering missing reference note:\n%s", s)
	}
}

func TestTable1Quick(t *testing.T) {
	res, err := Table1(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range Table1Benchmarks {
		rows := res.RowsFor(name)
		if len(rows) < 2 {
			t.Fatalf("%s: only %d rows", name, len(rows))
		}
		// Rows are a cost/latency front: ascending cost, descending
		// latency.
		for i := 1; i < len(rows); i++ {
			if rows[i].Cost <= rows[i-1].Cost || rows[i].Latency >= rows[i-1].Latency {
				t.Fatalf("%s rows not a front: %+v", name, rows)
			}
		}
		// Energies and latencies must be plausible (nonzero, bounded).
		for _, r := range rows {
			if r.Energy <= 0 || r.Energy > 100 || r.Latency <= 0 || r.Latency > 200 {
				t.Fatalf("%s: implausible row %+v", name, r)
			}
		}
	}
	s := res.String()
	if !strings.Contains(s, "compress") || !strings.Contains(s, "vocoder") {
		t.Fatalf("rendering missing benchmarks:\n%s", s)
	}
	if !strings.Contains(res.Detailed(), "designs:") {
		t.Fatal("detailed rendering missing designs")
	}
}

func TestTable2Quick(t *testing.T) {
	if testing.Short() {
		t.Skip("table 2 runs the Full strategy")
	}
	res, err := Table2(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Comparisons) != 2 {
		t.Fatalf("want 2 comparisons, got %d", len(res.Comparisons))
	}
	for _, c := range res.Comparisons {
		if len(c.Metrics) != 3 {
			t.Fatalf("%s: want 3 strategies", c.Benchmark)
		}
		full, pruned, nbhd := c.Metrics[0], c.Metrics[1], c.Metrics[2]
		if full.Coverage != 1 {
			t.Fatalf("%s: full coverage %.2f != 1", c.Benchmark, full.Coverage)
		}
		if pruned.WorkAccesses >= full.WorkAccesses {
			t.Fatalf("%s: pruning did not reduce work (%d vs %d)",
				c.Benchmark, pruned.WorkAccesses, full.WorkAccesses)
		}
		if nbhd.Coverage < pruned.Coverage-1e-9 {
			t.Fatalf("%s: neighborhood coverage below pruned", c.Benchmark)
		}
	}
	// The projected Full work for li must dwarf what pruned runs cost
	// (the paper's infeasibility claim).
	if res.LiProjectedFullAccesses < 100_000_000 {
		t.Fatalf("li projected full work %d implausibly small", res.LiProjectedFullAccesses)
	}
	if !strings.Contains(res.String(), "li omitted") {
		t.Fatal("rendering missing li note")
	}
}

func TestFigureEnergyQuick(t *testing.T) {
	res, err := FigureEnergy(context.Background(), Quick())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.CostEnergy) == 0 || len(res.LatencyEnergy) == 0 {
		t.Fatal("energy fronts empty")
	}
	// Both fronts must be monotone staircases.
	for i := 1; i < len(res.LatencyEnergy); i++ {
		if res.LatencyEnergy[i].Latency <= res.LatencyEnergy[i-1].Latency ||
			res.LatencyEnergy[i].Energy >= res.LatencyEnergy[i-1].Energy {
			t.Fatal("latency/energy front malformed")
		}
	}
	// The 3-D set contains at least as many designs as any projection.
	if len(res.Front3D) < len(res.CostEnergy) || len(res.Front3D) < len(res.LatencyEnergy) {
		t.Fatal("3-D front smaller than a projection")
	}
	s := res.String()
	if !strings.Contains(s, "performance/power") || !strings.Contains(s, "3-D pareto") {
		t.Fatalf("rendering incomplete:\n%s", s)
	}
}

// TestPrivateEngineWorkers: the private engines of Table 2 and the
// search experiment are fresh engines with the shared engine's worker
// bound, so paperbench -workers 1 runs them on one worker too.
func TestPrivateEngineWorkers(t *testing.T) {
	opt := Quick()
	opt.ConEx.Engine = engine.New(1)
	cfg := opt.onPrivateEngine(opt.Table2ConEx)
	if cfg.Engine == nil || cfg.Engine == opt.Engine() {
		t.Fatal("strategy run shares the figure experiments' engine")
	}
	if got := cfg.Engine.Workers(); got != 1 {
		t.Fatalf("private engine has %d workers, want the shared engine's 1", got)
	}
}
