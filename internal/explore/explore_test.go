package explore

import (
	"context"
	"strings"
	"testing"

	"memorex/internal/apex"
	"memorex/internal/core"
	"memorex/internal/sampling"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// tinySpace builds a small but non-trivial space from a short compress
// trace so the Full driver stays fast in unit tests.
func tinySpace(t *testing.T) (*trace.Trace, *Space) {
	t.Helper()
	tr := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 42}).Slice(0, 60_000)
	res, err := apex.Explore(tr, nil, apex.Config{
		CacheSizes:  []int{2 << 10, 8 << 10, 32 << 10},
		CacheAssocs: []int{2},
		CacheLines:  []int{32},
		MaxCustom:   1,
		SRAMLimit:   80 << 10,
		MaxSelected: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, BuildSpace(res)
}

func tinyConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Sampling = sampling.Config{OnWindow: 500, OffRatio: 9}
	cfg.MaxAssignPerLevel = 12
	cfg.KeepPerArch = 4
	return cfg
}

func TestBuildSpace(t *testing.T) {
	_, sp := tinySpace(t)
	if len(sp.AllMem) != 6 { // 3 cache sizes x (with/without custom module)
		t.Fatalf("AllMem = %d, want 6", len(sp.AllMem))
	}
	if len(sp.SelectedMem) == 0 || len(sp.SelectedMem) > 3 {
		t.Fatalf("SelectedMem = %d", len(sp.SelectedMem))
	}
	if len(sp.NeighborMem) < len(sp.SelectedMem) {
		t.Fatal("neighborhood must include the selection")
	}
	if len(sp.NeighborMem) > len(sp.AllMem) {
		t.Fatal("neighborhood cannot exceed the full space")
	}
	// Selected architectures must appear in the neighborhood.
	inN := map[string]bool{}
	for _, a := range sp.NeighborMem {
		inN[a.Name] = true
	}
	for _, a := range sp.SelectedMem {
		if !inN[a.Name] {
			t.Fatalf("selected arch %s missing from neighborhood", a.Name)
		}
	}
}

func TestStrategiesEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space simulation is slow")
	}
	tr, sp := tinySpace(t)
	cfg := tinyConfig()

	full, err := Run(context.Background(), tr, sp, Full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pruned, err := Run(context.Background(), tr, sp, Pruned, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nbhd, err := Run(context.Background(), tr, sp, Neighborhood, cfg)
	if err != nil {
		t.Fatal(err)
	}

	if len(full.Points) <= len(pruned.Points) {
		t.Fatalf("full (%d pts) should evaluate more than pruned (%d pts)",
			len(full.Points), len(pruned.Points))
	}
	if full.WorkAccesses <= pruned.WorkAccesses {
		t.Fatalf("pruned work (%d) should be below full work (%d)",
			pruned.WorkAccesses, full.WorkAccesses)
	}
	if nbhd.WorkAccesses < pruned.WorkAccesses {
		t.Fatal("neighborhood should cost at least as much as pruned")
	}

	cmp := Compare("compress", full, pruned, nbhd)
	if len(cmp.Metrics) != 3 {
		t.Fatal("comparison missing strategies")
	}
	fullM, prunedM, nbhdM := cmp.Metrics[0], cmp.Metrics[1], cmp.Metrics[2]
	if fullM.Coverage != 1 {
		t.Fatalf("full self-coverage = %v, want 1", fullM.Coverage)
	}
	if prunedM.Coverage < 0.2 {
		t.Fatalf("pruned coverage %.2f implausibly low — pruning is broken", prunedM.Coverage)
	}
	if nbhdM.Coverage < prunedM.Coverage-1e-9 {
		t.Fatalf("neighborhood coverage (%.2f) below pruned (%.2f)",
			nbhdM.Coverage, prunedM.Coverage)
	}
	// Missed points must be approximated closely (paper: a few percent).
	if prunedM.Distance.Missed > 0 && prunedM.Distance.CostPct > 25 {
		t.Fatalf("pruned approximation too far: %+v", prunedM.Distance)
	}
	out := cmp.String()
	for _, want := range []string{"Coverage", "cost dist", "pruned", "full"} {
		if !strings.Contains(out, want) {
			t.Fatalf("comparison table missing %q:\n%s", want, out)
		}
	}
}

func TestRunValidation(t *testing.T) {
	tr, sp := tinySpace(t)
	cfg := tinyConfig()
	if _, err := Run(context.Background(), tr, sp, Strategy(9), cfg); err == nil {
		t.Fatal("unknown strategy accepted")
	}
	bad := cfg
	bad.KeepPerArch = 0
	if _, err := Run(context.Background(), tr, sp, Pruned, bad); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestStrategyString(t *testing.T) {
	if Full.String() != "full" || Pruned.String() != "pruned" || Neighborhood.String() != "neighborhood" {
		t.Fatal("strategy strings wrong")
	}
	if !strings.Contains(Strategy(7).String(), "7") {
		t.Fatal("unknown strategy should embed value")
	}
}

func TestNeighborhoodExpandsAndDedups(t *testing.T) {
	tr, sp := tinySpace(t)
	cfg := tinyConfig()
	pruned, err := Run(context.Background(), tr, sp, Pruned, cfg)
	if err != nil {
		t.Fatal(err)
	}
	nbhd, err := Run(context.Background(), tr, sp, Neighborhood, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbhd.Points) <= len(pruned.Points) {
		t.Fatalf("neighborhood (%d) should evaluate more designs than pruned (%d)",
			len(nbhd.Points), len(pruned.Points))
	}
	// No duplicate (memory, connectivity) pairs in the neighborhood
	// output: identical designs have identical metric triples, so count
	// triples per memory architecture name.
	type key struct {
		name                  string
		cost, latency, energy float64
	}
	seen := map[key]int{}
	for _, p := range nbhd.Points {
		k := key{p.MemArch.Name, p.Cost, p.Latency, p.Energy}
		seen[k]++
		if seen[k] > 1 {
			t.Fatalf("duplicate design simulated twice: %+v", k)
		}
	}
}

// TestNeighborhoodKeepsPhaseI: a Neighborhood run's result keeps the
// Phase I clouds of its ExploreBRGs run, so the estimated designs it
// reports are the run's sampled evaluations, and its estimated and
// simulated accesses are the engine's sampled and full ones.
func TestNeighborhoodKeepsPhaseI(t *testing.T) {
	tr, sp := tinySpace(t)
	out, err := Run(context.Background(), tr, sp, Neighborhood, tinyConfig())
	if err != nil {
		t.Fatal(err)
	}
	res := out.Result
	estimated := 0
	for _, pts := range res.PerArch {
		estimated += len(pts)
	}
	if estimated == 0 || int64(estimated) != out.Stats.SampledSimulations {
		t.Fatalf("Phase I clouds hold %d designs, the run made %d sampled evaluations",
			estimated, out.Stats.SampledSimulations)
	}
	if len(res.PerArch) != len(sp.NeighborMem) {
		t.Fatalf("%d Phase I clouds for %d neighbor architectures", len(res.PerArch), len(sp.NeighborMem))
	}
	if res.EstimatedAccesses != out.Stats.SampledAccesses || res.SimulatedAccesses != out.Stats.FullAccesses {
		t.Fatalf("result work %d estimated + %d simulated, engine %d sampled + %d full",
			res.EstimatedAccesses, res.SimulatedAccesses, out.Stats.SampledAccesses, out.Stats.FullAccesses)
	}
	if len(res.Combined) != len(out.Points) {
		t.Fatalf("result holds %d designs, the run simulated %d", len(res.Combined), len(out.Points))
	}
}
