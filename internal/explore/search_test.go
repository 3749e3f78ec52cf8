package explore

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"memorex/internal/apex"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/trace"
	"memorex/internal/workload"
)

// gateSpace builds the quality-gate scenario: a deeper design space
// than tinySpace (two custom-module slots, so connectivity hierarchies
// reach six channels) where Full enumeration means ~7400 simulations
// but the pareto front stays compact — the regime the heuristic
// drivers exist for.
func gateSpace(t *testing.T) (*trace.Trace, *Space) {
	t.Helper()
	tr := workload.Compress{}.Generate(workload.Config{Scale: 1, Seed: 42}).Slice(0, 30_000)
	res, err := apex.Explore(tr, nil, apex.Config{
		CacheSizes:  []int{2 << 10, 8 << 10, 32 << 10},
		CacheAssocs: []int{2},
		CacheLines:  []int{32},
		MaxCustom:   2,
		SRAMLimit:   80 << 10,
		MaxSelected: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr, BuildSpace(res)
}

// searchConfig pins the heuristic knobs of the quality-gate scenario:
// a fixed seed and an evaluation budget of ~8% of the Full ground
// truth (~7400 designs on the gateSpace scenario), comfortably inside
// the 25%-of-Full simulation gate.
func searchConfig() core.SearchConfig {
	return core.SearchConfig{Seed: 42, Budget: 600, Population: 24}
}

// TestSearchCoverageQualityGate is the executable form of the paper's
// Table 2 comparison: on a scenario where Full ground truth is cheap,
// both heuristic drivers must recover >=90% pareto coverage while
// running at most 25% of Full's simulations. It runs in make check; a
// regression in either driver or in the evaluation economy (memo
// cache, estimator, promotion rule) fails it.
func TestSearchCoverageQualityGate(t *testing.T) {
	if testing.Short() {
		t.Skip("full-space ground truth is slow")
	}
	tr, sp := gateSpace(t)
	cfg := tinyConfig()
	cfg.Search = searchConfig()
	// Lift the enumeration cap: the heuristic drivers walk the full
	// cross-product space, so the ground truth must too.
	cfg.MaxAssignPerLevel = 0

	full, err := Run(context.Background(), tr, sp, Full, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if full.Stats.Simulations == 0 {
		t.Fatal("full run reported no simulations")
	}
	for _, strategy := range []Strategy{GA, SA} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			out, err := Run(context.Background(), tr, sp, strategy, cfg)
			if err != nil {
				t.Fatal(err)
			}
			cmp := Compare("compress", full, out)
			m := cmp.Metrics[1]
			t.Logf("%s: coverage %.0f%% sims %d/%d evals %d front %d",
				strategy, m.Coverage*100, out.Stats.Simulations,
				full.Stats.Simulations, m.Evals, len(out.Front))
			if m.Coverage < 0.90 {
				t.Errorf("%s coverage %.1f%% below the 90%% gate\n%s",
					strategy, m.Coverage*100, cmp)
			}
			if lim := full.Stats.Simulations / 4; out.Stats.Simulations > lim {
				t.Errorf("%s ran %d simulations, above the 25%% budget gate (%d)",
					strategy, out.Stats.Simulations, lim)
			}
			if out.Search == nil {
				t.Fatal("heuristic outcome missing search provenance")
			}
			if out.Search.Strategy != strategy.String() || out.Search.Seed != 42 {
				t.Errorf("provenance = %+v", out.Search)
			}
			if out.Search.Evals <= 0 || out.Search.Evals > int64(cfg.Search.Budget) {
				t.Errorf("evals %d outside (0, budget=%d]", out.Search.Evals, cfg.Search.Budget)
			}
			if out.Search.Promotions != int64(len(out.Points)) {
				t.Errorf("promotions %d != %d simulated points",
					out.Search.Promotions, len(out.Points))
			}
		})
	}
}

// TestSearchSeededDeterminism mirrors the PR 1 engine guarantee at the
// driver level: the same SearchConfig.Seed must produce byte-identical
// fronts and identical design lists at Workers=1 and Workers=8. Run
// under -race this also proves the drivers share no unsynchronized
// state with the engine workers.
func TestSearchSeededDeterminism(t *testing.T) {
	tr, sp := tinySpace(t)
	for _, strategy := range []Strategy{GA, SA} {
		strategy := strategy
		t.Run(strategy.String(), func(t *testing.T) {
			var fronts [][]byte
			var labels []string
			for _, workers := range []int{1, 8} {
				cfg := tinyConfig()
				cfg.Search = searchConfig()
				cfg.Search.Budget = 120
				cfg.Engine = engine.New(workers)
				out, err := Run(context.Background(), tr, sp, strategy, cfg)
				if err != nil {
					t.Fatal(err)
				}
				front, err := json.Marshal(out.Front)
				if err != nil {
					t.Fatal(err)
				}
				fronts = append(fronts, front)
				list := ""
				for _, p := range out.Points {
					list += fmt.Sprintf("%s|%s|%.6g|%.6g|%.6g\n",
						p.MemArch.Name, p.Conn.Describe(p.MemArch), p.Cost, p.Latency, p.Energy)
				}
				labels = append(labels, list)
			}
			if !bytes.Equal(fronts[0], fronts[1]) {
				t.Errorf("fronts differ between Workers=1 and Workers=8:\n%s\nvs\n%s",
					fronts[0], fronts[1])
			}
			if labels[0] != labels[1] {
				t.Errorf("design lists differ between Workers=1 and Workers=8:\n%s\nvs\n%s",
					labels[0], labels[1])
			}
		})
	}
}

// TestSearchDifferentSeedsDiffer guards against the seed being ignored:
// two distinct seeds should walk distinct trajectories (identical
// output would mean the PRNG split is broken or unused).
func TestSearchDifferentSeedsDiffer(t *testing.T) {
	tr, sp := tinySpace(t)
	var lists []string
	for _, seed := range []int64{1, 99} {
		cfg := tinyConfig()
		cfg.Search = core.SearchConfig{Seed: seed, Budget: 80, Population: 16}
		out, err := Run(context.Background(), tr, sp, GA, cfg)
		if err != nil {
			t.Fatal(err)
		}
		list := ""
		for _, p := range out.Points {
			list += fmt.Sprintf("%s|%s\n", p.MemArch.Name, p.Conn.Describe(p.MemArch))
		}
		lists = append(lists, list)
	}
	if lists[0] == lists[1] {
		t.Error("seeds 1 and 99 produced identical design lists — seed unused?")
	}
}

// TestSearchBudgetRespected verifies the driver never issues more
// engine requests than its budget.
func TestSearchBudgetRespected(t *testing.T) {
	tr, sp := tinySpace(t)
	for _, strategy := range []Strategy{GA, SA} {
		cfg := tinyConfig()
		cfg.Search = core.SearchConfig{Seed: 7, Budget: 40, Population: 16}
		out, err := Run(context.Background(), tr, sp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if out.Stats.Requests > int64(cfg.Search.Budget) {
			t.Errorf("%s issued %d requests, budget %d", strategy, out.Stats.Requests, cfg.Search.Budget)
		}
		if out.Search.Evals != out.Stats.Requests {
			t.Errorf("%s provenance evals %d != engine requests %d",
				strategy, out.Search.Evals, out.Stats.Requests)
		}
	}
}

// TestSearchTinyBudgetPromotes pins the promotion reserve: a budget
// dwarfed by the space (smaller than the seeding sweep alone) must
// still return fully simulated points, never an empty front — the
// estimates may not starve the final promotion pass.
func TestSearchTinyBudgetPromotes(t *testing.T) {
	tr, sp := tinySpace(t)
	for _, strategy := range []Strategy{GA, SA} {
		cfg := tinyConfig()
		cfg.Search = core.SearchConfig{Seed: 3, Budget: 8, Population: 16}
		out, err := Run(context.Background(), tr, sp, strategy, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if len(out.Points) == 0 || len(out.Front) == 0 {
			t.Errorf("%s with budget 8 produced %d points, front %d — promotion starved",
				strategy, len(out.Points), len(out.Front))
		}
		if out.Search.Promotions == 0 {
			t.Errorf("%s with budget 8 recorded no promotions", strategy)
		}
		if out.Stats.Requests > 8 {
			t.Errorf("%s overspent: %d requests for budget 8", strategy, out.Stats.Requests)
		}
	}
}

// TestSearchInvalidConfig checks that out-of-range search knobs are
// rejected before any simulation happens.
func TestSearchInvalidConfig(t *testing.T) {
	tr, sp := tinySpace(t)
	cfg := tinyConfig()
	cfg.Search.Budget = -1
	if _, err := Run(context.Background(), tr, sp, GA, cfg); err == nil {
		t.Fatal("negative Budget accepted")
	}
	cfg = tinyConfig()
	cfg.Search.Population = -1
	if _, err := Run(context.Background(), tr, sp, SA, cfg); err == nil {
		t.Fatal("negative Population accepted")
	}
}

// TestParseStrategy pins the strategy-name round trip the CLI and wire
// format rely on.
func TestParseStrategy(t *testing.T) {
	for _, s := range []Strategy{Full, Pruned, Neighborhood, GA, SA} {
		got, err := ParseStrategy(s.String())
		if err != nil || got != s {
			t.Fatalf("round trip %v: got %v, %v", s, got, err)
		}
	}
	if _, err := ParseStrategy("tabu"); err == nil {
		t.Fatal("unknown strategy name accepted")
	}
}
