package main

import (
	"context"
	"runtime"
	"strings"
	"testing"
)

// TestInProcessSmoke runs two ops of each in-process workload on the
// default seed, output checks and golden fronts included.
func TestInProcessSmoke(t *testing.T) {
	golden, err := readGolden(goldenPath("..", defaultSeed))
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{wPrunedCold, wFullSpace, wSearchHeuristic} {
		t.Run(w, func(t *testing.T) {
			t.Parallel() // set-up generates traces on one core
			cfg := &runConfig{workload: w, seed: defaultSeed, root: "..", workers: runtime.NumCPU(), maxOps: 2}
			res, err := runInProcess(context.Background(), cfg, golden)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted != 2 || res.failed != 0 || len(res.lat) != 2 || len(res.setups) != setupRuns {
				t.Errorf("attempted %d, failed %d, %d latencies, %d set-ups", res.attempted, res.failed, len(res.lat), len(res.setups))
			}
			if _, err := endToEnd(res); err == nil || !strings.Contains(err.Error(), "p90") {
				t.Errorf("end-to-end metrics of 2 ops: err = %v, want the p90 refusal", err)
			}
		})
	}
}
