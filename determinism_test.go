package memorex

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// designsSection serializes a report with the engine stats and metrics
// stripped — the part that must be byte-identical across runs that
// legitimately differ in wall times and counters.
func designsSection(t *testing.T, r *Report) []byte {
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

// TestWarmColdDeterminism: the full pipeline must be deterministic
// across a cold run, an independent cold rerun on a fresh engine, and a
// warm rerun served from the first engine's memo cache —
// byte-identical designs sections in all three. The warm rerun must
// resolve from the cache without simulating anything new.
func TestWarmColdDeterminism(t *testing.T) {
	ctx := context.Background()
	ex1, err := NewExplorer(fastExplorerOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := ex1.Explore(ctx, "vocoder")
	if err != nil {
		t.Fatal(err)
	}
	stCold := ex1.Stats()

	// Warm rerun on the same engine: pure cache hits, no new
	// simulations, identical designs.
	warm, err := ex1.Explore(ctx, "vocoder")
	if err != nil {
		t.Fatal(err)
	}
	stWarm := ex1.Stats()
	if stWarm.Simulations != stCold.Simulations {
		t.Fatalf("warm rerun simulated: cold %d simulations, warm %d", stCold.Simulations, stWarm.Simulations)
	}
	if stWarm.CacheHits <= stCold.CacheHits {
		t.Fatalf("warm rerun missed the memo cache: cold hits %d, warm hits %d",
			stCold.CacheHits, stWarm.CacheHits)
	}

	// Independent cold rerun on a fresh engine: every batch is
	// re-planned and re-executed from scratch, possibly under different
	// goroutine scheduling, and must still land on the same designs.
	ex2, err := NewExplorer(fastExplorerOpts()...)
	if err != nil {
		t.Fatal(err)
	}
	cold2, err := ex2.Explore(ctx, "vocoder")
	if err != nil {
		t.Fatal(err)
	}

	d1 := designsSection(t, cold)
	if d2 := designsSection(t, warm); !bytes.Equal(d1, d2) {
		t.Fatalf("warm designs diverged from cold:\ncold %s\nwarm %s", d1, d2)
	}
	if d3 := designsSection(t, cold2); !bytes.Equal(d1, d3) {
		t.Fatalf("second cold run's designs diverged:\nfirst %s\nsecond %s", d1, d3)
	}
}
