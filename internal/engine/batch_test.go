package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
	"memorex/internal/obs"
)

// TestTimingSignature: the dedup key must be invariant under cluster
// and channel reordering and under non-timing parameter changes (name,
// class, port bound, gates), and must change with any timing or energy
// parameter.
func TestTimingSignature(t *testing.T) {
	a := testArch(4096)
	base := testConn(t, a, "ahb32")

	// Reorder clusters (and their assignments) — same partition, same
	// signature.
	perm := &connect.Arch{Channels: base.Channels}
	for i := len(base.Clusters) - 1; i >= 0; i-- {
		perm.Clusters = append(perm.Clusters, base.Clusters[i])
		perm.Assign = append(perm.Assign, base.Assign[i])
	}
	if timingSignature(perm) != timingSignature(base) {
		t.Error("cluster reordering changed the timing signature")
	}

	// Non-timing fields are excluded.
	cosmetic := &connect.Arch{Channels: base.Channels, Clusters: base.Clusters}
	cosmetic.Assign = append([]connect.Component(nil), base.Assign...)
	cosmetic.Assign[0].Name = "renamed"
	cosmetic.Assign[0].MaxPorts += 7
	cosmetic.Assign[0].BaseGates *= 3
	cosmetic.Assign[0].GatesPerPort += 100
	if timingSignature(cosmetic) != timingSignature(base) {
		t.Error("non-timing component fields changed the timing signature")
	}

	// Every timing/energy parameter is included.
	mutations := []func(*connect.Component){
		func(c *connect.Component) { c.WidthBytes *= 2 },
		func(c *connect.Component) { c.ArbCycles++ },
		func(c *connect.Component) { c.BeatCycles++ },
		func(c *connect.Component) { c.Pipelined = !c.Pipelined },
		func(c *connect.Component) { c.Split = !c.Split },
		func(c *connect.Component) { c.EnergyPerByte += 0.001 },
	}
	for i, mutate := range mutations {
		m := &connect.Arch{Channels: base.Channels, Clusters: base.Clusters}
		m.Assign = append([]connect.Component(nil), base.Assign...)
		mutate(&m.Assign[0])
		if timingSignature(m) == timingSignature(base) {
			t.Errorf("timing mutation %d did not change the signature", i)
		}
	}

	// A different partition of the same channels differs even with the
	// same component everywhere.
	if timingSignature(testConn(t, a, "ahb32")) != timingSignature(base) {
		t.Error("independently built identical arch changed the signature")
	}
}

// twoCacheArch is a two-module architecture: four channels, so a
// candidate can change one channel's component and keep the other
// three.
func twoCacheArch() *mem.Architecture {
	return &mem.Architecture{
		Name:    "c2",
		Modules: []mem.Module{mem.MustCache(4096, 32, 2), mem.MustCache(8192, 32, 2)},
		DRAM:    mem.DefaultDRAM(),
		Default: 0,
	}
}

// TestEvaluateBatchPath: a group of distinct connectivity candidates
// sharing one behavior trace must be served entirely by batched
// replays, produce values identical to each request evaluated alone (a
// K=1 chunk) at every worker count, and seed the memo cache for later
// requests. The
// multi-module case varies a single channel's component, so the
// candidates are near neighbors of each other.
func TestEvaluateBatchPath(t *testing.T) {
	comps := []string{"ded32", "mux32", "apb32", "asb32", "ahb32", "ahb64"}
	cases := []struct {
		name string
		reqs func(t *testing.T) []Request
	}{
		{"single-module", func(t *testing.T) []Request {
			tr := testTrace(t)
			a := testArch(4096)
			var reqs []Request
			for _, name := range comps {
				reqs = append(reqs, sampled(tr, a, testConn(t, a, name)))
			}
			return reqs
		}},
		{"multi-module", func(t *testing.T) []Request {
			tr := testTrace(t)
			a := twoCacheArch()
			target := -1
			for i, ch := range a.Channels() {
				if ch.Kind == mem.ChanCPUModule && ch.Module == 1 {
					target = i
				}
			}
			if target < 0 {
				t.Fatal("no CPU channel for module 1")
			}
			lib := connect.Library()
			var reqs []Request
			for _, name := range comps {
				comp, err := connect.ByName(lib, name)
				if err != nil {
					t.Fatal(err)
				}
				conn := testConn(t, a, "ahb32")
				for cl := range conn.Clusters {
					if len(conn.Clusters[cl]) == 1 && conn.Clusters[cl][0] == target {
						conn.Assign[cl] = comp
					}
				}
				reqs = append(reqs, sampled(tr, a, conn))
			}
			return reqs
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reqs := c.reqs(t)
			e := New(4)
			got, err := e.Evaluate(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}

			// Bit-exact against each request alone on a fresh engine.
			for i, r := range reqs {
				want, err := New(1).EvaluateOne(context.Background(), r)
				if err != nil {
					t.Fatal(err)
				}
				if got[i] != want {
					t.Errorf("req %d: batch value %+v != lone value %+v", i, got[i], want)
				}
				if got[i].Hit || got[i].Work == 0 {
					t.Errorf("req %d: batch value should be a fresh simulation, got %+v", i, got[i])
				}
			}

			st := e.Stats()
			if st.BatchReplays == 0 {
				t.Error("group ran no batched replays")
			}
			if st.BatchedEvals != int64(len(reqs)) {
				t.Errorf("BatchedEvals = %d, want %d", st.BatchedEvals, len(reqs))
			}
			if st.BehaviorCaptures != 1 {
				t.Errorf("BehaviorCaptures = %d, want 1 (one shared trace)", st.BehaviorCaptures)
			}
			if st.Simulations != int64(len(reqs)) {
				t.Errorf("Simulations = %d, want %d", st.Simulations, len(reqs))
			}

			// The worker count changes chunking, never values.
			for _, w := range []int{1, 8} {
				gw, err := New(w).Evaluate(context.Background(), reqs)
				if err != nil {
					t.Fatal(err)
				}
				for i := range got {
					if got[i] != gw[i] {
						t.Errorf("req %d: workers=4 value %+v != workers=%d value %+v", i, got[i], w, gw[i])
					}
				}
			}

			// The batch seeded the memo cache.
			again, err := e.Evaluate(context.Background(), reqs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range again {
				if !again[i].Hit {
					t.Errorf("req %d: second evaluation missed the cache", i)
				}
			}
			if st := e.Stats(); st.CacheHits != int64(len(reqs)) {
				t.Errorf("CacheHits = %d, want %d", st.CacheHits, len(reqs))
			}
		})
	}
}

// TestEvaluateBatchDedup: two candidates whose components differ only
// in gates share one replay — the follower reports the leader's
// latency and energy under its own gate cost, and is counted as a
// dedup hit rather than a simulation or cache hit.
func TestEvaluateBatchDedup(t *testing.T) {
	tr := testTrace(t)
	a := testArch(4096)
	lead := testConn(t, a, "ahb32")

	follow := &connect.Arch{Channels: lead.Channels, Clusters: lead.Clusters}
	follow.Assign = append([]connect.Component(nil), lead.Assign...)
	for i := range follow.Assign {
		follow.Assign[i].Name = follow.Assign[i].Name + "-hardened"
		follow.Assign[i].BaseGates *= 2
		follow.Assign[i].GatesPerPort *= 2
	}

	reg := obs.NewRegistry()
	e := New(2, WithMetrics(reg))
	reqs := []Request{
		sampled(tr, a, lead),
		sampled(tr, a, testConn(t, a, "mux32")), // second leader so the group batches
		sampled(tr, a, follow),
	}
	got, err := e.Evaluate(context.Background(), reqs)
	if err != nil {
		t.Fatal(err)
	}

	if got[2].Latency != got[0].Latency || got[2].Energy != got[0].Energy {
		t.Errorf("follower figures %+v diverged from leader %+v", got[2], got[0])
	}
	if got[2].Cost <= got[0].Cost {
		t.Errorf("follower cost %.0f not recomputed from its own gates (leader %.0f)",
			got[2].Cost, got[0].Cost)
	}
	if got[2].Hit || got[2].Work != 0 {
		t.Errorf("follower should report no simulated work and no cache hit, got %+v", got[2])
	}

	st := e.Stats()
	if st.BatchDedupHits != 1 {
		t.Errorf("BatchDedupHits = %d, want 1", st.BatchDedupHits)
	}
	if st.Simulations != 2 {
		t.Errorf("Simulations = %d, want 2 (follower must not simulate)", st.Simulations)
	}
	if st.CacheHits != 0 {
		t.Errorf("CacheHits = %d, want 0 (dedup share is not a cache hit)", st.CacheHits)
	}
	snap := reg.Snapshot()
	if snap.Counters["engine/batch/dedup_hits"] != 1 {
		t.Errorf("engine/batch/dedup_hits = %d, want 1", snap.Counters["engine/batch/dedup_hits"])
	}

	// The follower owns its memo entry: re-asking for it is a plain
	// cache hit with the follower's own cost.
	v, err := e.EvaluateOne(context.Background(), reqs[2])
	if err != nil {
		t.Fatal(err)
	}
	if !v.Hit || v.Cost != got[2].Cost {
		t.Errorf("follower re-evaluation = %+v, want cache hit with cost %.0f", v, got[2].Cost)
	}
}

// TestEvaluateSingleton: a fingerprint group with a single candidate is
// a K=1 chunk on the same batched path as any other group.
func TestEvaluateSingleton(t *testing.T) {
	tr := testTrace(t)
	a := testArch(4096)
	e := New(2)
	if _, err := e.Evaluate(context.Background(), []Request{sampled(tr, a, testConn(t, a, "ahb32"))}); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.BatchReplays != 1 {
		t.Errorf("BatchReplays = %d, want 1", st.BatchReplays)
	}
	if st.BatchedEvals != 1 {
		t.Errorf("BatchedEvals = %d, want 1", st.BatchedEvals)
	}
}

// TestEvaluateBatchFallback: when one member's architecture makes the
// whole batch replay fail, the member's own error is returned (not the
// cancellation it triggers) and its group-mates are still re-timed one
// by one and memoized.
func TestEvaluateBatchFallback(t *testing.T) {
	tr := testTrace(t)
	a := testArch(4096)
	// A connectivity architecture built for another memory architecture
	// covers channels the behavior trace does not have.
	bad := sampled(tr, a, testConn(t, twoCacheArch(), "ahb32"))
	mates := []Request{
		sampled(tr, a, testConn(t, a, "ahb32")),
		sampled(tr, a, testConn(t, a, "mux32")),
		sampled(tr, a, testConn(t, a, "apb32")),
	}
	// One worker puts all four leaders into a single chunk.
	e := New(1)
	_, err := e.Evaluate(context.Background(), append([]Request{bad}, mates...))
	if err == nil || errors.Is(err, context.Canceled) {
		t.Fatalf("Evaluate returned %v; want the mismatched member's own error", err)
	}
	if !strings.Contains(err.Error(), "channels") {
		t.Errorf("error %q does not name the channel mismatch", err)
	}
	st := e.Stats()
	if st.BatchReplays != int64(len(mates)) || st.BatchedEvals != int64(len(mates)) {
		t.Errorf("BatchReplays = %d, BatchedEvals = %d; want %d K=1 replays",
			st.BatchReplays, st.BatchedEvals, len(mates))
	}
	if st.BehaviorCaptures != 1 {
		t.Errorf("BehaviorCaptures = %d, want 1 (fallback reuses the trace)", st.BehaviorCaptures)
	}

	again, err := e.Evaluate(context.Background(), mates)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range again {
		if !v.Hit {
			t.Errorf("group-mate %d: %+v, want a memo hit", i, v)
		}
	}
}

// TestChunkSpan: chunks balance across the pool and respect maxBatch.
func TestChunkSpan(t *testing.T) {
	cases := []struct{ n, w, want int }{
		{2, 4, 1},
		{8, 4, 2},
		{9, 4, 3},
		{64, 1, 32},
		{65, 1, 22}, // 3 chunks of ≤22 beat 2×32 + 1×1
		{33, 2, 17},
		{1, 8, 1},
	}
	for _, c := range cases {
		if got := chunkSpan(c.n, c.w); got != c.want {
			t.Errorf("chunkSpan(%d, %d) = %d, want %d", c.n, c.w, got, c.want)
		}
	}
}
