package engine

import (
	"context"
	"errors"
	"strings"
	"testing"

	"memorex/internal/connect"
	"memorex/internal/mem"
)

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
