package engine

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"

	"memorex/internal/btcache"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/sampling"
	"memorex/internal/trace"
)

// mangleEntries flips one payload bit in every cache entry under dir.
func mangleEntries(t *testing.T, dir string) {
	t.Helper()
	ents, err := filepath.Glob(filepath.Join(dir, "*.btc"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) == 0 {
		t.Fatal("no cache entries to mangle")
	}
	flip := btcache.FlipBit(40, 3) // well inside the payload
	for _, p := range ents {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, flip.Apply(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// openTestCache opens a behavior-trace cache in a temp dir.
func openTestCache(t *testing.T, dir string) *btcache.Cache {
	t.Helper()
	c, err := btcache.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestDiskCacheWarmStart: a second engine sharing the cache directory
// evaluates the same design without a single Phase A capture, and its
// figures are identical to the cold run's.
func TestDiskCacheWarmStart(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(t)
	a := testArch(8192)
	c := testConn(t, a, "ahb32")
	req := sampled(tr, a, c)

	cold := New(2, WithBehaviorCache(openTestCache(t, dir)))
	want, err := cold.EvaluateOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if s := cold.Stats(); s.BehaviorCaptures != 1 || s.BehaviorDiskHits != 0 {
		t.Fatalf("cold stats = %+v, want 1 capture and 0 disk hits", s)
	}

	// Fresh engine, fresh in-memory memo, fresh architecture objects —
	// only the directory is shared.
	a2 := testArch(8192)
	warm := New(2, WithBehaviorCache(openTestCache(t, dir)))
	got, err := warm.EvaluateOne(context.Background(), sampled(tr, a2, testConn(t, a2, "ahb32")))
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.BehaviorCaptures != 0 || s.BehaviorDiskHits != 1 {
		t.Fatalf("warm stats = %+v, want 0 captures and 1 disk hit", s)
	}
	got.Hit, want.Hit = false, false
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("warm-start value diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestDiskCacheSingleCapture: N goroutines racing the same fingerprint
// through one engine observe exactly one capture — the disk cache must
// not defeat the in-memory single-flight (run under -race).
func TestDiskCacheSingleCapture(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(t)
	a := testArch(4096)
	e := New(4, WithBehaviorCache(openTestCache(t, dir)))

	const goroutines = 8
	vals := make([]Value, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			// Distinct connectivity per goroutine defeats the value memo,
			// so every goroutine reaches the behavior layer.
			onChip := "ahb32"
			if i%2 == 1 {
				onChip = "ahb64"
			}
			v, err := e.EvaluateOne(context.Background(), sampled(tr, a, testConn(t, a, onChip)))
			if err != nil {
				t.Error(err)
				return
			}
			vals[i] = v
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	if s := e.Stats(); s.BehaviorCaptures != 1 {
		t.Fatalf("stats = %+v, want exactly 1 behavior capture", s)
	}
	// Goroutines sharing the ahb32 design must agree on the figures
	// (some served from the value memo, some computed).
	for i := 2; i < goroutines; i += 2 {
		if vals[i].Cost != vals[0].Cost || vals[i].Latency != vals[0].Latency || vals[i].Energy != vals[0].Energy {
			t.Fatalf("goroutine %d saw %+v, goroutine 0 saw %+v", i, vals[i], vals[0])
		}
	}
}

// TestDiskCacheCorruptEntryRecaptured: an engine facing a damaged disk
// entry falls through to capture and still produces correct figures.
func TestDiskCacheCorruptEntryRecaptured(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(t)
	a := testArch(8192)
	req := sampled(tr, a, testConn(t, a, "ahb32"))

	cold := New(1, WithBehaviorCache(openTestCache(t, dir)))
	want, err := cold.EvaluateOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit in every cache entry on disk.
	mangleEntries(t, dir)

	cache := openTestCache(t, dir)
	warm := New(1, WithBehaviorCache(cache))
	a2 := testArch(8192)
	got, err := warm.EvaluateOne(context.Background(), sampled(tr, a2, testConn(t, a2, "ahb32")))
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.BehaviorCaptures != 1 || s.BehaviorDiskHits != 0 {
		t.Fatalf("stats after corruption = %+v, want a recapture and no disk hit", s)
	}
	if cs := cache.Stats(); cs.CorruptQuarantined != 1 {
		t.Fatalf("cache stats = %+v, want 1 corrupt quarantine", cs)
	}
	got.Hit, want.Hit = false, false
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-corruption value diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestDiskCacheUnlistedChannelRecaptured: a CRC-valid disk entry whose
// events use a channel it does not list is quarantined and recaptured
// like any other corrupt entry; were it served as a disk hit, every
// request for its fingerprint would fail in replay.
func TestDiskCacheUnlistedChannelRecaptured(t *testing.T) {
	dir := t.TempDir()
	tr := testTrace(t)
	a := testArch(8192)
	req := sampled(tr, a, testConn(t, a, "ahb32"))

	cold := New(1, WithBehaviorCache(openTestCache(t, dir)))
	want, err := cold.EvaluateOne(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}

	// Drop the cache's backing channel from the entry: its misses keep
	// their demand legs.
	fp := BehaviorFingerprint(tr, a, Sampled, req.Sampling)
	ents, err := filepath.Glob(filepath.Join(dir, "*.btc"))
	if err != nil || len(ents) != 1 {
		t.Fatalf("cache entries = %v (%v), want one", ents, err)
	}
	data, err := os.ReadFile(ents[0])
	if err != nil {
		t.Fatal(err)
	}
	bt, err := btcache.Decode(data, fp)
	if err != nil {
		t.Fatal(err)
	}
	bt.Channels = bt.Channels[:1]
	if err := os.WriteFile(ents[0], btcache.Encode(bt, fp), 0o644); err != nil {
		t.Fatal(err)
	}

	cache := openTestCache(t, dir)
	warm := New(1, WithBehaviorCache(cache))
	a2 := testArch(8192)
	got, err := warm.EvaluateOne(context.Background(), sampled(tr, a2, testConn(t, a2, "ahb32")))
	if err != nil {
		t.Fatal(err)
	}
	if s := warm.Stats(); s.BehaviorCaptures != 1 || s.BehaviorDiskHits != 0 {
		t.Fatalf("stats after forging = %+v, want a recapture and no disk hit", s)
	}
	if cs := cache.Stats(); cs.CorruptQuarantined != 1 {
		t.Fatalf("cache stats = %+v, want 1 corrupt quarantine", cs)
	}
	got.Hit, want.Hit = false, false
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recaptured value diverged:\n got %+v\nwant %+v", got, want)
	}
}

// TestBehaviorFingerprintMatchesEngineKey: the exported package-level
// fingerprint must equal the engine's internal behavior key, or the
// disk entries written by one and read by the other would never meet.
func TestBehaviorFingerprintMatchesEngineKey(t *testing.T) {
	tr := testTrace(t)
	a := testArch(8192)
	cfg := sampling.Config{OnWindow: 500, OffRatio: 9}
	r := Request{Trace: tr, Mem: a, Conn: testConn(t, a, "ahb32"), Mode: Sampled, Sampling: cfg}
	var mems memDigests
	bk, _ := requestKeys(r, mems.of(a))
	if got := BehaviorFingerprint(tr, a, Sampled, cfg); got != bk {
		t.Fatalf("BehaviorFingerprint %x != engine behavior key %x (sampled)", got, bk)
	}
	r.Mode = Full
	bk, _ = requestKeys(r, mems.of(a))
	if got := BehaviorFingerprint(tr, a, Full, sampling.Config{}); got != bk {
		t.Fatalf("BehaviorFingerprint %x != engine behavior key %x (full)", got, bk)
	}
}

// TestDiskCacheMetrics: with a shared registry the engine's disk-hit
// counter and the cache's own counters land in one snapshot.
func TestDiskCacheMetrics(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	cache, err := btcache.Open(dir, btcache.WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	tr := testTrace(t)

	cold := New(1, WithBehaviorCache(cache), WithMetrics(reg))
	a := testArch(8192)
	if _, err := cold.EvaluateOne(context.Background(), sampled(tr, a, testConn(t, a, "ahb32"))); err != nil {
		t.Fatal(err)
	}
	warm := New(1, WithBehaviorCache(cache), WithMetrics(reg))
	a2 := testArch(8192)
	if _, err := warm.EvaluateOne(context.Background(), sampled(tr, a2, testConn(t, a2, "ahb32"))); err != nil {
		t.Fatal(err)
	}

	snap := reg.Snapshot()
	if snap.Counters["btcache/puts"] != 1 || snap.Counters["btcache/hits"] != 1 {
		t.Fatalf("cache counters inconsistent: %+v", snap.Counters)
	}
	if snap.Counters["engine/behavior_disk_hits"] != 1 {
		t.Fatalf("engine disk-hit counter = %v, want 1", snap.Counters["engine/behavior_disk_hits"])
	}
}

// TestBehaviorFingerprintPinned pins BehaviorFingerprint, the key of
// every on-disk behavior-trace cache entry, on one fixed trace and
// architecture. A change to how a trace, an architecture or a sampling
// plan is digested would silently re-key (and so orphan) every existing
// cache directory; such a change must re-pin these values on purpose.
func TestBehaviorFingerprintPinned(t *testing.T) {
	b := trace.NewBuilder("pinned", 0)
	buf, _ := b.Region("buf", 4096, 4)
	tab, _ := b.Region("tab", 1024, 8)
	for i := uint32(0); i < 2000; i++ {
		b.Load(buf, (i*4)%4096, 4)
		if i%3 == 0 {
			b.Store(tab, (i*24)%1024, 8)
		}
		if i%7 == 0 {
			b.Anon(trace.Store, 0x7fff_0000+i%64, 2)
		}
	}
	tr := b.Build()
	a := &mem.Architecture{
		Name:    "pinned",
		Modules: []mem.Module{mem.MustCache(4096, 32, 2), mem.MustSRAM(1024), mem.MustStreamBuffer(32, 4)},
		DRAM:    mem.DefaultDRAM(),
		Route:   map[trace.DSID]int{buf: 2, tab: 1},
		Default: 0,
	}
	for _, c := range []struct {
		mode Mode
		s    sampling.Config
		want uint64
	}{
		{Sampled, sampling.Config{OnWindow: 500, OffRatio: 9}, 0x22a9beaae0e04b41},
		{Full, sampling.Config{}, 0x051228106b04d336},
	} {
		if got := BehaviorFingerprint(tr, a, c.mode, c.s); got != c.want {
			t.Errorf("BehaviorFingerprint(%s) = %#x, want %#x", c.mode, got, c.want)
		}
	}
}
