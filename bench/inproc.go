package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"memorex"
	"memorex/internal/btcache"
	"memorex/internal/core"
	"memorex/internal/trace"
)

// Run-shape constants shared by the workloads.
const (
	// setupRuns is how often a run sets up; setup_s is the median.
	setupRuns = 5
	// minOps keeps running past --seconds until p90 has minTail
	// samples beyond it.
	minOps = 100
	// traceOps is how many ops the traced pass performs (one full cycle
	// of the in-process request pool).
	traceOps = poolSize
)

// runConfig is one invocation of the benchmark.
type runConfig struct {
	workload    string
	seed        int64
	seconds     time.Duration
	trace       bool
	root        string
	memorexd    string
	workers     int
	writeGolden bool
	// maxOps, when positive, stops the timed loop after that many ops
	// regardless of time (tests).
	maxOps int
}

// more reports whether the timed loop should start op i.
func (c *runConfig) more(i int, start time.Time) bool {
	if c.maxOps > 0 {
		return i < c.maxOps
	}
	return i < minOps || time.Since(start) < c.seconds
}

// scratch is the run's private directory inside the build directory.
func (c *runConfig) scratch() (string, error) {
	base := filepath.Join(c.root, ".bench_build", "tmp")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, c.workload+"-")
}

// runResult is what one run measured, before it becomes metrics.
type runResult struct {
	setups     []float64 // seconds per set-up
	lat        []float64 // milliseconds per timed op
	kernelMS   []float64 // calibration kernel wall times
	wall       time.Duration
	cpu        time.Duration
	alloc      uint64
	retainedMB float64 // heap the system keeps per op it served, after GC
	attempted  int
	failed     int
	// fronts maps each request key to its front encoding (-write-golden).
	fronts map[string][]byte
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	notes  []string
}

func (r *runResult) note(format string, args ...interface{}) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// fail counts one failed op and says why on standard error.
func (r *runResult) fail(format string, args ...interface{}) {
	r.failed++
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// doOp runs one request through the public entry point on a fresh
// Explorer, so nothing is memoized between ops.
func doOp(ctx context.Context, s *spec, workers int) (*memorex.Report, error) {
	x, err := memorex.NewExplorer(memorex.WithWorkers(workers))
	if err != nil {
		return nil, err
	}
	defer x.Close()
	return x.Do(ctx, s.request())
}

// setupInProcess generates the workload's request pool and runs one
// untimed warm-up op. It returns the pool, the set-up wall time and the
// mean generation time per trace.
func setupInProcess(ctx context.Context, cfg *runConfig) ([]spec, time.Duration, float64, error) {
	start := time.Now()
	pool := make([]spec, poolSize)
	var gen time.Duration
	for k := range pool {
		t0 := time.Now()
		t, err := genSlice(inprocBenches[k%len(inprocBenches)], derive(cfg.seed, 1, int64(k)))
		gen += time.Since(t0)
		if err != nil {
			return nil, 0, 0, err
		}
		pool[k] = inprocSpec(cfg.workload, cfg.seed, k, t)
	}
	if _, err := doOp(ctx, &pool[0], cfg.workers); err != nil {
		return nil, 0, 0, fmt.Errorf("warm-up op: %w", err)
	}
	return pool, time.Since(start), ms(gen) / poolSize, nil
}

// frontChecks applies the output checks to in-process ops.
type frontChecks struct {
	seen  *repeats
	first map[string]frontRef
}

type frontRef struct {
	trace *trace.Trace
	front []core.DesignPoint
}

func newFrontChecks() *frontChecks {
	return &frontChecks{seen: newRepeats(), first: map[string]frontRef{}}
}

// observe checks one op's report against the first run of its request.
func (c *frontChecks) observe(key string, rep *memorex.Report) error {
	front := rep.ConEx.CostPerfFront
	first, err := c.seen.observe(key, encodeFront(front))
	if first {
		c.first[key] = frontRef{trace: rep.Trace, front: front}
	}
	return err
}

// finish re-simulates the fronts of each request's first run with the
// reference simulator and compares them with the golden fronts (when
// golden is non-nil). Each failing request counts as a failed op.
func (c *frontChecks) finish(res *runResult, golden goldenFile, workload string) {
	res.fronts = map[string][]byte{}
	for _, key := range c.seen.keys {
		ref := c.first[key]
		enc := c.seen.first[key]
		res.fronts[key] = enc
		if err := verifyFront(ref.trace, ref.front); err != nil {
			res.fail("%s: %v", key, err)
			continue
		}
		if golden != nil {
			if err := golden.check(workload, key, enc); err != nil {
				res.fail("%v", err)
			}
		}
	}
}

// runInProcess runs one of the in-process workloads: a closed loop of
// one client calling Explorer.Do on a fresh Explorer per op, cycling
// through the seeded request pool. After each op it collects the op's
// garbage and times the calibration kernel; after the loop it measures
// the heap a shared Explorer keeps.
func runInProcess(ctx context.Context, cfg *runConfig, golden goldenFile) (*runResult, error) {
	res := &runResult{}
	var pool []spec
	var genMS float64
	for r := 0; r < setupRuns; r++ {
		p, d, g, err := setupInProcess(ctx, cfg)
		if err != nil {
			return nil, err
		}
		pool, genMS = p, g
		res.setups = append(res.setups, d.Seconds())
	}
	if cfg.trace {
		return traceInProcess(ctx, cfg, pool, genMS, golden, res)
	}

	k := newKernel(cfg.workers)
	checks := newFrontChecks()
	runtime.GC() // set-up garbage is not the ops' cost
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for i := 0; cfg.more(i, start); i++ {
		s := &pool[i%len(pool)]
		cpu0 := cpuTime()
		t0 := time.Now()
		rep, err := doOp(ctx, s, cfg.workers)
		d := time.Since(t0)
		// Collecting the op's garbage is part of its CPU cost, and every
		// op then starts from the same heap, as a fresh process would.
		runtime.GC()
		res.cpu += cpuTime() - cpu0
		res.wall += d
		res.lat = append(res.lat, ms(d))
		res.kernelMS = append(res.kernelMS, k.timeMS())
		res.attempted++
		if err == nil {
			err = checks.observe(s.key, rep)
		}
		if err != nil {
			res.fail("op %d (%s): %v", i, s.key, err)
		}
	}
	runtime.ReadMemStats(&m1)
	res.alloc = m1.TotalAlloc - m0.TotalAlloc
	retained, err := retainedPerOp(ctx, cfg, pool, checks, res)
	if err != nil {
		return nil, err
	}
	res.retainedMB = retained
	checks.finish(res, golden, cfg.workload)
	return res, nil
}

// retainedPerOp serves every request of the pool once from one shared
// Explorer, the way a long-lived caller uses it, and returns the heap
// the Explorer still holds afterwards, per request, in MB. Its reports
// go through the repeat check like any op's.
func retainedPerOp(ctx context.Context, cfg *runConfig, pool []spec, checks *frontChecks, res *runResult) (float64, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	x, err := memorex.NewExplorer(memorex.WithWorkers(cfg.workers))
	if err != nil {
		return 0, err
	}
	defer x.Close()
	for i := range pool {
		rep, err := x.Do(ctx, pool[i].request())
		if err == nil {
			err = checks.observe(pool[i].key, rep)
		}
		if err != nil {
			res.fail("shared-Explorer op %s: %v", pool[i].key, err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(x)
	return (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / 1e6 / float64(len(pool)), nil
}

// traceInProcess is the traced pass: the first traceOps requests run
// once untraced through Explorer.Do and once stage by stage with spans,
// followed by the probes. The staged run is checked as a repeat of the
// Explorer.Do run.
func traceInProcess(ctx context.Context, cfg *runConfig, pool []spec, genMS float64, golden goldenFile, res *runResult) (*runResult, error) {
	ops := pool[:min(traceOps, len(pool))]
	checks := newFrontChecks()
	var untraced []float64
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range ops {
		t0 := time.Now()
		rep, err := doOp(ctx, &ops[i], cfg.workers)
		untraced = append(untraced, ms(time.Since(t0)))
		res.attempted++
		if err == nil {
			err = checks.observe(ops[i].key, rep)
		}
		if err != nil {
			res.fail("op %d (%s): %v", i, ops[i].key, err)
		}
	}
	runtime.ReadMemStats(&m1)
	gcs := float64(m1.NumGC - m0.NumGC)
	gcPause := time.Duration(m1.PauseTotalNs - m0.PauseTotalNs)

	dir, err := cfg.scratch()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cache, err := btcache.Open(dir)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	acc := newLayerAcc()
	var ps probeStats
	for i := range ops {
		run, err := staged(ctx, &ops[i], cfg.workers, tr, i+1)
		if err == nil {
			err = checks.observe(ops[i].key, run.rep)
		}
		if err != nil {
			res.fail("traced op %d (%s): %v", i, ops[i].key, err)
			continue
		}
		acc.addRun(run)
		if err := probe(tr, i+1, &ops[i], run.rep, cache, &ps); err != nil {
			res.fail("traced op %d (%s): %v", i, ops[i].key, err)
		}
	}
	entries, diskBytes, err := cacheProbe(tr, dir)
	if err != nil {
		res.fail("btcache probe: %v", err)
	}
	checks.finish(res, golden, cfg.workload)
	if acc.ops == 0 {
		return nil, fmt.Errorf("no traced op completed")
	}

	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	driverMS := tr.totalMS(spanCore, spanExplore) / float64(acc.ops)
	l := acc.metrics(tr, cfg.workers, acc.ops, driverMS, &ps)
	l["workload.generate_ms"] = genMS
	l["btcache.mb_on_disk"] = float64(diskBytes) / 1e6
	l["btcache.get_ms_per_entry"] = perEntry(tr.totalMS(probeCacheGet), entries)
	l["runtime.gc_per_op"] = gcs / float64(len(ops))
	l["runtime.gc_pause_ms_per_op"] = ms(gcPause) / float64(len(ops))
	l["process.peak_rss_mb"] = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	l["bench.attributed_pct"] = tr.attributedPct(spanOp)
	traced := tr.rootMS(spanOp)
	l["bench.trace_overhead_pct"] = 100 * (median(traced) - median(untraced)) / median(untraced)
	res.layers = l
	return res, writeSpans(cfg, tr, res)
}

// writeSpans stores the run's spans under the build directory and notes
// the self time of each span name.
func writeSpans(cfg *runConfig, tr *tracer, res *runResult) error {
	rel := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	if err := tr.write(filepath.Join(cfg.root, rel)); err != nil {
		return err
	}
	res.note("spans: %s", rel)
	names, total, self := tr.selfTimes()
	for _, n := range names {
		res.note("span %-22s total %9.2f ms  self %9.2f ms", n, ms(total[n]), ms(self[n]))
	}
	return nil
}

// cpuTime is the user+system CPU time of this process.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func perEntry(totalMS float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return totalMS / float64(n)
}
