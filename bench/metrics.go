package main

import (
	"fmt"

	"memorex/internal/obs"
)

// layerAcc accumulates what the traced ops did: the summed metrics
// registries of their engines and the sizes of their results.
type layerAcc struct {
	snap        obs.Snapshot
	ops         int
	apexDesigns int
	simulated   int
	front       int
	accesses    int
	jsonBytes   int
}

func newLayerAcc() *layerAcc {
	return &layerAcc{snap: obs.Snapshot{Counters: map[string]int64{}, Histograms: map[string]obs.HistogramStats{}}}
}

// addRun folds one staged op into the totals.
func (a *layerAcc) addRun(r *stagedRun) {
	a.ops++
	a.addSnapshot(r.metrics)
	a.apexDesigns += len(r.rep.APEX.All)
	a.simulated += len(r.rep.ConEx.Combined)
	a.front += len(r.rep.ConEx.CostPerfFront)
	a.accesses += r.rep.Trace.NumAccesses()
	a.jsonBytes += len(r.json)
}

// addSnapshot sums counters and histogram counts and sums.
func (a *layerAcc) addSnapshot(s obs.Snapshot) {
	for k, v := range s.Counters {
		a.snap.Counters[k] += v
	}
	for k, h := range s.Histograms {
		cur := a.snap.Histograms[k]
		cur.Count += h.Count
		cur.Sum += h.Sum
		a.snap.Histograms[k] = cur
	}
}

// metrics derives the per-layer metrics from the accumulated counters,
// the spans and the probes. engineOps is the number of ops the engine
// counters cover and driverMS the mean driver time of one of them; the
// engine's time outside its evaluation batches is that driver time
// minus the busy time spread over the workers.
func (a *layerAcc) metrics(tr *tracer, workers, engineOps int, driverMS float64, ps *probeStats) map[string]float64 {
	c, h := a.snap.Counters, a.snap.Histograms
	n := float64(a.ops)
	per := func(names ...string) float64 { return tr.totalMS(names...) / n }
	count := func(name string) float64 { return float64(c[name]) }
	busy := (h["engine/eval_wall_us/sampled"].Sum + h["engine/eval_wall_us/full"].Sum) / 1e3 / float64(engineOps)
	m := map[string]float64{
		"workload.trace_accesses":   float64(a.accesses),
		"profile.analyze_ms":        per(spanProfile),
		"apex.explore_ms":           per(spanAPEX),
		"apex.designs":              float64(a.apexDesigns),
		"driver.run_ms":             per(spanCore, spanExplore),
		"driver.designs_simulated":  float64(a.simulated),
		"driver.front_designs":      float64(a.front),
		"explore.search_evals":      count("explore/search/evals"),
		"explore.promotions":        count("explore/search/promotions"),
		"engine.requests":           count("engine/evaluations"),
		"engine.simulations":        count("engine/simulations"),
		"engine.cache_hits":         count("engine/cache_hits"),
		"engine.batch_dispatches":   count("engine/batch/dispatches"),
		"engine.batch_size_mean":    histMean(h["engine/batch/size"]),
		"engine.spills":             count("engine/batch/spills"),
		"engine.dedup_hits":         count("engine/batch/dedup_hits"),
		"engine.delta_replays":      count("engine/delta/replays"),
		"engine.delta_fallbacks":    count("engine/delta/fallbacks"),
		"engine.delta_spliced_pct":  histMean(h["engine/delta/reuse_ratio"]),
		"engine.busy_ms":            busy,
		"engine.outside_batch_ms":   driverMS - busy/float64(workers),
		"sim.captures":              count("engine/behavior_captures"),
		"sim.sampled_accesses":      count("engine/sampled_accesses"),
		"sim.full_accesses":         count("engine/full_accesses"),
		"sim.capture_sampled_ms":    per(probeCapSamp),
		"sim.capture_full_ms":       per(probeCapFull),
		"sim.replay_ns_per_access":  tr.totalMS(probeReplay) * 1e6 / float64(max(ps.replayAccesses, 1)),
		"rtable.issues":             count("rtable/issues"),
		"rtable.conflict_pct":       pct(c["rtable/conflicts"], c["rtable/issues"]),
		"sampling.windows":          count("sampling/windows"),
		"sampling.on_accesses":      count("sampling/on_accesses"),
		"sampling.est_err_pct_mean": histMean(h["sampling/est_err_pct"]),
		"pareto.select_ms":          per(probePareto),
		"btcache.puts":              count("btcache/puts"),
		"btcache.evictions":         count("btcache/evictions"),
		"btcache.open_ms":           tr.totalMS(probeCacheOpn),
		"report.write_json_ms":      per(spanReport),
		"report.json_kb":            float64(a.jsonBytes) / 1e3 / n,
		"daemon.service_pct":        0,
		"daemon.queue_wait_pct":     0,
		"daemon.events_per_job":     0,
		"daemon.events_dropped":     0,
		"bench.traced_ops":          float64(engineOps),
	}
	return m
}

func histMean(h obs.HistogramStats) float64 {
	if h.Count == 0 {
		return 0
	}
	return h.Sum / float64(h.Count)
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// endToEnd turns a timed run into the end-to-end metrics, with every
// time scaled to the reference host speed (see calib.go). A run too
// short for p90 is an error, not a guess.
func endToEnd(r *runResult) (map[string]float64, error) {
	if len(r.lat) == 0 || len(r.kernelMS) == 0 {
		return nil, fmt.Errorf("no ops or no calibration samples completed")
	}
	p50, _ := percentile(r.lat, 0.5)
	p90, err := percentile(r.lat, 0.9)
	if err != nil {
		return nil, fmt.Errorf("op_p90_ms: %w", err)
	}
	n := float64(len(r.lat))
	raw := map[string]float64{
		"setup_s":       median(r.setups),
		"op_p50_ms":     p50,
		"op_p90_ms":     p90,
		"ops_per_s":     n / r.wall.Seconds(),
		"cpu_ms_per_op": ms(r.cpu) / n,
	}
	r.note("host: calibration kernel median %.4f ms over %d runs, reference %.2f ms", median(r.kernelMS), len(r.kernelMS), refKernelMS)
	r.note("unscaled: setup_s %.4f  op_p50_ms %.4f  op_p90_ms %.4f  ops_per_s %.4f  cpu_ms_per_op %.4f",
		raw["setup_s"], raw["op_p50_ms"], raw["op_p90_ms"], raw["ops_per_s"], raw["cpu_ms_per_op"])
	scale := hostScale(r.kernelMS)
	m := map[string]float64{
		"ops_per_s":          raw["ops_per_s"] / scale,
		"alloc_mb_per_op":    float64(r.alloc) / 1e6 / n,
		"retained_mb_per_op": r.retainedMB,
	}
	for _, k := range []string{"setup_s", "op_p50_ms", "op_p90_ms", "cpu_ms_per_op"} {
		m[k] = raw[k] * scale
	}
	return m, nil
}
