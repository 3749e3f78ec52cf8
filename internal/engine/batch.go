// Batched dispatch: Evaluate groups pending requests by
// behavior-trace fingerprint and re-times each group's connectivity
// architectures through sim.ReplayBatch — one pass over the shared
// event trace per chunk instead of one per candidate. Each group is
// chunked across the worker pool, one ReplayBatch pass per chunk; a
// group with a single request is a K=1 chunk.
//
// Cache hits and single-flight duplicates wait without holding a
// worker slot. All of this preserves the engine's contracts: results
// in submission order, first real error wins over the cancellations it
// causes, failures are never memoized.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"memorex/internal/connect"
	"memorex/internal/sim"
)

// maxBatch caps a chunk so per-batch replay state stays cache-resident;
// below it, chunks are balanced across the worker pool.
const maxBatch = 32

// chunkSpan returns the chunk size for a group of n requests on w workers:
// an even split across the pool, re-balanced under the maxBatch cap.
func chunkSpan(n, w int) int {
	size := (n + w - 1) / w
	if size > maxBatch {
		c := (n + maxBatch - 1) / maxBatch
		size = (n + c - 1) / c
	}
	if size < 1 {
		size = 1
	}
	return size
}

// Evaluate runs a batch of requests on the worker pool and returns the
// values in submission order. Requests sharing a behavior trace are
// dispatched as batched replays (see the package comment of this
// file). On error the batch is cancelled and the first error (in
// submission order) is returned; ctx cancellation stops the batch
// between evaluations.
func (e *Engine) Evaluate(ctx context.Context, reqs []Request) ([]Value, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	out := make([]Value, len(reqs))
	errs := make([]error, len(reqs))
	bctx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Validate and fingerprint outside the lock, then claim memo
	// entries for the whole batch in one critical section. A request
	// whose key is already cached (or claimed by an earlier duplicate
	// in this very batch) becomes a waiter; the rest own their entry
	// and must publish it exactly once, success or failure.
	keys := make([]uint64, len(reqs))
	bkeys := make([]uint64, len(reqs))
	var mems memDigests
	ents := make([]*entry, len(reqs))
	owned := make([]bool, len(reqs))
	invalid := false
	for i, r := range reqs {
		if r.Trace == nil || r.Mem == nil || r.Conn == nil {
			errs[i] = fmt.Errorf("engine: request missing trace, memory or connectivity architecture")
			invalid = true
			continue
		}
		if r.Mode != Sampled && r.Mode != Full {
			errs[i] = fmt.Errorf("engine: unknown evaluation mode %d", r.Mode)
			invalid = true
			continue
		}
		bkeys[i], keys[i] = requestKeys(r, mems.of(r.Mem))
	}
	e.mu.Lock()
	for i, r := range reqs {
		if errs[i] != nil {
			continue
		}
		e.stats.Requests++
		if r.Phase != "" {
			e.phaseLocked(r.Phase).Requests++
		}
		if ent, ok := e.cache[keys[i]]; ok {
			ents[i] = ent
		} else {
			ent := &entry{done: make(chan struct{})}
			e.cache[keys[i]] = ent
			ents[i] = ent
			owned[i] = true
		}
	}
	e.mu.Unlock()
	if invalid {
		cancel() // abort the rest of the batch, like any failing member
	}

	// Group the owned requests by behavior fingerprint and chunk each
	// group for batched replay.
	var groupOrder []uint64
	groups := map[uint64][]int{}
	for i := range reqs {
		if errs[i] != nil || !owned[i] {
			continue
		}
		bk := bkeys[i]
		if _, ok := groups[bk]; !ok {
			groupOrder = append(groupOrder, bk)
		}
		groups[bk] = append(groups[bk], i)
	}
	var chunks [][]int // request indices, one ReplayBatch pass each
	for _, bk := range groupOrder {
		group := groups[bk]
		span := chunkSpan(len(group), e.workers)
		for lo := 0; lo < len(group); lo += span {
			chunks = append(chunks, group[lo:min(lo+span, len(group))])
		}
	}

	sem := make(chan struct{}, e.workers)
	var wg sync.WaitGroup
	finish := func(i int, v Value, err error) {
		if err != nil {
			errs[i] = err
		} else {
			out[i] = v
		}
		e.finishOwned(keys[i], ents[i], v, err)
	}
	fail := func(i int, err error) { finish(i, Value{}, err) }
	abort := func(err error) {
		if !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			cancel()
		}
	}

	// Cache waiters ride on the owning computation (possibly in a
	// sibling Evaluate call) without holding a worker slot.
	for i := range reqs {
		if errs[i] != nil || ents[i] == nil || owned[i] {
			continue
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.awaitHit(bctx, reqs[i], ents[i])
			if err != nil {
				errs[i] = err
				abort(err)
				return
			}
			out[i] = v
		}(i)
	}

	// Batched chunks: each occupies one worker slot and serves all its
	// members from a single trace pass.
	for _, chunk := range chunks {
		wg.Add(1)
		go func(chunk []int) {
			defer wg.Done()
			select {
			case sem <- struct{}{}:
			case <-bctx.Done():
				for _, i := range chunk {
					fail(i, bctx.Err())
				}
				return
			}
			defer func() { <-sem }()
			if err := bctx.Err(); err != nil {
				for _, i := range chunk {
					fail(i, err)
				}
				return
			}
			e.computeChunk(bctx, bkeys[chunk[0]], reqs, chunk, finish, abort)
		}(chunk)
	}

	wg.Wait()
	// Prefer the first real failure over the cancellations it caused.
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) && !errors.Is(err, context.DeadlineExceeded) {
			return nil, err
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// computeChunk replays one fingerprint-group chunk, whose behavior key
// is bk, through sim.ReplayBatch: the behavior trace is resolved once
// (single-flight memoized across chunks) and every member's
// connectivity architecture is re-timed in the same trace pass. A batch
// fails as a whole when any member's architecture is rejected, so on
// failure each member is re-timed as its own K=1 replay: the error
// names its own request and one poisoned member cannot take down its
// group-mates.
func (e *Engine) computeChunk(ctx context.Context, bk uint64, reqs []Request, chunk []int, finish func(int, Value, error), abort func(error)) {
	instrumented := e.obs.Enabled() || e.metrics != nil
	var start time.Time
	if instrumented {
		start = time.Now()
	}
	bt, store, err := e.behaviorTrace(ctx, bk, reqs[chunk[0]])
	if err != nil {
		for _, i := range chunk {
			finish(i, Value{}, err)
		}
		abort(err)
		return
	}
	if store != nil {
		// Chunks waiting on this capture replay meanwhile; the write
		// still completes before Evaluate returns.
		defer store()
	}
	if e.replayChunk(bt, reqs, chunk, start, finish) == nil {
		return
	}
	for j, i := range chunk {
		if instrumented {
			start = time.Now()
		}
		if err := e.replayChunk(bt, reqs, chunk[j:j+1], start, finish); err != nil {
			finish(i, Value{}, err)
			abort(err)
		}
	}
}

// replayChunk re-times the chunk's members on a resolved behavior trace
// in one ReplayBatch pass and publishes their values with full stats
// and observability accounting; start is when the chunk's work began
// (zero when uninstrumented). On error nothing is published.
func (e *Engine) replayChunk(bt *sim.BehaviorTrace, reqs []Request, chunk []int, start time.Time, finish func(int, Value, error)) error {
	archs := make([]*connect.Arch, len(chunk))
	for j, i := range chunk {
		archs[j] = reqs[i].Conn
	}
	results, err := sim.ReplayBatch(bt, archs)
	if err != nil {
		return err
	}
	instrumented := e.obs.Enabled() || e.metrics != nil
	var wall, amort time.Duration
	if instrumented {
		wall = time.Since(start)
		amort = wall / time.Duration(len(chunk))
	}
	for j, i := range chunk {
		r := reqs[i]
		res := results[j]
		v := Value{
			Cost:      r.Mem.Gates() + r.Conn.Gates(),
			Latency:   res.AvgLatency(),
			Energy:    res.AvgEnergy(),
			Estimated: r.Mode == Sampled,
			Work:      res.Accesses,
		}
		e.m.schedIssues.Add(res.SchedIssues)
		e.m.schedConflicts.Add(res.SchedConflicts)
		e.recordSim(r, v)
		if instrumented {
			e.m.evals.Inc()
			e.m.sims.Inc()
			if r.Mode == Full {
				e.m.fullAcc.Add(v.Work)
				e.m.evalWallFull.Observe(float64(amort.Microseconds()))
			} else {
				e.m.sampledAcc.Add(v.Work)
				e.m.evalWallSampled.Observe(float64(amort.Microseconds()))
			}
			e.emitEval(r, v, amort)
		}
		finish(i, v, nil)
	}
	e.mu.Lock()
	e.stats.BatchReplays++
	e.stats.BatchedEvals += int64(len(chunk))
	e.mu.Unlock()
	e.m.batches.Inc()
	e.m.batchSize.Observe(float64(len(chunk)))
	if instrumented {
		e.m.batchWall.Observe(float64(wall.Microseconds()))
	}
	return nil
}
