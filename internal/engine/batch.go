// Batched dispatch: Evaluate groups pending requests by
// behavior-trace fingerprint and re-times each group's connectivity
// architectures through sim.ReplayBatch — one pass over the shared
// event trace per chunk instead of one per candidate. Before anything
// is dispatched, a timing-signature dedup front-end collapses requests
// whose connectivity architectures resolve to identical timing
// parameters: followers share the leader's replay result and only
// recompute their own (closed-form) gate cost. The remaining leaders
// of each group are chunked across the worker pool, one ReplayBatch
// pass per chunk; a group with a single leader is a K=1 chunk.
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

// chunkSpan returns the chunk size for n group leaders on w workers:
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
		keys[i] = e.key(r)
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

	// Group the owned requests by behavior fingerprint, dedup identical
	// timing signatures within each group, and chunk the remaining
	// leaders for batched replay.
	var groupOrder []uint64
	groups := map[uint64][]int{}
	for i, r := range reqs {
		if errs[i] != nil || !owned[i] {
			continue
		}
		bk := e.behaviorKey(r)
		if _, ok := groups[bk]; !ok {
			groupOrder = append(groupOrder, bk)
		}
		groups[bk] = append(groups[bk], i)
	}
	var chunks [][]int     // request indices, one ReplayBatch pass each
	var followers [][2]int // {follower index, leader index}
	for _, bk := range groupOrder {
		var leaders []int
		sigSeen := map[uint64]int{}
		for _, i := range groups[bk] {
			sig := timingSignature(reqs[i].Conn)
			if l, ok := sigSeen[sig]; ok {
				followers = append(followers, [2]int{i, l})
				continue
			}
			sigSeen[sig] = i
			leaders = append(leaders, i)
		}
		span := chunkSpan(len(leaders), e.workers)
		for lo := 0; lo < len(leaders); lo += span {
			hi := lo + span
			if hi > len(leaders) {
				hi = len(leaders)
			}
			chunks = append(chunks, leaders[lo:hi])
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

	// Dedup followers share the leader's replay figures with their own
	// connectivity cost; they own a memo entry of their own, so later
	// requests for the same design hit the cache directly.
	for _, fl := range followers {
		wg.Add(1)
		go func(i, leader int) {
			defer wg.Done()
			v, err := e.awaitShared(bctx, reqs[i], ents[leader])
			finish(i, v, err)
			if err != nil {
				abort(err)
			}
		}(fl[0], fl[1])
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
			e.computeChunk(bctx, reqs, chunk, finish, abort)
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

// computeChunk replays one fingerprint-group chunk through
// sim.ReplayBatch: the behavior trace is resolved once (single-flight
// memoized across chunks) and every member's connectivity architecture
// is re-timed in the same trace pass. A batch fails as a whole when any
// member's architecture is rejected, so on failure each member is
// re-timed as its own K=1 replay: the error names its own request and
// one poisoned member cannot take down its group-mates.
func (e *Engine) computeChunk(ctx context.Context, reqs []Request, chunk []int, finish func(int, Value, error), abort func(error)) {
	instrumented := e.obs.Enabled() || e.metrics != nil
	var start time.Time
	if instrumented {
		start = time.Now()
	}
	bt, store, err := e.behaviorTrace(ctx, reqs[chunk[0]])
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

// awaitShared waits for a timing-identical leader's result and adapts
// it to this request: the replayed latency and energy transfer as-is,
// the gate cost is recomputed from this design's own components, and
// no simulated work is attributed. The share is counted as a dedup
// hit, not a cache hit — the design was never simulated before.
func (e *Engine) awaitShared(ctx context.Context, r Request, leader *entry) (Value, error) {
	instrumented := e.obs.Enabled() || e.metrics != nil
	var start time.Time
	if instrumented {
		start = time.Now()
	}
	select {
	case <-leader.done:
	case <-ctx.Done():
		return Value{}, ctx.Err()
	}
	if leader.err != nil {
		return Value{}, leader.err
	}
	// The leader validated only its own architecture; a same-timing
	// follower can still be structurally infeasible (port bounds are
	// not part of the timing signature).
	if err := r.Conn.Validate(); err != nil {
		return Value{}, err
	}
	v := leader.val
	v.Cost = r.Mem.Gates() + r.Conn.Gates()
	v.Work = 0
	v.Hit = false
	e.mu.Lock()
	e.stats.BatchDedupHits++
	e.mu.Unlock()
	e.m.batchDedup.Inc()
	if instrumented {
		e.m.evals.Inc()
		e.emitEval(r, v, time.Since(start))
	}
	return v, nil
}
