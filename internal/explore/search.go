package explore

import (
	"context"
	"fmt"
	"math"
	"strconv"
	"strings"

	"memorex/internal/connect"
	"memorex/internal/core"
	"memorex/internal/engine"
	"memorex/internal/mem"
	"memorex/internal/obs"
	"memorex/internal/trace"
)

// This file implements the two heuristic exploration drivers (GA and
// SA) for design spaces where Full and Pruned enumeration stop scaling.
// Both walk the same genome space — a (memory architecture, clustering
// level, per-cluster component) triple — and share one evaluation
// economy:
//
//   - the time-sampling estimator is the cheap fitness tier: every new
//     genome is estimated with one Sampled-mode engine request;
//   - candidates near the estimated pareto front are promoted to a
//     Full-mode replay, and the observed estimator error (the obs
//     estimator-error signal) widens or narrows the promotion band;
//   - the pareto archive grows incrementally as results arrive, and
//     Outcome.Points holds exactly the promoted (fully simulated)
//     designs, so Table 2's coverage metric applies unchanged.
//
// All evaluations flow through engine.Evaluate in deterministic
// submission order, so the engine's memoization makes revisits free
// and its batch replay re-times each batch in shared trace passes.
// Every random decision draws from a PRNG split deterministically from
// SearchConfig.Seed (per generation/step, per individual/chain), never
// from shared state, so the same seed yields byte-identical fronts at
// any worker count.

// SearchProvenance records how a heuristic front was produced; it is
// embedded in reports so every front is reproducible from its report.
type SearchProvenance struct {
	Strategy   string `json:"strategy"`
	Seed       int64  `json:"seed"`
	Budget     int    `json:"budget"`
	Population int    `json:"population"`
	// Evals counts the evaluation requests the driver submitted to the
	// engine (sampled estimates + full promotions); locally
	// deduplicated revisits are excluded.
	Evals int64 `json:"evals"`
	// Generations counts GA generations, Steps SA annealing steps.
	Generations int `json:"generations,omitempty"`
	Steps       int `json:"steps,omitempty"`
	// Promotions counts the candidates promoted to full simulation.
	Promotions int64 `json:"promotions,omitempty"`
}

// rng is a splitmix64 PRNG. Drivers never share one: each decision site
// derives its own from (seed, site tags...), so randomness is a pure
// function of the configuration, not of scheduling.
type rng struct{ state uint64 }

// splitRNG derives an independent stream from the seed and tag path.
func splitRNG(seed int64, tags ...uint64) *rng {
	r := &rng{state: uint64(seed)*0x9E3779B97F4A7C15 + 0x1F0A5C3B2E4D6789}
	for _, t := range tags {
		r.state ^= t*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
		r.next()
	}
	return r
}

func (r *rng) next() uint64 {
	r.state += 0x9E3779B97F4A7C15
	z := r.state
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int {
	if n <= 1 {
		return 0
	}
	return int(r.next() % uint64(n))
}

func (r *rng) float() float64 { return float64(r.next()>>11) / float64(1<<53) }

// memSpace is the decoded connectivity search space of one memory
// architecture: its clustering hierarchy and, per level, the feasible
// component choices of every cluster.
type memSpace struct {
	arch     *mem.Architecture
	channels []mem.Channel
	levels   []core.Clustering
	// feas[level][cluster] lists the library components that can
	// implement the cluster. Levels with an unimplementable cluster are
	// dropped at build time.
	feas [][][]connect.Component
}

// genome is one search candidate: a memory architecture, a clustering
// level and one component choice per cluster of that level.
type genome struct {
	mem   int
	level int
	comps []int
}

// key returns the canonical identity of the genome for local dedup.
func (g genome) key() string {
	var b strings.Builder
	b.WriteString(strconv.Itoa(g.mem))
	b.WriteByte('.')
	b.WriteString(strconv.Itoa(g.level))
	for _, c := range g.comps {
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(c))
	}
	return b.String()
}

func (g genome) clone() genome {
	out := g
	out.comps = append([]int(nil), g.comps...)
	return out
}

// buildSearchSpace precomputes the feasible-component table of every
// clustering level of every memory architecture's BRG.
func buildSearchSpace(brgs []*core.BRG, lib []connect.Component) ([]*memSpace, error) {
	var spaces []*memSpace
	for _, brg := range brgs {
		ms := &memSpace{arch: brg.Arch, channels: brg.Channels}
		for _, level := range core.Levels(brg) {
			feas := make([][]connect.Component, len(level))
			ok := true
			for i, cl := range level {
				ports := len(cl) + 1
				off := brg.Channels[cl[0]].OffChip
				feas[i] = core.FeasibleComponents(lib, ports, off)
				if len(feas[i]) == 0 {
					ok = false
					break
				}
			}
			if !ok {
				continue
			}
			ms.levels = append(ms.levels, level)
			ms.feas = append(ms.feas, feas)
		}
		if len(ms.levels) > 0 {
			spaces = append(spaces, ms)
		}
	}
	if len(spaces) == 0 {
		return nil, fmt.Errorf("explore: search space is empty (no implementable clustering level)")
	}
	return spaces, nil
}

// decode builds the connectivity architecture of a genome. Cluster
// slices are shared with the level table — candidates never mutate
// them.
func (ms *memSpace) decode(g genome) *connect.Arch {
	assign := make([]connect.Component, len(g.comps))
	for i, c := range g.comps {
		assign[i] = ms.feas[g.level][i][c]
	}
	return &connect.Arch{Channels: ms.channels, Clusters: ms.levels[g.level], Assign: assign}
}

// randomGenome draws a random genome over the arch's space. The level
// draw is biased toward the coarse end of the hierarchy (the max of two
// uniforms): coarse levels use fewer components, so the cost-cheap half
// of the front concentrates there, while fine levels still get sampled.
func randomGenome(memIdx int, ms *memSpace, r *rng) genome {
	level := max(r.intn(len(ms.levels)), r.intn(len(ms.levels)))
	comps := make([]int, len(ms.feas[level]))
	for i := range comps {
		comps[i] = r.intn(len(ms.feas[level][i]))
	}
	return genome{mem: memIdx, level: level, comps: comps}
}

// cornerGenome returns an extreme genome of one clustering level: every
// cluster takes its first (lo) or last (hi) feasible component. The
// library orders components roughly cheap-to-rich, so the corners land
// near the cost and performance endpoints of the pareto front — seeding
// them gives every driver the front extremes for two evaluations per
// level.
func cornerGenome(memIdx int, ms *memSpace, level int, hi bool) genome {
	comps := make([]int, len(ms.feas[level]))
	if hi {
		for i := range comps {
			comps[i] = len(ms.feas[level][i]) - 1
		}
	}
	return genome{mem: memIdx, level: level, comps: comps}
}

// gridSize is the number of assignments of one clustering level (the
// product of per-cluster feasible-component counts), capped at lim+1.
func (ms *memSpace) gridSize(level, lim int) int {
	n := 1
	for _, feas := range ms.feas[level] {
		n *= len(feas)
		if n > lim {
			return lim + 1
		}
	}
	return n
}

// enumLevel enumerates every genome of one clustering level in
// mixed-radix odometer order.
func enumLevel(memIdx int, ms *memSpace, level int) []genome {
	var out []genome
	comps := make([]int, len(ms.feas[level]))
	for {
		out = append(out, genome{mem: memIdx, level: level, comps: append([]int(nil), comps...)})
		i := 0
		for ; i < len(comps); i++ {
			comps[i]++
			if comps[i] < len(ms.feas[level][i]) {
				break
			}
			comps[i] = 0
		}
		if i == len(comps) {
			return out
		}
	}
}

// sweepGenomes picks the clustering levels small enough to enumerate
// outright — coarsest first, round-robin across architectures so no
// arch monopolizes the allowance — and returns their full grids.
// Searching a 16-design grid costs more evaluations than enumerating
// it, and the coarse grids are where front density is highest.
func sweepGenomes(mems []*memSpace, allowance int) []genome {
	var out []genome
	for round := 0; allowance > 0; round++ {
		any := false
		for mi, ms := range mems {
			level := len(ms.levels) - 1 - round
			if level < 0 {
				continue
			}
			any = true
			if size := ms.gridSize(level, allowance); size <= allowance {
				allowance -= size
				out = append(out, enumLevel(mi, ms, level)...)
			}
		}
		if !any {
			break
		}
	}
	return out
}

// cornerGenomes enumerates both corners of the two coarsest clustering
// levels of an arch. Coarse levels use the fewest components and so
// dominate the cost-cheap half of the front (the paper's merge loop
// drives the same direction); their corners bracket the region where
// front density is highest.
func cornerGenomes(memIdx int, ms *memSpace) []genome {
	n := len(ms.levels)
	levels := []int{n - 1}
	if n > 1 {
		levels = append(levels, n-2)
	}
	var out []genome
	for _, level := range levels {
		out = append(out, cornerGenome(memIdx, ms, level, false), cornerGenome(memIdx, ms, level, true))
	}
	return out
}

// remapLevel moves a genome to a different clustering level of the same
// architecture, inheriting component choices positionally (clamped to
// each cluster's feasible range).
func remapLevel(ms *memSpace, g genome, level int) genome {
	out := genome{mem: g.mem, level: level, comps: make([]int, len(ms.feas[level]))}
	for i := range out.comps {
		src := g.comps[min(i, len(g.comps)-1)]
		out.comps[i] = src % len(ms.feas[level][i])
	}
	return out
}

// candidate is one archive entry: a genome with its best-known metrics
// (sampled estimate until promoted, full-simulation values after).
type candidate struct {
	g    genome
	conn *connect.Arch
	cost float64
	lat  float64
	nrg  float64
	full bool
}

// searcher holds the state shared by both drivers.
type searcher struct {
	eng   *engine.Engine
	t     *trace.Trace
	cfg   core.Config
	scfg  core.SearchConfig
	mems  []*memSpace
	out   *Outcome
	prov  *SearchProvenance
	byKey map[string]int
	arch  []candidate
	// margin is the promotion band: candidates whose estimate is within
	// this relative distance of the estimated front are promoted. It
	// adapts to the observed estimator error (the promote-on-
	// estimator-error rule).
	margin  float64
	errSum  float64
	errN    int64
	evals   int64
	workSum int64
	// estReserve is the slice of the budget estimates may never spend:
	// it guarantees the final promotion pass always has evaluations
	// left, so even a budget dwarfed by the space (or consumed whole by
	// seeding) yields fully simulated points instead of an empty front.
	estReserve int
}

// engine phase labels of the heuristic drivers.
const (
	phaseSearchEstimate = "explore/search-estimate"
	phaseSearchPromote  = "explore/search-promote"
)

func newSearcher(eng *engine.Engine, t *trace.Trace, mems []*memSpace, cfg core.Config, scfg core.SearchConfig, strategy Strategy, out *Outcome) *searcher {
	prov := &SearchProvenance{
		Strategy:   strategy.String(),
		Seed:       scfg.Seed,
		Budget:     scfg.Budget,
		Population: scfg.Population,
	}
	out.Search = prov
	return &searcher{
		eng:        eng,
		t:          t,
		cfg:        cfg,
		scfg:       scfg,
		mems:       mems,
		out:        out,
		prov:       prov,
		byKey:      map[string]int{},
		margin:     0.02,
		estReserve: max(2, scfg.Budget/8),
	}
}

func (s *searcher) remaining() int { return s.scfg.Budget - int(s.evals) }

// estimate evaluates every not-yet-seen genome with the sampling
// estimator and returns the archive index of each input genome (-1 when
// the budget ran out before it could be estimated). Duplicates — within
// the batch or against the archive — cost nothing.
func (s *searcher) estimate(ctx context.Context, gs []genome, limit int) ([]int, error) {
	idx := make([]int, len(gs))
	var designs []core.DesignPoint
	var newIdx []int
	budget := s.remaining() - s.estReserve
	if budget < 0 {
		budget = 0
	}
	if limit > 0 && limit < budget {
		budget = limit
	}
	for i, g := range gs {
		k := g.key()
		if j, ok := s.byKey[k]; ok {
			idx[i] = j
			continue
		}
		if len(designs) >= budget {
			idx[i] = -1
			continue
		}
		ms := s.mems[g.mem]
		conn := ms.decode(g)
		j := len(s.arch)
		s.byKey[k] = j
		s.arch = append(s.arch, candidate{g: g, conn: conn})
		idx[i] = j
		newIdx = append(newIdx, j)
		designs = append(designs, core.DesignPoint{MemArch: ms.arch, Conn: conn})
	}
	if len(designs) == 0 {
		return idx, nil
	}
	work, err := core.Evaluate(ctx, s.eng, s.t, designs, engine.Sampled, s.cfg.Sampling, phaseSearchEstimate)
	if err != nil {
		return nil, err
	}
	s.evals += int64(len(designs))
	s.workSum += work
	s.eng.Metrics().Counter("explore/search/estimates").Add(int64(len(designs)))
	for i := range designs {
		c := &s.arch[newIdx[i]]
		c.cost, c.lat, c.nrg = designs[i].Cost, designs[i].Latency, designs[i].Energy
	}
	return idx, nil
}

// marginDominated reports whether archive candidate i is beaten by more
// than the relative margin m on both axes of some projection — by any
// other candidate, in all three metric projections. A candidate that
// survives in at least one projection is "near the front" and worth
// promoting (the union mirrors core.SelectLocal's three fronts). At
// m = 0 this is plain strict pareto domination per projection.
func (s *searcher) marginDominated(i int, m float64) bool {
	p := &s.arch[i]
	projs := [3][2]float64{
		{p.cost, p.lat},
		{p.lat, p.nrg},
		{p.cost, p.nrg},
	}
	survive := [3]bool{true, true, true}
	for qi := range s.arch {
		if qi == i {
			continue
		}
		q := &s.arch[qi]
		qp := [3][2]float64{
			{q.cost, q.lat},
			{q.lat, q.nrg},
			{q.cost, q.nrg},
		}
		any := false
		for pi := range projs {
			if survive[pi] {
				x, y := projs[pi][0]*(1-m), projs[pi][1]*(1-m)
				if qp[pi][0] <= x && qp[pi][1] <= y &&
					(m > 0 || qp[pi][0] < x || qp[pi][1] < y) {
					survive[pi] = false
				}
			}
			any = any || survive[pi]
		}
		if !any {
			return true
		}
	}
	return false
}

// promote fully simulates up to cap unpromoted candidates within the
// promotion band and folds the exact values back into the archive. The
// estimator error observed on each promotion adapts the band: sloppy
// estimates widen it, tight ones narrow it toward its floor.
func (s *searcher) promote(ctx context.Context, limit int) error {
	budget := s.remaining()
	if budget <= 0 {
		return nil
	}
	if limit > 0 && limit < budget {
		budget = limit
	}
	// Front members first, then the surrounding margin band: when the
	// budget truncates the pass, the sure winners are already promoted.
	var picks []int
	picked := map[int]bool{}
	for _, m := range []float64{0, s.margin} {
		for i := range s.arch {
			if len(picks) >= budget {
				break
			}
			c := &s.arch[i]
			if c.full || picked[i] || s.marginDominated(i, m) {
				continue
			}
			picked[i] = true
			picks = append(picks, i)
		}
	}
	if len(picks) == 0 {
		return nil
	}
	designs := make([]core.DesignPoint, len(picks))
	for i, j := range picks {
		c := &s.arch[j]
		designs[i] = core.DesignPoint{MemArch: s.mems[c.g.mem].arch, Conn: c.conn}
	}
	work, err := core.Evaluate(ctx, s.eng, s.t, designs, engine.Full, s.cfg.Sampling, phaseSearchPromote)
	if err != nil {
		return err
	}
	s.evals += int64(len(designs))
	s.workSum += work
	s.prov.Promotions += int64(len(designs))
	m := s.eng.Metrics()
	m.Counter("explore/search/promotions").Add(int64(len(designs)))
	estErr := m.Histogram("sampling/est_err_pct")
	o := obs.FromContext(ctx, s.eng.Observer())
	for i := range designs {
		c, d := &s.arch[picks[i]], &designs[i]
		if d.Latency > 0 {
			rel := math.Abs(c.lat-d.Latency) / d.Latency
			estErr.Observe(100 * rel)
			if o.Enabled() {
				o.EstimatorError(d.MemArch.Name, c.conn.Describe(d.MemArch), c.lat, d.Latency, 100*rel)
			}
			s.errSum += rel
			s.errN++
		}
		c.cost, c.lat, c.nrg = d.Cost, d.Latency, d.Energy
		c.full = true
	}
	s.out.Points = append(s.out.Points, designs...)
	// Promote-on-estimator-error rule: the band is two average
	// errors wide, floored at 1% and capped at 8%.
	if s.errN > 0 {
		s.margin = math.Min(0.08, math.Max(0.01, 2*s.errSum/float64(s.errN)))
	}
	m.Gauge("explore/search/front_size").Set(float64(s.frontSize()))
	return nil
}

// frontSize counts the cost/latency-nondominated archive entries.
func (s *searcher) frontSize() int {
	n := 0
	for i := range s.arch {
		if !s.marginDominated(i, 0) {
			n++
		}
	}
	return n
}

// refine estimates every single-move neighbor (one component step, one
// level step) of the current front candidates — the memetic endgame
// that secures coverage around the front before the final promotion
// pass. Called in a loop it performs hill climbing on the front itself:
// every improving neighbor joins the archive and becomes next round's
// seed.
func (s *searcher) refine(ctx context.Context, limit int) error {
	// Seed from a thin band around the front, not the strict front: a
	// true front member whose estimate is off by a sampling error would
	// otherwise never be walked from, stalling the traversal one step
	// short of its neighbors.
	band := math.Min(s.margin/2, 0.015)
	var seeds []int
	for i := range s.arch {
		if !s.marginDominated(i, band) {
			seeds = append(seeds, i)
		}
	}
	var moves []genome
	for _, i := range seeds {
		g := s.arch[i].g
		ms := s.mems[g.mem]
		for ci := range g.comps {
			for _, d := range []int{-1, 1} {
				nc := g.comps[ci] + d
				if nc < 0 || nc >= len(ms.feas[g.level][ci]) {
					continue
				}
				ng := g.clone()
				ng.comps[ci] = nc
				moves = append(moves, ng)
			}
		}
		for _, d := range []int{-1, 1} {
			nl := g.level + d
			if nl < 0 || nl >= len(ms.levels) {
				continue
			}
			moves = append(moves, remapLevel(ms, g, nl))
		}
	}
	_, err := s.estimate(ctx, moves, limit)
	return err
}

// scalar is the normalized aggregate fitness used only to break rank
// ties and to measure improvement magnitudes; lower is better.
func (s *searcher) scalar(c *candidate, lo, span [3]float64) float64 {
	return (c.cost-lo[0])/span[0] + (c.lat-lo[1])/span[1] + (c.nrg-lo[2])/span[2]
}

// bounds returns the archive-wide metric minima and spans for
// normalization (spans floored to avoid division by zero).
func (s *searcher) bounds() (lo, span [3]float64) {
	lo = [3]float64{math.Inf(1), math.Inf(1), math.Inf(1)}
	hi := [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}
	for i := range s.arch {
		c := &s.arch[i]
		for k, v := range [3]float64{c.cost, c.lat, c.nrg} {
			lo[k] = math.Min(lo[k], v)
			hi[k] = math.Max(hi[k], v)
		}
	}
	for k := range span {
		span[k] = math.Max(hi[k]-lo[k], 1e-9)
	}
	return lo, span
}

// dominates reports whether a is no worse than b on all three metrics
// and strictly better on at least one.
func dominates(a, b *candidate) bool {
	return a.cost <= b.cost && a.lat <= b.lat && a.nrg <= b.nrg &&
		(a.cost < b.cost || a.lat < b.lat || a.nrg < b.nrg)
}

// runSearch dispatches the heuristic driver of the strategy and
// finishes with the shared endgame: neighborhood refinement around the
// front, then a final promotion pass with the leftover budget.
func runSearch(ctx context.Context, eng *engine.Engine, t *trace.Trace, sp *Space, strategy Strategy, cfg core.Config, out *Outcome) error {
	scfg, err := cfg.Search.Normalize()
	if err != nil {
		return err
	}
	brgs, err := sp.brgs(ctx, t, sp.AllMem, eng.Workers())
	if err != nil {
		return err
	}
	mems, err := buildSearchSpace(brgs, cfg.Library)
	if err != nil {
		return err
	}
	stop := eng.StartPhase("explore/search")
	defer stop()
	s := newSearcher(eng, t, mems, cfg, scfg, strategy, out)
	if err := s.seed(ctx); err != nil {
		return err
	}
	switch strategy {
	case GA:
		err = s.runGA(ctx)
	case SA:
		err = s.runSA(ctx)
	default:
		err = fmt.Errorf("explore: %v is not a heuristic strategy", strategy)
	}
	if err != nil {
		return err
	}
	if err := s.endgame(ctx); err != nil {
		return err
	}
	s.prov.Evals = s.evals
	s.out.WorkAccesses = s.workSum
	eng.Metrics().Counter("explore/search/evals").Add(s.evals)
	return nil
}

// seed brackets every architecture's subspace with its corner genomes
// and exhaustively sweeps the coarse levels that are cheaper to
// enumerate than to search (a third of the budget at most). Both
// drivers then start with the front extremes and the densest front
// region already in the archive.
func (s *searcher) seed(ctx context.Context) error {
	var seeds []genome
	for i, ms := range s.mems {
		seeds = append(seeds, cornerGenomes(i, ms)...)
	}
	seeds = append(seeds, sweepGenomes(s.mems, s.scfg.Budget/3)...)
	_, err := s.estimate(ctx, seeds, 0)
	return err
}

// endgame alternates front-neighborhood refinement and promotion until
// the search converges (no new candidates) or the budget is gone.
// Promotion replaces front estimates with exact values, so each
// refinement round climbs from progressively truer ground.
func (s *searcher) endgame(ctx context.Context) error {
	// Discovery rounds: expand the front with cheap estimates only,
	// always reserving enough budget to fully promote the front (plus
	// half again for its margin band) afterwards.
	for {
		fs := s.frontSize()
		reserve := fs + fs/2
		if s.remaining() <= reserve {
			break
		}
		before := len(s.arch)
		if err := s.refine(ctx, s.remaining()-reserve); err != nil {
			return err
		}
		if len(s.arch) == before {
			break
		}
	}
	// Promotion flush: the whole front and its margin band, exactly
	// what the reserve was kept for.
	return s.promote(ctx, 0)
}

// runGA is the generational GA driver: one island per memory
// architecture (the population is split evenly), binary-tournament
// selection on pareto rank, uniform crossover within a level,
// component/level mutation, μ+λ elitist survival, and periodic random
// immigrants for diversity. Every generation promotes the current
// near-front band to full simulation.
func (s *searcher) runGA(ctx context.Context) error {
	seed := s.scfg.Seed
	nIsl := len(s.mems)
	ipop := s.scfg.Population / nIsl
	if ipop < 4 {
		ipop = 4
	}
	genCounter := s.eng.Metrics().Counter("explore/search/generations")
	improv := s.eng.Metrics().Histogram("explore/search/fitness_improv_pct")

	// Deterministic initial populations, one island per architecture:
	// the arch's corner genomes (already estimated — dedup makes them
	// free) plus uniform randoms, trimmed to ipop by fitness.
	islands := make([][]int, nIsl)
	var initial []genome
	var bounds [][2]int
	for i, ms := range s.mems {
		start := len(initial)
		initial = append(initial, cornerGenomes(i, ms)...)
		for j := 0; j < ipop; j++ {
			initial = append(initial, randomGenome(i, ms, splitRNG(seed, 0x6A01, uint64(i), uint64(j))))
		}
		bounds = append(bounds, [2]int{start, len(initial)})
	}
	idx, err := s.estimate(ctx, initial, 0)
	if err != nil {
		return err
	}
	for i := range s.mems {
		islands[i] = s.survivors(dedupIdx(idx[bounds[i][0]:bounds[i][1]]), ipop)
	}

	mainBudget := s.scfg.Budget * 50 / 100
	prevBest := make([]float64, nIsl)
	for i := range prevBest {
		prevBest[i] = math.Inf(1)
	}
	for gen := 1; int(s.evals) < mainBudget && gen < 10_000; gen++ {
		genCounter.Inc()
		s.prov.Generations = gen
		lo, span := s.bounds()
		var offspring []genome
		offIsland := make([]int, 0, nIsl*ipop)
		for i := range islands {
			ranks := s.rankOf(islands[i])
			for j := 0; j < ipop; j++ {
				r := splitRNG(seed, 0x6A02, uint64(gen), uint64(i), uint64(j))
				var g genome
				if j == ipop-1 && gen%3 == 0 {
					// Immigrant: a fresh random genome keeps the island
					// exploring after convergence.
					g = randomGenome(i, s.mems[i], r)
				} else {
					p1 := s.tournament(islands[i], ranks, lo, span, r)
					g = s.arch[p1].g.clone()
					if r.float() < s.scfg.CrossoverRate {
						p2 := s.tournament(islands[i], ranks, lo, span, r)
						g = s.crossover(g, s.arch[p2].g, r)
					}
					g = s.mutate(g, r)
				}
				offspring = append(offspring, g)
				offIsland = append(offIsland, i)
			}
		}
		offIdx, err := s.estimate(ctx, offspring, 0)
		if err != nil {
			return err
		}
		// μ+λ survival per island: parents and offspring compete, the
		// best ipop (by rank, then scalar, then age) survive.
		for i := range islands {
			pool := append([]int(nil), islands[i]...)
			for k, oi := range offIdx {
				if offIsland[k] == i && oi >= 0 {
					pool = append(pool, oi)
				}
			}
			pool = dedupIdx(pool)
			islands[i] = s.survivors(pool, ipop)
			if best := s.bestScalar(islands[i], lo, span); best < prevBest[i] {
				if !math.IsInf(prevBest[i], 1) && prevBest[i] > 0 {
					improv.Observe(100 * (prevBest[i] - best) / prevBest[i])
				}
				prevBest[i] = best
			}
		}
		// A small calibration promotion per generation: enough full
		// replays to keep the estimator-error margin honest without
		// starving the endgame's budget.
		if err := s.promote(ctx, 4); err != nil {
			return err
		}
		if s.remaining() <= 0 {
			break
		}
	}
	return nil
}

// runSA is the parallel simulated-annealing driver: Population chains
// assigned round-robin to the memory architectures, each proposing one
// move per step (component step, level step, or a rare restart) and
// accepting by the Metropolis rule on the scalarized relative
// worsening under a geometric temperature schedule.
func (s *searcher) runSA(ctx context.Context) error {
	seed := s.scfg.Seed
	nChains := s.scfg.Population
	if nChains < 2*len(s.mems) {
		nChains = 2 * len(s.mems)
	}
	stepCounter := s.eng.Metrics().Counter("explore/search/steps")
	improv := s.eng.Metrics().Histogram("explore/search/fitness_improv_pct")

	// The first chains of each architecture start from its corner
	// genomes (already estimated — dedup makes them free), the rest
	// from uniform randoms.
	var initial []genome
	for c := 0; c < nChains; c++ {
		mi := c % len(s.mems)
		slot := c / len(s.mems)
		if cs := cornerGenomes(mi, s.mems[mi]); slot < len(cs) {
			initial = append(initial, cs[slot])
			continue
		}
		initial = append(initial, randomGenome(mi, s.mems[mi], splitRNG(seed, 0x5A01, uint64(c))))
	}
	cur, err := s.estimate(ctx, initial, 0)
	if err != nil {
		return err
	}
	for c := range cur {
		if cur[c] < 0 {
			cur[c] = 0 // budget smaller than the chain count: park on entry 0
		}
	}

	mainBudget := s.scfg.Budget * 50 / 100
	for step := 1; int(s.evals) < mainBudget && step < 100_000; step++ {
		stepCounter.Inc()
		s.prov.Steps = step
		temp := s.scfg.InitTemp * math.Pow(s.scfg.Cooling, float64(step))
		rngs := make([]*rng, nChains)
		proposals := make([]genome, nChains)
		for c := 0; c < nChains; c++ {
			rngs[c] = splitRNG(seed, 0x5A02, uint64(step), uint64(c))
			proposals[c] = s.proposeMove(s.arch[cur[c]].g, rngs[c])
		}
		idx, err := s.estimate(ctx, proposals, 0)
		if err != nil {
			return err
		}
		lo, span := s.bounds()
		for c := 0; c < nChains; c++ {
			if idx[c] < 0 {
				continue // out of budget: keep the current state
			}
			prev, next := &s.arch[cur[c]], &s.arch[idx[c]]
			accept := false
			switch {
			case dominates(next, prev) || (next.cost == prev.cost && next.lat == prev.lat && next.nrg == prev.nrg):
				accept = true
			default:
				delta := relWorsening(prev, next)
				if delta == 0 {
					accept = true // incomparable but no axis worsened
				} else if temp > 0 && rngs[c].float() < math.Exp(-delta/temp) {
					accept = true
				}
			}
			if accept {
				ps, ns := s.scalar(prev, lo, span), s.scalar(next, lo, span)
				if ns < ps && ps > 0 {
					improv.Observe(100 * (ps - ns) / ps)
				}
				cur[c] = idx[c]
			}
		}
		// A small calibration promotion every few steps keeps the
		// estimator-error margin honest without starving the endgame.
		if step%8 == 0 {
			if err := s.promote(ctx, 4); err != nil {
				return err
			}
		}
		if s.remaining() <= 0 {
			break
		}
	}
	return nil
}

// relWorsening is the SA acceptance energy: the summed relative
// worsening of every axis the move degrades.
func relWorsening(prev, next *candidate) float64 {
	d := 0.0
	for _, p := range [3][2]float64{{prev.cost, next.cost}, {prev.lat, next.lat}, {prev.nrg, next.nrg}} {
		if p[1] > p[0] && p[0] > 0 {
			d += (p[1] - p[0]) / p[0]
		}
	}
	return d
}

// proposeMove draws one SA neighborhood move.
func (s *searcher) proposeMove(g genome, r *rng) genome {
	ms := s.mems[g.mem]
	roll := r.float()
	switch {
	case roll < 0.05:
		// Restart: a fresh random genome of the same architecture.
		return randomGenome(g.mem, ms, r)
	case roll < 0.30 && len(ms.levels) > 1:
		// Level move: one step up or down the clustering hierarchy.
		d := 1
		if r.intn(2) == 0 {
			d = -1
		}
		nl := g.level + d
		if nl < 0 {
			nl = g.level + 1
		} else if nl >= len(ms.levels) {
			nl = g.level - 1
		}
		return remapLevel(ms, g, nl)
	default:
		// Component move: step one cluster's component, mostly to a
		// neighboring library entry (cost/speed-adjacent), sometimes
		// anywhere.
		ng := g.clone()
		ci := r.intn(len(ng.comps))
		n := len(ms.feas[g.level][ci])
		if n > 1 {
			if r.float() < 0.7 {
				d := 1
				if r.intn(2) == 0 {
					d = -1
				}
				ng.comps[ci] = (ng.comps[ci] + d + n) % n
			} else {
				ng.comps[ci] = r.intn(n)
			}
		}
		return ng
	}
}

// mutate applies the GA mutation operators: per-cluster component
// mutation (step or uniform), and an occasional level move.
func (s *searcher) mutate(g genome, r *rng) genome {
	ms := s.mems[g.mem]
	if r.float() < 0.15 && len(ms.levels) > 1 {
		d := 1
		if r.intn(2) == 0 {
			d = -1
		}
		nl := g.level + d
		if nl < 0 {
			nl = 1
		} else if nl >= len(ms.levels) {
			nl = len(ms.levels) - 2
		}
		g = remapLevel(ms, g, nl)
	}
	for ci := range g.comps {
		if r.float() >= s.scfg.MutationRate {
			continue
		}
		n := len(ms.feas[g.level][ci])
		if n <= 1 {
			continue
		}
		if r.float() < 0.6 {
			d := 1
			if r.intn(2) == 0 {
				d = -1
			}
			g.comps[ci] = (g.comps[ci] + d + n) % n
		} else {
			g.comps[ci] = r.intn(n)
		}
	}
	return g
}

// crossover recombines two parents. Same level: uniform gene exchange;
// different levels: keep a's level, splicing b's genes positionally.
func (s *searcher) crossover(a genome, b genome, r *rng) genome {
	ms := s.mems[a.mem]
	out := a.clone()
	for i := range out.comps {
		if r.intn(2) == 0 {
			continue
		}
		src := b.comps[min(i, len(b.comps)-1)]
		out.comps[i] = src % len(ms.feas[out.level][i])
	}
	return out
}

// rankOf computes the nondomination rank of each population member
// (rank 0 = nondominated within the population).
func (s *searcher) rankOf(pop []int) map[int]int {
	ranks := make(map[int]int, len(pop))
	remaining := append([]int(nil), pop...)
	rank := 0
	for len(remaining) > 0 {
		var front, rest []int
		for _, i := range remaining {
			dominated := false
			for _, j := range remaining {
				if i != j && dominates(&s.arch[j], &s.arch[i]) {
					dominated = true
					break
				}
			}
			if dominated {
				rest = append(rest, i)
			} else {
				front = append(front, i)
			}
		}
		if len(front) == 0 { // all mutually identical: flush
			front, rest = remaining, nil
		}
		for _, i := range front {
			ranks[i] = rank
		}
		remaining = rest
		rank++
	}
	return ranks
}

// tournament picks the better of two random population members: lower
// rank wins, ties break on the normalized scalar, then on archive age.
func (s *searcher) tournament(pop []int, ranks map[int]int, lo, span [3]float64, r *rng) int {
	a, b := pop[r.intn(len(pop))], pop[r.intn(len(pop))]
	if ranks[a] != ranks[b] {
		if ranks[a] < ranks[b] {
			return a
		}
		return b
	}
	sa, sb := s.scalar(&s.arch[a], lo, span), s.scalar(&s.arch[b], lo, span)
	if sa != sb {
		if sa < sb {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}

// survivors selects the best n of the pool: by rank, then scalar, then
// archive age — a deterministic total order.
func (s *searcher) survivors(pool []int, n int) []int {
	ranks := s.rankOf(pool)
	lo, span := s.bounds()
	ordered := append([]int(nil), pool...)
	// Insertion sort keeps the selection dependency-free and stable.
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && s.lessFit(ordered[j], ordered[j-1], ranks, lo, span); j-- {
			ordered[j], ordered[j-1] = ordered[j-1], ordered[j]
		}
	}
	if len(ordered) > n {
		ordered = ordered[:n]
	}
	return ordered
}

func (s *searcher) lessFit(a, b int, ranks map[int]int, lo, span [3]float64) bool {
	if ranks[a] != ranks[b] {
		return ranks[a] < ranks[b]
	}
	sa, sb := s.scalar(&s.arch[a], lo, span), s.scalar(&s.arch[b], lo, span)
	if sa != sb {
		return sa < sb
	}
	return a < b
}

// bestScalar returns the minimum scalar fitness of a population.
func (s *searcher) bestScalar(pop []int, lo, span [3]float64) float64 {
	best := math.Inf(1)
	for _, i := range pop {
		best = math.Min(best, s.scalar(&s.arch[i], lo, span))
	}
	return best
}

// dedupIdx removes duplicate and invalid (-1) archive indices,
// preserving first-seen order.
func dedupIdx(idx []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, i := range idx {
		if i < 0 || seen[i] {
			continue
		}
		seen[i] = true
		out = append(out, i)
	}
	if len(out) == 0 {
		out = []int{0}
	}
	return out
}
