package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// naiveEnergy is the references' energy sum: every addend of every
// event, in trace order, into one float64.
func naiveEnergy(rows []classRow, add []float64, ids []uint32) float64 {
	var s float64
	for _, id := range ids {
		r := rows[id]
		for _, a := range add[r.lo:r.hi] {
			s += a
		}
	}
	return s
}

// shift returns rows with every addend range moved by off.
func shift(rows []classRow, off int32) []classRow {
	out := make([]classRow, len(rows))
	for i, r := range rows {
		out[i] = classRow{lo: r.lo + off, hi: r.hi + off}
	}
	return out
}

// energyCase is one family of traces for TestEnergySumExact: add
// draws the addends of class c of one architecture, weight its
// relative frequency, and prefix, when set, the first events.
type energyCase struct {
	name    string
	classes int
	n       int
	add     func(rng *rand.Rand, c int) []float64
	weight  func(c int) float64
	prefix  []uint32
}

// energyCases covers every path of energySum through its inputs: ties,
// signed zeros, subnormals, addends above the running sum, overflow,
// the float fallback, traces shorter than a block, and blocks that do
// not compress.
func energyCases() []energyCase {
	flat := func(int) float64 { return 1 }
	skewed := func(c int) float64 { return math.Pow(0.7, float64(c)) }
	return []energyCase{
		{
			// a = k + 2^-p is a tie in the binade 2^(53-p): the running
			// sum passes through several of those, and through binades
			// where the 2^-p part rounds or is exact.
			name: "dyadic-ties", classes: 6, n: 30_000, weight: skewed,
			add: func(rng *rand.Rand, c int) []float64 {
				out := make([]float64, 1+rng.Intn(3))
				for j := range out {
					out[j] = float64(rng.Intn(1000)) + math.Ldexp(1, -(30+rng.Intn(16)))
				}
				return out
			},
		},
		{
			// Small integers land the sum exactly on every power of two.
			name: "integers", classes: 4, n: 20_000, weight: skewed,
			add: func(rng *rand.Rand, c int) []float64 {
				out := make([]float64, 1+rng.Intn(3))
				for j := range out {
					out[j] = float64(1 + rng.Intn(4))
				}
				return out
			},
		},
		{
			// One class adding 1: from 2^9 on, every power of two the
			// sum reaches ends a block.
			name: "ones", classes: 1, n: 9000, weight: flat,
			add: func(*rand.Rand, int) []float64 { return []float64{1} },
		},
		{
			name: "signed-zeros", classes: 4, n: 20_000, weight: flat,
			prefix: []uint32{1, 0, 1, 1, 2, 0},
			add: func(rng *rand.Rand, c int) []float64 {
				negZero := math.Copysign(0, -1)
				switch c {
				case 0:
					return []float64{0}
				case 1:
					return []float64{negZero}
				case 2:
					return []float64{negZero, 0, negZero}
				}
				return []float64{negZero, 1 + rng.Float64()}
			},
		},
		{
			name: "only-negative-zero", classes: 1, n: 1000, weight: flat,
			add: func(*rand.Rand, int) []float64 { return []float64{math.Copysign(0, -1)} },
		},
		{
			// The sum starts subnormal and climbs through the lowest
			// normal binades, whose ulp is 2^-1074.
			name: "subnormals", classes: 5, n: 40_000, weight: skewed,
			add: func(rng *rand.Rand, c int) []float64 {
				out := make([]float64, 1+rng.Intn(2))
				for j := range out {
					out[j] = math.Ldexp(float64(1+rng.Int63n(1<<40)), -1074)
				}
				return out
			},
		},
		{
			// Rare addends far above the running sum skip binades, some
			// beyond 2^53 of its ulps.
			name: "larger-than-sum", classes: 5, n: 30_000,
			weight: func(c int) float64 { return []float64{1, 1, 1, 1e-3, 2e-4}[c] },
			add: func(rng *rand.Rand, c int) []float64 {
				switch c {
				case 3:
					return []float64{1e6 * (1 + rng.Float64())}
				case 4:
					return []float64{0.5, math.Ldexp(1+rng.Float64(), 60+rng.Intn(40))}
				}
				return []float64{0.1 + rng.Float64(), rng.Float64()}
			},
		},
		{
			name: "overflow", classes: 3, n: 5000, weight: skewed,
			add: func(rng *rand.Rand, c int) []float64 {
				if c == 2 {
					return []float64{1e306 * (1 + rng.Float64())}
				}
				return []float64{1e300 * (1 + rng.Float64())}
			},
		},
		{
			name: "negative", classes: 4, n: 10_000, weight: flat,
			add: func(rng *rand.Rand, c int) []float64 {
				if c == 3 {
					return []float64{-1.5 * rng.Float64()}
				}
				return []float64{rng.Float64(), 2 * rng.Float64()}
			},
		},
		{
			name: "nan", classes: 3, n: 5000, weight: skewed,
			add: func(rng *rand.Rand, c int) []float64 {
				if c == 2 {
					return []float64{1, math.NaN()}
				}
				return []float64{rng.Float64()}
			},
		},
		{
			name: "inf", classes: 3, n: 5000, weight: skewed,
			add: func(rng *rand.Rand, c int) []float64 {
				if c == 2 {
					return []float64{math.Inf(1 - 2*rng.Intn(2))}
				}
				return []float64{rng.Float64()}
			},
		},
		{
			name: "shorter-than-block", classes: 3, n: energyBlock - 100, weight: skewed,
			add: func(rng *rand.Rand, c int) []float64 {
				return []float64{float64(1 + rng.Intn(3))}
			},
		},
		{
			// Nearly every event of a block has its own class.
			name: "many-classes", classes: 3000, n: 60_000, weight: flat,
			add: func(rng *rand.Rand, c int) []float64 {
				return []float64{rng.Float64(), rng.Float64()}
			},
		},
		{
			// Energy-like addends: full mantissas, a few dozen classes.
			name: "energy-like", classes: 30, n: 60_000, weight: skewed,
			add: func(rng *rand.Rand, c int) []float64 {
				out := make([]float64, 1+rng.Intn(6))
				for j := range out {
					out[j] = 0.05 + 20*rng.Float64()
				}
				return out
			},
		},
	}
}

// TestEnergySumExact pins energySum to the naive trace-order float sum,
// bit for bit, for one architecture (K = 1, every event walked) and for
// three summed side by side (K = 3, by block histogram).
func TestEnergySumExact(t *testing.T) {
	for ci, tc := range energyCases() {
		for seed := int64(0); seed < 3; seed++ {
			rng := rand.New(rand.NewSource(seed*100 + int64(ci)))
			cum := make([]float64, tc.classes)
			total := 0.0
			for c := range cum {
				total += tc.weight(c)
				cum[c] = total
			}
			ids := append([]uint32(nil), tc.prefix...)
			for len(ids) < tc.n {
				x := rng.Float64() * total
				c := 0
				for c < len(cum)-1 && cum[c] <= x {
					c++
				}
				ids = append(ids, uint32(c))
			}
			const k = 3
			rows := make([][]classRow, k)
			add := make([][]float64, k)
			for a := range rows {
				rows[a] = make([]classRow, tc.classes)
				for c := range rows[a] {
					rows[a][c].lo = int32(len(add[a]))
					add[a] = append(add[a], tc.add(rng, c)...)
					rows[a][c].hi = int32(len(add[a]))
				}
			}
			// The batch passes every arch's addends in one table.
			batch := make([]archState, k)
			var all []float64
			for a := range batch {
				batch[a].rows = shift(rows[a], int32(len(all)))
				batch[a].energy = newEnergySum(rows[a], add[a], make([]uint64, tc.classes))
				all = append(all, add[a]...)
			}
			sumEnergies(ids, tc.classes, all, batch)
			for a := range batch {
				name := fmt.Sprintf("%s/seed=%d/arch=%d", tc.name, seed, a)
				want := naiveEnergy(rows[a], add[a], ids)
				one := []archState{{rows: rows[a], energy: newEnergySum(rows[a], add[a], make([]uint64, tc.classes))}}
				sumEnergies(ids, tc.classes, add[a], one)
				if got := one[0].energy.value(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: K=1 sum %v (%#x), trace order %v (%#x)", name, got, math.Float64bits(got), want, math.Float64bits(want))
				}
				if got := batch[a].energy.value(); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%s: K=%d sum %v (%#x), trace order %v (%#x)", name, k, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
		}
	}
}
