package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported percentile:
// with fewer, the percentile is set by a handful of outliers.
const minTail = 10

// percentile returns the q-quantile of xs (linear interpolation between
// closest ranks). Any percentile above the median needs at least minTail
// samples beyond it, so p90 needs 100 samples; fewer is an error.
func percentile(xs []float64, q float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("percentile of no samples")
	}
	if q > 0.5 && float64(n)*(1-q) < minTail-1e-9 {
		return 0, fmt.Errorf("p%.0f needs %d samples beyond it, have %d samples",
			100*q, minTail, n)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return s[n-1], nil
	}
	return s[lo] + (s[lo+1]-s[lo])*(pos-float64(lo)), nil
}

// median is the 0.5 percentile, which any non-empty sample has.
func median(xs []float64) float64 {
	m, err := percentile(xs, 0.5)
	if err != nil {
		return math.NaN()
	}
	return m
}

// quartiles returns Q1, the median and Q3 by the method of Python's
// statistics.quantiles(xs, n=4) (the "exclusive" method), so the spreads
// this program prints are the ones a reader computes from the same runs.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return math.Inf(1)
	}
	return (q3 - q1) / math.Abs(q2)
}

// Verdicts of a comparison between a base and a new set of runs.
const (
	verdictBetter     = "better"
	verdictWorse      = "worse"
	verdictUnchanged  = "unchanged"
	verdictUnresolved = "unresolved"
)

// comparison is the outcome of comparing one end-to-end metric over
// pairs of runs, base[i] and next[i] made one after the other on the
// same seed.
type comparison struct {
	verdict string
	// change is the median over the pairs of next/base − 1: pairing
	// cancels the host's speed drift, which moves both runs of a pair.
	change float64
	// wins counts the pairs the new run wins; ties count for neither.
	wins int
	// ratioSpread is the interquartile range of next/base over its median.
	ratioSpread float64
}

// verdict compares paired runs of one end-to-end metric.
//   - worse: the median pair changes the metric for the worse by more
//     than the bound, however noisy the runs;
//   - unresolved: the pairs' ratios spread wider than the bound, so the
//     runs cannot resolve a change of that size, unless every new run
//     reads better than every base run;
//   - better: the new run wins at least nine tenths of the pairs and the
//     medians differ by more than the base runs' interquartile range;
//   - unchanged otherwise.
func verdict(base, next []float64, lowerIsBetter bool, bound float64) comparison {
	ratios := make([]float64, len(base))
	var c comparison
	for i := range base {
		ratios[i] = next[i] / base[i]
		if (next[i] < base[i]) == lowerIsBetter && next[i] != base[i] {
			c.wins++
		}
	}
	c.change = median(ratios) - 1
	c.ratioSpread = spread(ratios)
	worseBy := c.change
	if !lowerIsBetter {
		worseBy = -worseBy
	}
	b1, bm, b3 := quartiles(base)
	allBetter := (lowerIsBetter && maxOf(next) < minOf(base)) || (!lowerIsBetter && minOf(next) > maxOf(base))
	switch {
	case worseBy > bound:
		c.verdict = verdictWorse
	case c.ratioSpread > bound && !allBetter:
		c.verdict = verdictUnresolved
	case 10*c.wins >= 9*len(base) && math.Abs(median(next)-bm) > b3-b1:
		c.verdict = verdictBetter
	default:
		c.verdict = verdictUnchanged
	}
	return c
}

func minOf(xs []float64) float64 {
	m := math.Inf(1)
	for _, x := range xs {
		m = math.Min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}
