// Package stats provides the small numeric toolkit LIGHTOR is built on:
// descriptive statistics, histograms, curve smoothing, peak detection,
// empirical distributions, and seeded random samplers.
//
// Everything in this package is deterministic given the caller's inputs; the
// samplers take an explicit *rand.Rand so that simulations and experiments
// are reproducible.
package stats

import (
	"math"
	"sort"
)

// Sum returns the sum of xs. An empty slice sums to 0.
func Sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return Sum(xs) / float64(len(xs))
}

// Variance returns the population variance of xs, or 0 for fewer than two
// observations.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += float64(d * d)
	}
	return ss / float64(len(xs))
}

// Stddev returns the population standard deviation of xs.
func Stddev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Min returns the smallest value in xs. It panics on an empty slice, because
// there is no sensible zero value for a minimum.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the largest value in xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty slice")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// Median returns the median of xs, the robust aggregator used by the
// Highlight Extractor (Section V-B of the paper). For an even number of
// observations it returns the mean of the two central values. It returns 0
// for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	// Halve before adding so the midpoint cannot overflow at float64 extremes.
	return float64(s[n/2-1]/2) + float64(s[n/2]/2)
}

// Quantile returns the p-quantile of xs (0 ≤ p ≤ 1) using linear
// interpolation between closest ranks. It returns 0 for an empty slice and
// clamps p into [0, 1].
func Quantile(xs []float64, p float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	s := make([]float64, n)
	copy(s, xs)
	sort.Float64s(s)
	if n == 1 {
		return s[0]
	}
	pos := float64(p * float64(n-1))
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return float64(s[lo]*(1-frac)) + float64(s[hi]*frac)
}

// ArgMax returns the index of the largest element of xs, breaking ties in
// favour of the earliest index. It returns -1 for an empty slice.
func ArgMax(xs []float64) int {
	if len(xs) == 0 {
		return -1
	}
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}

// Clamp limits x into [lo, hi].
func Clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
