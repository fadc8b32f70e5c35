package stats

import "sort"

// ECDF is an empirical cumulative distribution function over a sample.
// The applicability study (Figure 9) plots ECDFs of chats-per-hour and
// viewers-per-video across crawled recordings.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF from the sample xs. The input is copied.
func NewECDF(xs []float64) *ECDF {
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	return &ECDF{sorted: s}
}

// At returns P(X ≤ x) under the empirical distribution, in [0, 1].
// An empty sample yields 0.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	// First index with value > x.
	i := sort.SearchFloat64s(e.sorted, x)
	for i < len(e.sorted) && e.sorted[i] == x {
		i++
	}
	return float64(i) / float64(len(e.sorted))
}

// AtLeast returns P(X ≥ x), the fraction of the sample at or above x.
// This is the form quoted in the paper ("more than 80% of recorded videos
// have more than 500 chat messages per hour").
func (e *ECDF) AtLeast(x float64) float64 {
	if len(e.sorted) == 0 {
		return 0
	}
	i := sort.SearchFloat64s(e.sorted, x)
	return float64(len(e.sorted)-i) / float64(len(e.sorted))
}

// Len returns the sample size.
func (e *ECDF) Len() int { return len(e.sorted) }

// DensityHistogram bins the sample xs into the given range and returns the
// bin centers and a density estimate (fraction per unit of x) per bin. It is
// used to reproduce the play-offset density curves of Figure 3.
func DensityHistogram(xs []float64, lo, hi float64, bins int) (centers, density []float64) {
	h := NewHistogram(lo, hi, bins)
	inside := 0
	for _, x := range xs {
		if x >= lo && x < hi {
			inside++
		}
		h.Add(x)
	}
	centers = make([]float64, bins)
	density = make([]float64, bins)
	for i := 0; i < bins; i++ {
		centers[i] = h.BinCenter(i)
		if inside > 0 {
			density[i] = h.Count(i) / (float64(inside) * h.BinWidth())
		}
	}
	return centers, density
}
