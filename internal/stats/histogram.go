package stats

import (
	"fmt"
	"math"
)

// Histogram is a fixed-width binning of a numeric range. It is the shared
// substrate for the chat-rate curves of the Highlight Initializer (Figure 2a)
// and for the interaction histograms built by the SocialSkip and MOOCer
// baselines (Section VII-C), which add +1/-1 weight over *ranges* of bins.
type Histogram struct {
	lo, hi float64 // covered range [lo, hi)
	width  float64 // width of each bin
	counts []float64
}

// NewHistogram creates a histogram over [lo, hi) with the given number of
// bins. It panics if hi ≤ lo or bins < 1, because a degenerate histogram is
// always a programming error in this codebase.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if hi <= lo {
		panic(fmt.Sprintf("stats: NewHistogram range [%g, %g) is empty", lo, hi))
	}
	if bins < 1 {
		panic(fmt.Sprintf("stats: NewHistogram needs at least 1 bin, got %d", bins))
	}
	return &Histogram{
		lo:     lo,
		hi:     hi,
		width:  (hi - lo) / float64(bins),
		counts: make([]float64, bins),
	}
}

// Reset re-ranges the histogram over [lo, hi) with the given bin count and
// clears all weights, reusing the counts array whenever its capacity allows.
// It lets a streaming consumer (one histogram per sliding window, forever)
// run without per-window allocations. Same panics as NewHistogram.
func (h *Histogram) Reset(lo, hi float64, bins int) {
	if hi <= lo {
		panic(fmt.Sprintf("stats: Histogram.Reset range [%g, %g) is empty", lo, hi))
	}
	if bins < 1 {
		panic(fmt.Sprintf("stats: Histogram.Reset needs at least 1 bin, got %d", bins))
	}
	h.lo = lo
	h.hi = hi
	h.width = (hi - lo) / float64(bins)
	if cap(h.counts) >= bins {
		h.counts = h.counts[:bins]
		for i := range h.counts {
			h.counts[i] = 0
		}
	} else {
		h.counts = make([]float64, bins)
	}
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return h.width }

// Lo returns the inclusive lower bound of the histogram range.
func (h *Histogram) Lo() float64 { return h.lo }

// Hi returns the exclusive upper bound of the histogram range.
func (h *Histogram) Hi() float64 { return h.hi }

// BinIndex returns the bin holding x, clamped into the valid range so that
// x == hi lands in the final bin. The boolean reports whether x fell inside
// [lo, hi].
func (h *Histogram) BinIndex(x float64) (int, bool) {
	ok := x >= h.lo && x < h.hi
	i := int((x - h.lo) / h.width)
	if i < 0 {
		i = 0
	}
	if i >= len(h.counts) {
		i = len(h.counts) - 1
	}
	return i, ok
}

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.lo + float64((float64(i)+0.5)*h.width)
}

// Add records a single observation at x with weight 1. Observations outside
// [lo, hi) are dropped silently, mirroring how chat messages outside the
// video duration are ignored.
func (h *Histogram) Add(x float64) { h.AddWeighted(x, 1) }

// AddWeighted records an observation at x with the given weight (which may
// be negative — SocialSkip subtracts weight for Seek Forward jumps).
func (h *Histogram) AddWeighted(x, w float64) {
	if i, ok := h.BinIndex(x); ok {
		h.counts[i] += w
	}
}

// AddRange adds weight w to every bin overlapping [from, to). This is how
// play records vote for every second of video they cover.
func (h *Histogram) AddRange(from, to, w float64) {
	if to < from {
		from, to = to, from
	}
	from = math.Max(from, h.lo)
	to = math.Min(to, h.hi)
	if to <= from {
		return
	}
	start, _ := h.BinIndex(from)
	// BinIndex clamps, so derive the end bin directly and cap it.
	end := int((to - h.lo) / h.width)
	if end >= len(h.counts) {
		end = len(h.counts) - 1
	}
	for i := start; i <= end; i++ {
		h.counts[i] += w
	}
}

// RestoreCounts overwrites the per-bin weights with a previously captured
// Counts slice, so a mid-window histogram can be reconstructed exactly when
// a checkpointed stream resumes. The length must match Bins.
func (h *Histogram) RestoreCounts(counts []float64) error {
	if len(counts) != len(h.counts) {
		return fmt.Errorf("stats: RestoreCounts got %d bins, histogram has %d", len(counts), len(h.counts))
	}
	copy(h.counts, counts)
	return nil
}

// Counts returns a copy of the per-bin weights.
func (h *Histogram) Counts() []float64 {
	out := make([]float64, len(h.counts))
	copy(out, h.counts)
	return out
}

// Count returns the weight in bin i.
func (h *Histogram) Count(i int) float64 { return h.counts[i] }

// Total returns the sum of all bin weights.
func (h *Histogram) Total() float64 { return Sum(h.counts) }

// Smoothed returns the bin weights smoothed with a centered moving average
// of the given window (see MovingAverage).
func (h *Histogram) Smoothed(window int) []float64 {
	return MovingAverage(h.counts, window)
}

// PeakBin returns the index of the heaviest bin after smoothing with the
// given window, i.e. the "peak" the naive implementation of the Highlight
// Initializer would select (Section IV-C1).
func (h *Histogram) PeakBin(window int) int {
	return ArgMax(h.Smoothed(window))
}

// PeakPosition returns the x position of the heaviest smoothed bin.
func (h *Histogram) PeakPosition(window int) float64 {
	return h.BinCenter(h.PeakBin(window))
}

// PeakBinInto is PeakBin without allocations: scratch holds the prefix-sum
// workspace (grown only when too small) and is returned for reuse. The
// selected bin is identical to PeakBin's — the same clamped centered
// moving-average values, compared first-max like ArgMax — so streaming
// callers closing one window per stride forever pay no per-close garbage.
func (h *Histogram) PeakBinInto(window int, scratch []float64) (int, []float64) {
	n := len(h.counts)
	if window <= 1 {
		return ArgMax(h.counts), scratch
	}
	if cap(scratch) >= n+1 {
		scratch = scratch[:n+1]
	} else {
		scratch = make([]float64, n+1)
	}
	scratch[0] = 0
	for i, x := range h.counts {
		scratch[i+1] = scratch[i] + x
	}
	half := window / 2
	best := 0
	bestV := math.Inf(-1)
	for i := 0; i < n; i++ {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= n {
			hi = n - 1
		}
		v := (scratch[hi+1] - scratch[lo]) / float64(hi-lo+1)
		if v > bestV {
			best, bestV = i, v
		}
	}
	return best, scratch
}

// PeakPositionInto is PeakPosition without allocations; see PeakBinInto.
func (h *Histogram) PeakPositionInto(window int, scratch []float64) (float64, []float64) {
	bin, scratch := h.PeakBinInto(window, scratch)
	return h.BinCenter(bin), scratch
}
