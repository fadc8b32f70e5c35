package stats

// MovingAverage returns a centered moving average of xs with the given
// window size. The window is clamped at the slice boundaries, so the output
// has the same length as the input and edge values average over fewer
// points. A window ≤ 1 returns a copy of the input.
func MovingAverage(xs []float64, window int) []float64 {
	out := make([]float64, len(xs))
	if window <= 1 {
		copy(out, xs)
		return out
	}
	half := window / 2
	// Prefix sums make each window O(1); the curves smoothed here can cover
	// multi-hour videos at 1-second resolution.
	prefix := make([]float64, len(xs)+1)
	for i, x := range xs {
		prefix[i+1] = prefix[i] + x
	}
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		out[i] = (prefix[hi+1] - prefix[lo]) / float64(hi-lo+1)
	}
	return out
}
