package ml

// MaximizeIntRewardStable returns the integer argument in [lo, hi] that
// maximizes reward, scanning exhaustively. When a contiguous run of
// arguments achieves the maximum reward, it returns the midpoint of the
// longest such run (the first of equally long runs), so results are
// deterministic.
//
// The adjustment stage of the Highlight Initializer learns its constant c
// with exactly this search: c* = argmax_c Σ_i reward(peak_i − c, start_i),
// where reward is 1 for a good red dot and 0 otherwise (Section IV-C2).
// The search space is tiny (delays of 0–60 s), so exhaustive scan is both
// the simplest and the fastest correct choice. Highlight spans make the
// reward flat over a band of delays; picking the band's center maximizes
// robustness to peak-estimation noise, and keeps the learned constant
// stable as training data grows (Figure 7b).
func MaximizeIntRewardStable(lo, hi int, reward func(int) float64) (best int, bestReward float64) {
	if hi < lo {
		lo, hi = hi, lo
	}
	rewards := make([]float64, hi-lo+1)
	bestReward = reward(lo)
	rewards[0] = bestReward
	for c := lo + 1; c <= hi; c++ {
		r := reward(c)
		rewards[c-lo] = r
		if r > bestReward {
			bestReward = r
		}
	}
	bestStart, bestLen := lo, 0
	runStart, runLen := lo, 0
	for c := lo; c <= hi; c++ {
		if rewards[c-lo] == bestReward {
			if runLen == 0 {
				runStart = c
			}
			runLen++
			if runLen > bestLen {
				bestStart, bestLen = runStart, runLen
			}
		} else {
			runLen = 0
		}
	}
	return bestStart + bestLen/2, bestReward
}
