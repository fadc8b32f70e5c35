package stats

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// LatencyHistogram is a log-bucketed histogram of durations built for
// hot-path request timing: Record is a single atomic increment (zero
// allocations, safe for concurrent use), buckets live in a fixed array so
// the zero value is ready to use, and two histograms recorded by
// independent workers merge exactly (bucket-wise addition). Quantiles are
// read from bucket upper bounds, so reported values never understate a
// tail and overstate it by at most the bucket width.
//
// Bucket layout: values below 2^latSubBits nanoseconds get exact
// one-per-value buckets; above that, each power-of-two octave splits into
// 2^latSubBits sub-buckets, bounding relative error at
// 1/2^latSubBits (~3.1%). The whole int64 nanosecond range fits in
// latBucketCount buckets (~15 KiB of counters).
const (
	latSubBits     = 5
	latSubCount    = 1 << latSubBits
	latBucketCount = (64 - latSubBits) * latSubCount
)

// LatencyHistogram must not be copied after first use (it embeds atomic
// counters); share it by pointer.
type LatencyHistogram struct {
	counts [latBucketCount]atomic.Uint64
	total  atomic.Uint64
	sumNs  atomic.Uint64
	maxNs  atomic.Int64
}

// latBucket maps a non-negative nanosecond value to its bucket index.
func latBucket(ns int64) int {
	if ns < latSubCount {
		return int(ns)
	}
	exp := bits.Len64(uint64(ns)) - 1 - latSubBits
	return latSubCount*(exp+1) + int(uint64(ns)>>uint(exp)) - latSubCount
}

// latBucketUpper returns the largest nanosecond value stored in bucket i.
func latBucketUpper(i int) int64 {
	if i < latSubCount {
		return int64(i)
	}
	exp := uint(i/latSubCount - 1)
	sub := int64(i % latSubCount)
	return (latSubCount+sub)<<exp + (1 << exp) - 1
}

// Record adds one observation. Negative durations (clock weirdness) are
// clamped to zero rather than dropped, so Count always matches the number
// of requests timed.
func (h *LatencyHistogram) Record(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	h.counts[latBucket(ns)].Add(1)
	h.total.Add(1)
	h.sumNs.Add(uint64(ns))
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Count returns the number of recorded observations.
func (h *LatencyHistogram) Count() uint64 { return h.total.Load() }

// Max returns the largest recorded duration, or 0 when empty.
func (h *LatencyHistogram) Max() time.Duration { return time.Duration(h.maxNs.Load()) }

// Mean returns the arithmetic mean of recorded durations, or 0 when empty.
func (h *LatencyHistogram) Mean() time.Duration {
	n := h.total.Load()
	if n == 0 {
		return 0
	}
	return time.Duration(h.sumNs.Load() / n)
}

// Quantile returns the q-th quantile (0 < q <= 1) of recorded durations,
// rounded up to its bucket's upper bound. Returns 0 when the histogram is
// empty. Panics on q outside (0, 1]. Concurrent Records during a Quantile
// read give a sane approximate answer (each bucket is read once,
// atomically).
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	if q <= 0 || q > 1 {
		panic("stats: quantile out of range (0, 1]")
	}
	total := h.total.Load()
	if total == 0 {
		return 0
	}
	rank := uint64(q * float64(total))
	if rank == 0 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	var cum uint64
	for i := range h.counts {
		cum += h.counts[i].Load()
		if cum >= rank {
			return time.Duration(latBucketUpper(i))
		}
	}
	return h.Max()
}

// Reset zeroes the histogram for reuse without reallocating. Not safe
// against concurrent Record calls — quiesce writers first.
func (h *LatencyHistogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.total.Store(0)
	h.sumNs.Store(0)
	h.maxNs.Store(0)
}
