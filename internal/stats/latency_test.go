package stats

import (
	"math"
	"testing"
	"time"
)

func TestLatencyBucketRoundTrip(t *testing.T) {
	// Every value must land in a bucket whose bounds contain it, and the
	// bucket's upper bound must overstate the value by at most ~3.2%.
	values := []int64{0, 1, 31, 32, 33, 63, 64, 100, 1023, 1024, 1 << 20, 1<<20 + 12345, 1 << 40, math.MaxInt64}
	for _, v := range values {
		b := latBucket(v)
		if b < 0 || b >= latBucketCount {
			t.Fatalf("latBucket(%d) = %d, out of range", v, b)
		}
		up := latBucketUpper(b)
		if up < v {
			t.Errorf("latBucketUpper(latBucket(%d)) = %d < value", v, up)
		}
		if v >= latSubCount {
			if rel := float64(up-v) / float64(v); rel > 1.0/latSubCount {
				t.Errorf("value %d: upper %d relative error %.4f > %.4f", v, up, rel, 1.0/latSubCount)
			}
		}
		if b > 0 && latBucketUpper(b-1) >= v {
			t.Errorf("value %d landed in bucket %d but previous bucket upper %d already covers it", v, b, latBucketUpper(b-1))
		}
	}
}

func TestLatencyHistogramQuantiles(t *testing.T) {
	var h LatencyHistogram
	if h.Quantile(0.5) != 0 || h.Count() != 0 || h.Max() != 0 {
		t.Fatal("zero-value histogram not empty")
	}
	// 1..1000 microseconds, one observation each.
	for i := 1; i <= 1000; i++ {
		h.Record(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 1000 {
		t.Fatalf("Count = %d, want 1000", h.Count())
	}
	checks := []struct {
		q    float64
		want time.Duration
	}{
		{0.5, 500 * time.Microsecond},
		{0.99, 990 * time.Microsecond},
		{0.999, 999 * time.Microsecond},
		{1.0, 1000 * time.Microsecond},
	}
	for _, c := range checks {
		got := h.Quantile(c.q)
		if got < c.want || float64(got) > float64(c.want)*(1+2.0/latSubCount) {
			t.Errorf("Quantile(%g) = %v, want within bucket width above %v", c.q, got, c.want)
		}
	}
	if h.Max() != 1000*time.Microsecond {
		t.Errorf("Max = %v, want 1ms", h.Max())
	}
	if mean := h.Mean(); mean < 490*time.Microsecond || mean > 510*time.Microsecond {
		t.Errorf("Mean = %v, want ~500µs", mean)
	}
	h.Reset()
	if h.Count() != 0 || h.Max() != 0 || h.Quantile(0.99) != 0 {
		t.Error("Reset did not clear histogram")
	}

	defer func() {
		if recover() == nil {
			t.Error("Quantile(0) did not panic")
		}
	}()
	h.Quantile(0)
}

func TestLatencyRecordZeroAlloc(t *testing.T) {
	var h LatencyHistogram
	if n := testing.AllocsPerRun(1000, func() { h.Record(123 * time.Microsecond) }); n != 0 {
		t.Errorf("Record allocates %.1f per call, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { _ = h.Quantile(0.99) }); n != 0 {
		t.Errorf("Quantile allocates %.1f per call, want 0", n)
	}
}
