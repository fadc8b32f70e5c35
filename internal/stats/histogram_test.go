package stats

import (
	"testing"
	"testing/quick"
)

func TestNewHistogramPanics(t *testing.T) {
	for _, c := range []struct {
		name   string
		lo, hi float64
		bins   int
	}{
		{"empty-range", 5, 5, 10},
		{"inverted-range", 5, 1, 10},
		{"zero-bins", 0, 1, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			NewHistogram(c.lo, c.hi, c.bins)
		})
	}
}

func TestHistogramAdd(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(0)
	h.Add(0.5)
	h.Add(9.99)
	h.Add(10) // outside [0,10): dropped
	h.Add(-1) // dropped
	if got := h.Count(0); got != 2 {
		t.Errorf("bin 0 = %g, want 2", got)
	}
	if got := h.Count(9); got != 1 {
		t.Errorf("bin 9 = %g, want 1", got)
	}
	if got := h.Total(); got != 3 {
		t.Errorf("Total = %g, want 3", got)
	}
}

func TestHistogramBinIndex(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	if i, ok := h.BinIndex(55); i != 5 || !ok {
		t.Errorf("BinIndex(55) = %d,%v want 5,true", i, ok)
	}
	if i, ok := h.BinIndex(-3); i != 0 || ok {
		t.Errorf("BinIndex(-3) = %d,%v want 0,false", i, ok)
	}
	if i, ok := h.BinIndex(200); i != 9 || ok {
		t.Errorf("BinIndex(200) = %d,%v want 9,false", i, ok)
	}
}

func TestHistogramBinCenter(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	if got := h.BinCenter(0); got != 5 {
		t.Errorf("BinCenter(0) = %g, want 5", got)
	}
	if got := h.BinCenter(9); got != 95 {
		t.Errorf("BinCenter(9) = %g, want 95", got)
	}
}

func TestHistogramAddRange(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddRange(2, 5, 1)
	for i := 0; i < 10; i++ {
		want := 0.0
		if i >= 2 && i <= 5 {
			want = 1
		}
		if got := h.Count(i); got != want {
			t.Errorf("bin %d = %g, want %g", i, got, want)
		}
	}
}

func TestHistogramAddRangeClipsAndSwaps(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddRange(8, 15, 2) // clipped at hi
	h.AddRange(3, -5, 1) // swapped then clipped at lo
	if got := h.Count(9); got != 2 {
		t.Errorf("clipped hi bin = %g, want 2", got)
	}
	if got := h.Count(0); got != 1 {
		t.Errorf("clipped lo bin = %g, want 1", got)
	}
	if got := h.Count(5); got != 0 {
		t.Errorf("untouched bin = %g, want 0", got)
	}
}

func TestHistogramAddRangeNegativeWeight(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.AddRange(0, 10, 1)
	h.AddRange(4, 6, -1) // SocialSkip-style negative vote
	if got := h.Count(5); got != 0 {
		t.Errorf("bin 5 = %g, want 0 after negative vote", got)
	}
	if got := h.Count(1); got != 1 {
		t.Errorf("bin 1 = %g, want 1", got)
	}
}

func TestHistogramPeak(t *testing.T) {
	h := NewHistogram(0, 100, 100)
	for i := 0; i < 20; i++ {
		h.Add(42.5)
	}
	h.Add(10)
	if got := h.PeakBin(1); got != 42 {
		t.Errorf("PeakBin = %d, want 42", got)
	}
	if got := h.PeakPosition(1); got != 42.5 {
		t.Errorf("PeakPosition = %g, want 42.5", got)
	}
}

func TestHistogramCountsIsACopy(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	h.Add(1)
	c := h.Counts()
	c[0] = 99
	if h.Count(0) == 99 {
		t.Error("Counts() exposed internal storage")
	}
}

// Property: total weight equals the number of in-range points added.
func TestHistogramTotalProperty(t *testing.T) {
	f := func(points []float64) bool {
		h := NewHistogram(0, 1, 7)
		want := 0.0
		for _, p := range points {
			x := p - float64(int(p)) // fractional part, may be negative
			h.Add(x)
			if x >= 0 && x < 1 {
				want++
			}
		}
		return h.Total() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestPeakBinIntoMatchesPeakBin pins the allocation-free peak search to the
// allocating one bit-for-bit: the online detector closes windows with
// PeakBinInto while the batch path still uses PeakBin, and the two must
// agree or streaming and replay would place peaks differently.
func TestPeakBinIntoMatchesPeakBin(t *testing.T) {
	rng := NewRand(99)
	var scratch []float64
	for trial := 0; trial < 200; trial++ {
		bins := 1 + rng.Intn(60)
		h := NewHistogram(0, float64(bins), bins)
		for i := 0; i < rng.Intn(200); i++ {
			h.Add(rng.Float64() * float64(bins))
		}
		for _, window := range []int{0, 1, 2, 5, 9} {
			want := h.PeakBin(window)
			var got int
			got, scratch = h.PeakBinInto(window, scratch)
			if got != want {
				t.Fatalf("trial %d bins=%d window=%d: PeakBinInto = %d, PeakBin = %d",
					trial, bins, window, got, want)
			}
		}
	}
}

// TestHistogramReset proves Reset reuses storage and fully clears state.
func TestHistogramReset(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	h.Add(5)
	h.Reset(100, 125, 25)
	if h.Lo() != 100 || h.Hi() != 125 || len(h.Counts()) != 25 {
		t.Fatalf("Reset geometry: lo=%g hi=%g bins=%d", h.Lo(), h.Hi(), len(h.Counts()))
	}
	if h.Total() != 0 {
		t.Fatalf("Reset left %g weight behind", h.Total())
	}
	h.Add(101.5)
	if i, ok := h.BinIndex(101.5); !ok || h.Count(i) != 1 {
		t.Fatalf("post-Reset Add misplaced: bin %d ok=%v", i, ok)
	}
}
