package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMovingAverageIdentityWindow(t *testing.T) {
	xs := []float64{1, 2, 3}
	got := MovingAverage(xs, 1)
	for i := range xs {
		if got[i] != xs[i] {
			t.Errorf("window=1 changed value at %d: %g != %g", i, got[i], xs[i])
		}
	}
	// Must be a copy, not an alias.
	got[0] = 99
	if xs[0] == 99 {
		t.Error("MovingAverage aliased its input")
	}
}

func TestMovingAverageCentered(t *testing.T) {
	xs := []float64{0, 0, 9, 0, 0}
	got := MovingAverage(xs, 3)
	want := []float64{0, 3, 3, 3, 0}
	for i := range want {
		if !almostEqual(got[i], want[i], 1e-12) {
			t.Errorf("at %d: got %g, want %g", i, got[i], want[i])
		}
	}
}

func TestMovingAverageEdges(t *testing.T) {
	xs := []float64{6, 0, 0}
	got := MovingAverage(xs, 3)
	// At index 0 the window is clamped to [0,1]: mean(6,0)=3.
	if !almostEqual(got[0], 3, 1e-12) {
		t.Errorf("edge value = %g, want 3", got[0])
	}
}

func TestMovingAverageEmpty(t *testing.T) {
	if got := MovingAverage(nil, 5); len(got) != 0 {
		t.Errorf("MovingAverage(nil) returned %v", got)
	}
}

// Property: a moving average never exceeds the range of its input.
func TestMovingAverageBoundedProperty(t *testing.T) {
	f := func(raw []float64, w uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		window := int(w%16) + 1
		sm := MovingAverage(xs, window)
		lo, hi := Min(xs), Max(xs)
		for _, s := range sm {
			if s < lo-1e-9 || s > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
