package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool {
	return math.Abs(a-b) <= eps
}

func TestSum(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3.5}, 3.5},
		{"mixed", []float64{1, -2, 3.5}, 2.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Sum(c.in); got != c.want {
				t.Errorf("Sum(%v) = %g, want %g", c.in, got, c.want)
			}
		})
	}
}

func TestMean(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Errorf("Mean(nil) = %g, want 0", got)
	}
	if got := Mean([]float64{2, 4, 6}); got != 4 {
		t.Errorf("Mean = %g, want 4", got)
	}
}

func TestVarianceAndStddev(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Errorf("Variance = %g, want 4", got)
	}
	if got := Stddev(xs); !almostEqual(got, 2, 1e-12) {
		t.Errorf("Stddev = %g, want 2", got)
	}
	if got := Variance([]float64{1}); got != 0 {
		t.Errorf("Variance of singleton = %g, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 2}
	if got := Min(xs); got != -1 {
		t.Errorf("Min = %g, want -1", got)
	}
	if got := Max(xs); got != 7 {
		t.Errorf("Max = %g, want 7", got)
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max(nil) did not panic")
		}
	}()
	Max(nil)
}

func TestMedian(t *testing.T) {
	cases := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"odd", []float64{5, 1, 3}, 3},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"outlier-robust", []float64{1, 2, 3, 1000}, 2.5},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Median(c.in); got != c.want {
				t.Errorf("Median(%v) = %g, want %g", c.in, got, c.want)
			}
		})
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
		{-0.5, 1}, {1.5, 5}, // clamped
	}
	for _, c := range cases {
		if got := Quantile(xs, c.p); !almostEqual(got, c.want, 1e-12) {
			t.Errorf("Quantile(p=%g) = %g, want %g", c.p, got, c.want)
		}
	}
	if got := Quantile(nil, 0.5); got != 0 {
		t.Errorf("Quantile(nil) = %g, want 0", got)
	}
	if got := Quantile([]float64{7}, 0.3); got != 7 {
		t.Errorf("Quantile singleton = %g, want 7", got)
	}
}

func TestQuantileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	if got := Quantile(xs, 0.5); !almostEqual(got, 5, 1e-12) {
		t.Errorf("Quantile interpolation = %g, want 5", got)
	}
}

func TestArgMaxArgMin(t *testing.T) {
	xs := []float64{1, 5, 3, 5, 0}
	if got := ArgMax(xs); got != 1 {
		t.Errorf("ArgMax = %d, want 1 (earliest tie)", got)
	}
	if got := ArgMax(nil); got != -1 {
		t.Errorf("ArgMax(nil) = %d, want -1", got)
	}
}

func TestClamp(t *testing.T) {
	if got := Clamp(5, 0, 3); got != 3 {
		t.Errorf("Clamp above = %g, want 3", got)
	}
	if got := Clamp(-1, 0, 3); got != 0 {
		t.Errorf("Clamp below = %g, want 0", got)
	}
	if got := Clamp(2, 0, 3); got != 2 {
		t.Errorf("Clamp inside = %g, want 2", got)
	}
}

// Property: the median always lies between min and max of the sample.
func TestMedianBoundedProperty(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		m := Median(xs)
		return m >= Min(xs) && m <= Max(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: quantile is monotone in p.
func TestQuantileMonotoneProperty(t *testing.T) {
	f := func(raw []float64, p1, p2 float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			if !math.IsNaN(x) && !math.IsInf(x, 0) {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		p1 = math.Abs(math.Mod(p1, 1))
		p2 = math.Abs(math.Mod(p2, 1))
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		return Quantile(xs, p1) <= Quantile(xs, p2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
