package stats

import (
	"math"
	"testing"
)

func TestNewRandDeterministic(t *testing.T) {
	a := NewRand(42)
	b := NewRand(42)
	for i := 0; i < 10; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed produced different streams")
		}
	}
}

func TestNormalMoments(t *testing.T) {
	rng := NewRand(1)
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = Normal(rng, 20, 5)
	}
	if m := Mean(xs); math.Abs(m-20) > 0.2 {
		t.Errorf("Normal mean = %g, want ~20", m)
	}
	if s := Stddev(xs); math.Abs(s-5) > 0.2 {
		t.Errorf("Normal stddev = %g, want ~5", s)
	}
}

func TestUniformRange(t *testing.T) {
	rng := NewRand(2)
	for i := 0; i < 1000; i++ {
		x := Uniform(rng, -3, 7)
		if x < -3 || x >= 7 {
			t.Fatalf("Uniform out of range: %g", x)
		}
	}
}

func TestPoissonMoments(t *testing.T) {
	rng := NewRand(3)
	for _, lambda := range []float64{0.5, 4, 50} {
		n := 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(Poisson(rng, lambda))
		}
		mean := sum / float64(n)
		if math.Abs(mean-lambda) > 0.05*lambda+0.05 {
			t.Errorf("Poisson(λ=%g) mean = %g", lambda, mean)
		}
	}
	if got := Poisson(NewRand(1), 0); got != 0 {
		t.Errorf("Poisson(0) = %d, want 0", got)
	}
	if got := Poisson(NewRand(1), -1); got != 0 {
		t.Errorf("Poisson(-1) = %d, want 0", got)
	}
}

func TestPoissonNonNegative(t *testing.T) {
	rng := NewRand(4)
	for i := 0; i < 1000; i++ {
		if Poisson(rng, 100) < 0 {
			t.Fatal("Poisson returned negative count")
		}
	}
}

func TestExponentialMean(t *testing.T) {
	rng := NewRand(5)
	n := 20000
	var sum float64
	for i := 0; i < n; i++ {
		x := Exponential(rng, 2)
		if x < 0 {
			t.Fatal("Exponential returned negative value")
		}
		sum += x
	}
	if mean := sum / float64(n); math.Abs(mean-0.5) > 0.02 {
		t.Errorf("Exponential(rate=2) mean = %g, want ~0.5", mean)
	}
}

func TestExponentialPanicsOnBadRate(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for rate <= 0")
		}
	}()
	Exponential(NewRand(1), 0)
}

func TestLogNormalPositive(t *testing.T) {
	rng := NewRand(6)
	for i := 0; i < 1000; i++ {
		if LogNormal(rng, 0, 1) <= 0 {
			t.Fatal("LogNormal returned non-positive value")
		}
	}
}

func TestBernoulliProbability(t *testing.T) {
	rng := NewRand(7)
	n := 20000
	hits := 0
	for i := 0; i < n; i++ {
		if Bernoulli(rng, 0.3) {
			hits++
		}
	}
	p := float64(hits) / float64(n)
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) frequency = %g", p)
	}
}

func TestIntBetween(t *testing.T) {
	rng := NewRand(8)
	seen := map[int]bool{}
	for i := 0; i < 1000; i++ {
		v := IntBetween(rng, 2, 4)
		if v < 2 || v > 4 {
			t.Fatalf("IntBetween out of range: %d", v)
		}
		seen[v] = true
	}
	if len(seen) != 3 {
		t.Errorf("IntBetween did not cover range: %v", seen)
	}
	if got := IntBetween(rng, 5, 5); got != 5 {
		t.Errorf("IntBetween degenerate = %d, want 5", got)
	}
}

func TestIntBetweenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for hi < lo")
		}
	}()
	IntBetween(NewRand(1), 3, 1)
}

func TestChoice(t *testing.T) {
	rng := NewRand(9)
	xs := []string{"a", "b", "c"}
	seen := map[string]bool{}
	for i := 0; i < 300; i++ {
		seen[Choice(rng, xs)] = true
	}
	if len(seen) != 3 {
		t.Errorf("Choice did not cover all elements: %v", seen)
	}
}

func TestChoicePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for empty slice")
		}
	}()
	Choice(NewRand(1), []int{})
}
