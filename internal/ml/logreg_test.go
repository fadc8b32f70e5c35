package ml

import (
	"math"
	"testing"

	"lightor/internal/stats"
)

func TestSigmoid(t *testing.T) {
	if got := Sigmoid(0); got != 0.5 {
		t.Errorf("Sigmoid(0) = %g, want 0.5", got)
	}
	if got := Sigmoid(100); got < 0.999 {
		t.Errorf("Sigmoid(100) = %g, want ~1", got)
	}
	if got := Sigmoid(-100); got > 0.001 {
		t.Errorf("Sigmoid(-100) = %g, want ~0", got)
	}
	// Stability at extremes: no NaN.
	for _, z := range []float64{-1000, 1000} {
		if math.IsNaN(Sigmoid(z)) {
			t.Errorf("Sigmoid(%g) is NaN", z)
		}
	}
}

func TestLogRegSeparableData(t *testing.T) {
	// y = 1 iff x0 > 0.5. Perfectly separable in one dimension.
	var X [][]float64
	var y []int
	rng := stats.NewRand(7)
	for i := 0; i < 200; i++ {
		x := rng.Float64()
		X = append(X, []float64{x})
		if x > 0.5 {
			y = append(y, 1)
		} else {
			y = append(y, 0)
		}
	}
	m := &LogisticRegression{}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	p, err := m.PredictProbaInto(X, make([]float64, len(X)))
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := range p {
		if (p[i] >= 0.5) == (y[i] == 1) {
			correct++
		}
	}
	if acc := float64(correct) / float64(len(y)); acc < 0.95 {
		t.Errorf("accuracy on separable data = %g, want >= 0.95", acc)
	}
}

func TestLogRegProbabilityMonotoneInFeature(t *testing.T) {
	X := [][]float64{{0}, {0.1}, {0.9}, {1}}
	y := []int{0, 0, 1, 1}
	m := &LogisticRegression{}
	if err := m.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	pLow, _ := m.PredictProba([]float64{0.1})
	pHigh, _ := m.PredictProba([]float64{0.9})
	if pLow >= pHigh {
		t.Errorf("probability not monotone: p(0.1)=%g >= p(0.9)=%g", pLow, pHigh)
	}
}

func TestLogRegErrors(t *testing.T) {
	m := &LogisticRegression{}
	if err := m.Fit(nil, nil); err == nil {
		t.Error("Fit on empty data should error")
	}
	if err := m.Fit([][]float64{{1}}, []int{1, 0}); err == nil {
		t.Error("length mismatch should error")
	}
	if err := m.Fit([][]float64{{1}, {2, 3}}, []int{0, 1}); err == nil {
		t.Error("ragged rows should error")
	}
	if err := m.Fit([][]float64{{1}}, []int{2}); err == nil {
		t.Error("non-binary label should error")
	}
	if _, err := m.PredictProba([]float64{1}); err == nil {
		t.Error("predict before fit should error")
	}
	if err := m.Fit([][]float64{{0}, {1}}, []int{0, 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.PredictProba([]float64{1, 2}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

func TestLogRegDeterministic(t *testing.T) {
	X := [][]float64{{0, 1}, {1, 0}, {0.2, 0.9}, {0.8, 0.1}}
	y := []int{0, 1, 0, 1}
	a := &LogisticRegression{}
	b := &LogisticRegression{}
	if err := a.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	if err := b.Fit(X, y); err != nil {
		t.Fatal(err)
	}
	for j := range a.Weights {
		if a.Weights[j] != b.Weights[j] {
			t.Fatal("training is not deterministic")
		}
	}
	if a.Bias != b.Bias {
		t.Fatal("bias differs between identical fits")
	}
}

func TestMaximizeIntRewardStablePicksPlateauCenter(t *testing.T) {
	// Reward is flat-maximal over [14, 28]: the stable variant must return
	// the plateau midpoint, not the left edge.
	reward := func(c int) float64 {
		if c >= 14 && c <= 28 {
			return 10
		}
		return 0
	}
	best, r := MaximizeIntRewardStable(0, 60, reward)
	if r != 10 {
		t.Fatalf("reward = %g, want 10", r)
	}
	if best != 21 {
		t.Errorf("best = %d, want plateau midpoint 21", best)
	}
}

func TestMaximizeIntRewardStablePicksLongestRun(t *testing.T) {
	// Two maximal runs: [2,3] and [10,16]; the longer one wins.
	reward := func(c int) float64 {
		if (c >= 2 && c <= 3) || (c >= 10 && c <= 16) {
			return 5
		}
		return 1
	}
	best, _ := MaximizeIntRewardStable(0, 20, reward)
	if best != 13 {
		t.Errorf("best = %d, want 13 (center of longest run)", best)
	}
}

func TestMaximizeIntRewardStableSinglePoint(t *testing.T) {
	best, r := MaximizeIntRewardStable(0, 10, func(c int) float64 {
		if c == 7 {
			return 3
		}
		return 0
	})
	if best != 7 || r != 3 {
		t.Errorf("best = %d (%g), want 7 (3)", best, r)
	}
}
