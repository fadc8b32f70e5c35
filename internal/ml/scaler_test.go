package ml

import (
	"testing"
	"testing/quick"
)

func TestMinMaxScalerBasic(t *testing.T) {
	X := [][]float64{{0, 10}, {5, 20}, {10, 30}}
	var s MinMaxScaler
	out, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	want := [][]float64{{0, 0}, {0.5, 0.5}, {1, 1}}
	for i := range want {
		for j := range want[i] {
			if out[i][j] != want[i][j] {
				t.Errorf("out[%d][%d] = %g, want %g", i, j, out[i][j], want[i][j])
			}
		}
	}
}

func TestMinMaxScalerConstantColumn(t *testing.T) {
	X := [][]float64{{7, 1}, {7, 2}}
	var s MinMaxScaler
	out, err := s.FitTransform(X)
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 0 || out[1][0] != 0 {
		t.Errorf("constant column should map to 0: %v", out)
	}
}

func TestMinMaxScalerClampsOutOfRange(t *testing.T) {
	var s MinMaxScaler
	if _, err := s.FitTransform([][]float64{{0}, {10}}); err != nil {
		t.Fatal(err)
	}
	out, err := s.Transform([][]float64{{20}, {-5}})
	if err != nil {
		t.Fatal(err)
	}
	if out[0][0] != 1 {
		t.Errorf("above-range value = %g, want 1", out[0][0])
	}
	if out[1][0] != 0 {
		t.Errorf("below-range value = %g, want 0", out[1][0])
	}
}

func TestMinMaxScalerErrors(t *testing.T) {
	var s MinMaxScaler
	if err := s.Fit(nil); err == nil {
		t.Error("Fit(nil) should error")
	}
	if _, err := s.Transform([][]float64{{1}}); err == nil {
		t.Error("Transform before Fit should error")
	}
	if err := s.Fit([][]float64{{1, 2}, {3}}); err == nil {
		t.Error("ragged Fit should error")
	}
	if err := s.Fit([][]float64{{1, 2}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Transform([][]float64{{1}}); err == nil {
		t.Error("dimension mismatch should error")
	}
}

// Property: every transformed value is in [0, 1].
func TestMinMaxScalerRangeProperty(t *testing.T) {
	f := func(col []float64) bool {
		if len(col) == 0 {
			return true
		}
		X := make([][]float64, len(col))
		for i, v := range col {
			X[i] = []float64{v}
		}
		var s MinMaxScaler
		out, err := s.FitTransform(X)
		if err != nil {
			return false
		}
		for _, row := range out {
			if row[0] < 0 || row[0] > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
