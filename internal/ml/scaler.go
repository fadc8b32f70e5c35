// Package ml implements the small machine-learning toolkit LIGHTOR relies
// on: min-max feature scaling, logistic regression trained with batch
// gradient descent, binary classification metrics, and the one-dimensional
// reward-maximizing search used to learn the adjustment constant c
// (Section IV-C2 of the paper).
//
// The paper trains its models with scikit-learn; this package is the
// from-scratch Go equivalent. Keeping it tiny is the point: LIGHTOR's claim
// is that a 3-feature linear model trained in about a second matches deep
// models trained for days.
package ml

import (
	"errors"
	"fmt"
)

// MinMaxScaler rescales each feature column into [0, 1] using the min and
// max observed during Fit. The paper normalizes all three chat features this
// way so they generalize across videos with very different chat volumes.
type MinMaxScaler struct {
	mins   []float64
	ranges []float64 // max - min; 0 for constant columns
	fitted bool
}

// Fit learns per-column minima and ranges from X. It returns an error for
// an empty matrix or ragged rows.
func (s *MinMaxScaler) Fit(X [][]float64) error {
	if len(X) == 0 {
		return errors.New("ml: MinMaxScaler.Fit on empty matrix")
	}
	dim := len(X[0])
	mins := make([]float64, dim)
	maxs := make([]float64, dim)
	copy(mins, X[0])
	copy(maxs, X[0])
	for i, row := range X {
		if len(row) != dim {
			return fmt.Errorf("ml: ragged row %d: len %d, want %d", i, len(row), dim)
		}
		for j, x := range row {
			if x < mins[j] {
				mins[j] = x
			}
			if x > maxs[j] {
				maxs[j] = x
			}
		}
	}
	s.mins = mins
	s.ranges = make([]float64, dim)
	for j := range mins {
		s.ranges[j] = maxs[j] - mins[j]
	}
	s.fitted = true
	return nil
}

// Transform rescales X into [0, 1] per column, clamping values outside the
// fitted range (test videos can have busier chat than any training video).
// Constant columns map to 0.
func (s *MinMaxScaler) Transform(X [][]float64) ([][]float64, error) {
	if !s.fitted {
		return nil, errors.New("ml: MinMaxScaler used before Fit")
	}
	out := make([][]float64, len(X))
	for i, row := range X {
		if len(row) != len(s.mins) {
			return nil, fmt.Errorf("ml: row %d has %d features, scaler fitted on %d", i, len(row), len(s.mins))
		}
		r := make([]float64, len(row))
		for j, x := range row {
			if s.ranges[j] == 0 {
				r[j] = 0
				continue
			}
			v := (x - s.mins[j]) / s.ranges[j]
			if v < 0 {
				v = 0
			}
			if v > 1 {
				v = 1
			}
			r[j] = v
		}
		out[i] = r
	}
	return out, nil
}

// FitTransform fits the scaler on X and returns the transformed matrix.
func (s *MinMaxScaler) FitTransform(X [][]float64) ([][]float64, error) {
	if err := s.Fit(X); err != nil {
		return nil, err
	}
	return s.Transform(X)
}
