package ml

import (
	"errors"
	"fmt"
	"math"
)

// LogisticRegression is a binary classifier trained with full-batch
// gradient descent and L2 regularization. It is deliberately simple — the
// Highlight Initializer combines only three features, and the paper shows a
// linear model is enough (Section IV-B).
type LogisticRegression struct {
	// Weights holds one coefficient per feature; Bias is the intercept.
	Weights []float64
	Bias    float64

	// Training hyperparameters. Zero values are replaced by defaults in Fit.
	LearningRate float64 // default 0.5
	Epochs       int     // default 500
	L2           float64 // default 1e-4
}

// Sigmoid is the logistic function 1/(1+e^-z), numerically stabilized.
func Sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

func (m *LogisticRegression) defaults() {
	if m.LearningRate == 0 {
		m.LearningRate = 0.5
	}
	if m.Epochs == 0 {
		m.Epochs = 500
	}
	if m.L2 == 0 {
		m.L2 = 1e-4
	}
}

// Fit trains the model on X (rows of features, already scaled) and binary
// labels y. It returns an error on shape mismatches or empty input.
func (m *LogisticRegression) Fit(X [][]float64, y []int) error {
	if len(X) == 0 {
		return errors.New("ml: LogisticRegression.Fit on empty training set")
	}
	if len(X) != len(y) {
		return fmt.Errorf("ml: %d rows but %d labels", len(X), len(y))
	}
	dim := len(X[0])
	for i, row := range X {
		if len(row) != dim {
			return fmt.Errorf("ml: ragged row %d: len %d, want %d", i, len(row), dim)
		}
		if y[i] != 0 && y[i] != 1 {
			return fmt.Errorf("ml: label %d at row %d is not binary", y[i], i)
		}
	}
	m.defaults()
	m.Weights = make([]float64, dim)
	m.Bias = 0

	n := float64(len(X))
	grad := make([]float64, dim)
	for epoch := 0; epoch < m.Epochs; epoch++ {
		for j := range grad {
			grad[j] = 0
		}
		var gradBias float64
		for i, row := range X {
			err := m.probability(row) - float64(y[i])
			for j, x := range row {
				grad[j] += float64(err * x)
			}
			gradBias += err
		}
		for j := range m.Weights {
			g := grad[j]/n + float64(m.L2*m.Weights[j])
			m.Weights[j] -= float64(m.LearningRate * g)
		}
		m.Bias -= m.LearningRate * gradBias / n
	}
	return nil
}

func (m *LogisticRegression) probability(row []float64) float64 {
	z := m.Bias
	for j, w := range m.Weights {
		z += float64(w * row[j])
	}
	return Sigmoid(z)
}

// PredictProba returns P(y=1 | row). It returns an error if the model has
// not been fitted or the row has the wrong dimensionality.
func (m *LogisticRegression) PredictProba(row []float64) (float64, error) {
	if m.Weights == nil {
		return 0, errors.New("ml: LogisticRegression used before Fit")
	}
	if len(row) != len(m.Weights) {
		return 0, fmt.Errorf("ml: row has %d features, model has %d", len(row), len(m.Weights))
	}
	return m.probability(row), nil
}

// PredictProbaInto scores every row of X into dst, which must be at least
// len(X) long; it returns the filled prefix. This is the buffer-reusing
// batch form of PredictProba: a caller scoring the same tiling repeatedly
// (or a window per Feed) pays zero allocations for inference.
func (m *LogisticRegression) PredictProbaInto(X [][]float64, dst []float64) ([]float64, error) {
	if m.Weights == nil {
		return nil, errors.New("ml: LogisticRegression used before Fit")
	}
	if len(dst) < len(X) {
		return nil, fmt.Errorf("ml: destination holds %d scores, need %d", len(dst), len(X))
	}
	for i, row := range X {
		if len(row) != len(m.Weights) {
			return nil, fmt.Errorf("ml: row %d has %d features, model has %d", i, len(row), len(m.Weights))
		}
		dst[i] = m.probability(row)
	}
	return dst[:len(X)], nil
}
