// Package nn is a minimal neural-network substrate: matrices, an LSTM
// layer, a dense output layer, and the Adam optimizer, all implemented from
// scratch on the standard library.
//
// It exists to reproduce the paper's deep-learning comparators (Chat-LSTM
// and Joint-LSTM, Fu et al., EMNLP 2017) at laptop scale. The paper trains
// those on 4×V100 GPUs for days; our substitution keeps the same model
// family (character-level recurrent classifier) but shrinks hidden sizes and
// epochs so the experiments finish in seconds-to-minutes while preserving
// the qualitative claims: the deep baseline needs far more labeled videos,
// trains orders of magnitude slower, and transfers poorly across game types.
package nn

import (
	"fmt"
	"math/rand"
)

// Mat is a dense row-major matrix.
type Mat struct {
	Rows, Cols int
	Data       []float64
}

// NewMat returns a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("nn: NewMat(%d, %d) has empty shape", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// RandMat returns a Rows×Cols matrix with entries uniform in [-scale, scale].
// Xavier-style scaling keeps early training stable for our small models.
func RandMat(rng *rand.Rand, rows, cols int, scale float64) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		m.Data[i] = (rng.Float64()*2 - 1) * scale
	}
	return m
}

// At returns element (i, j).
func (m *Mat) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Mat) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a view (not a copy) of row i.
func (m *Mat) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// AddColInto adds column j of m into out (out += m[:, j]). This is the
// sparse fast path for one-hot inputs: Wx·onehot(j) is just column j.
func (m *Mat) AddColInto(out []float64, j int) {
	if len(out) != m.Rows {
		panic(fmt.Sprintf("nn: AddColInto dim mismatch: %d != %d", len(out), m.Rows))
	}
	for i := 0; i < m.Rows; i++ {
		out[i] += m.Data[i*m.Cols+j]
	}
}

// Zero clears all entries in place.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	c := NewMat(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}
