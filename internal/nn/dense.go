package nn

import (
	"math"
	"math/rand"
)

// Param pairs a parameter array with its gradient accumulator so optimizers
// can update any layer uniformly. Both slices alias the layer's storage.
type Param struct {
	Data []float64
	Grad []float64
}

// Dense is a fully connected layer mapping an input vector to a single
// logit, used as the classification head on top of the LSTM's final hidden
// state. The bias is stored as a length-1 slice so it can alias into Param.
type Dense struct {
	InDim int
	W     []float64
	B     []float64 // length 1

	dW []float64
	dB []float64 // length 1
}

// NewDense creates a dense layer with small random weights.
func NewDense(rng *rand.Rand, inDim int) *Dense {
	scale := 1 / math.Sqrt(float64(inDim))
	w := make([]float64, inDim)
	for i := range w {
		w[i] = (rng.Float64()*2 - 1) * scale
	}
	return &Dense{
		InDim: inDim,
		W:     w,
		B:     make([]float64, 1),
		dW:    make([]float64, inDim),
		dB:    make([]float64, 1),
	}
}

// Forward returns the logit W·x + b.
func (d *Dense) Forward(x []float64) float64 {
	z := d.B[0]
	for i, w := range d.W {
		z += float64(w * x[i])
	}
	return z
}

// Backward accumulates gradients for dLoss/dLogit = dz at input x and
// returns dLoss/dx.
func (d *Dense) Backward(x []float64, dz float64) []float64 {
	dx := make([]float64, d.InDim)
	for i := range d.W {
		d.dW[i] += float64(dz * x[i])
		dx[i] = dz * d.W[i]
	}
	d.dB[0] += dz
	return dx
}

// Params exposes the parameter/gradient pairs (aliased, not copied).
func (d *Dense) Params() []Param {
	return []Param{
		{Data: d.W, Grad: d.dW},
		{Data: d.B, Grad: d.dB},
	}
}

// ZeroGrads clears accumulated gradients.
func (d *Dense) ZeroGrads() {
	for i := range d.dW {
		d.dW[i] = 0
	}
	d.dB[0] = 0
}
