package nn

import "math"

// Adam implements the Adam optimizer (Kingma & Ba, 2015) over a fixed set
// of parameter tensors. State is keyed by position in the Params slice, so
// the same slice must be passed to every Step call.
type Adam struct {
	LR      float64 // default 1e-2
	Beta1   float64 // default 0.9
	Beta2   float64 // default 0.999
	Epsilon float64 // default 1e-8

	t int
	m [][]float64
	v [][]float64
}

// NewAdam returns an Adam optimizer with the given learning rate and
// standard defaults for the moment decay rates.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Epsilon: 1e-8}
}

// Step applies one Adam update to every parameter tensor using its
// accumulated gradient, then leaves the gradients untouched (callers zero
// them between batches).
func (a *Adam) Step(params []Param) {
	if a.m == nil {
		a.m = make([][]float64, len(params))
		a.v = make([][]float64, len(params))
		for i, p := range params {
			a.m[i] = make([]float64, len(p.Data))
			a.v[i] = make([]float64, len(p.Data))
		}
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j, g := range p.Grad {
			m[j] = float64(a.Beta1*m[j]) + float64((1-a.Beta1)*g)
			v[j] = float64(a.Beta2*v[j]) + float64((1-a.Beta2)*g*g)
			mHat := m[j] / c1
			vHat := v[j] / c2
			p.Data[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Epsilon)
		}
	}
}
