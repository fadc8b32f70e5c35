package nn

import (
	"math"
	"math/rand"
)

// LSTM is a single recurrent layer with the standard gate formulation:
//
//	z = Wx·x_t + Wh·h_{t-1} + b            (z has 4H rows: i, f, o, g)
//	i = σ(z_i), f = σ(z_f), o = σ(z_o), g = tanh(z_g)
//	c_t = f ⊙ c_{t-1} + i ⊙ g
//	h_t = o ⊙ tanh(c_t)
//
// Inputs can be dense vectors or one-hot indices (the character-level case);
// the index path skips the Wx·x multiply entirely by looking up a column.
type LSTM struct {
	InDim, Hidden int
	Wx, Wh        *Mat      // 4H×InDim, 4H×H
	B             []float64 // 4H

	dWx, dWh *Mat
	dB       []float64
}

// NewLSTM creates an LSTM layer with small random weights. The forget-gate
// bias is initialized to 1, the standard trick that lets gradients flow
// through early training.
func NewLSTM(rng *rand.Rand, inDim, hidden int) *LSTM {
	scale := 1 / math.Sqrt(float64(hidden+inDim))
	l := &LSTM{
		InDim:  inDim,
		Hidden: hidden,
		Wx:     RandMat(rng, 4*hidden, inDim, scale),
		Wh:     RandMat(rng, 4*hidden, hidden, scale),
		B:      make([]float64, 4*hidden),
		dWx:    NewMat(4*hidden, inDim),
		dWh:    NewMat(4*hidden, hidden),
		dB:     make([]float64, 4*hidden),
	}
	for j := hidden; j < 2*hidden; j++ {
		l.B[j] = 1 // forget gate
	}
	return l
}

// lstmStep caches everything the backward pass needs for one timestep.
type lstmStep struct {
	xIndex       int       // one-hot column, or -1 when xVec is set
	xVec         []float64 // dense input, nil for index inputs
	hPrev, cPrev []float64
	i, f, o, g   []float64
	c, h         []float64
	tanhC        []float64
}

// LSTMCache carries the per-step records of one sequence forward pass.
type LSTMCache struct {
	steps []lstmStep
}

func sigmoid(z float64) float64 {
	if z >= 0 {
		return 1 / (1 + math.Exp(-z))
	}
	e := math.Exp(z)
	return e / (1 + e)
}

// step runs one LSTM timestep. Exactly one of xIndex >= 0 or xVec != nil
// must hold.
func (l *LSTM) step(xIndex int, xVec, hPrev, cPrev []float64) lstmStep {
	H := l.Hidden
	z := make([]float64, 4*H)
	copy(z, l.B)
	if xVec != nil {
		for r := 0; r < 4*H; r++ {
			row := l.Wx.Row(r)
			var s float64
			for j, v := range xVec {
				s += float64(row[j] * v)
			}
			z[r] += s
		}
	} else {
		l.Wx.AddColInto(z, xIndex)
	}
	for r := 0; r < 4*H; r++ {
		row := l.Wh.Row(r)
		var s float64
		for j, v := range hPrev {
			s += float64(row[j] * v)
		}
		z[r] += s
	}

	st := lstmStep{
		xIndex: xIndex, xVec: xVec,
		hPrev: hPrev, cPrev: cPrev,
		i: make([]float64, H), f: make([]float64, H),
		o: make([]float64, H), g: make([]float64, H),
		c: make([]float64, H), h: make([]float64, H),
		tanhC: make([]float64, H),
	}
	for j := 0; j < H; j++ {
		st.i[j] = sigmoid(z[j])
		st.f[j] = sigmoid(z[H+j])
		st.o[j] = sigmoid(z[2*H+j])
		st.g[j] = math.Tanh(z[3*H+j])
		st.c[j] = float64(st.f[j]*cPrev[j]) + float64(st.i[j]*st.g[j])
		st.tanhC[j] = math.Tanh(st.c[j])
		st.h[j] = st.o[j] * st.tanhC[j]
	}
	return st
}

// ForwardIndices runs the layer over a sequence of one-hot column indices
// (character codes) and returns the final hidden state plus the cache
// required by Backward. An empty sequence yields the zero state.
func (l *LSTM) ForwardIndices(seq []int) ([]float64, *LSTMCache) {
	h := make([]float64, l.Hidden)
	c := make([]float64, l.Hidden)
	cache := &LSTMCache{steps: make([]lstmStep, 0, len(seq))}
	for _, idx := range seq {
		st := l.step(idx, nil, h, c)
		cache.steps = append(cache.steps, st)
		h, c = st.h, st.c
	}
	return h, cache
}

// ForwardVecs runs the layer over a sequence of dense input vectors.
func (l *LSTM) ForwardVecs(seq [][]float64) ([]float64, *LSTMCache) {
	h := make([]float64, l.Hidden)
	c := make([]float64, l.Hidden)
	cache := &LSTMCache{steps: make([]lstmStep, 0, len(seq))}
	for _, x := range seq {
		st := l.step(-1, x, h, c)
		cache.steps = append(cache.steps, st)
		h, c = st.h, st.c
	}
	return h, cache
}

// Outputs returns the per-step hidden states of the cached forward pass —
// the inputs the next layer of a stack consumed.
func (c *LSTMCache) Outputs() [][]float64 {
	out := make([][]float64, len(c.steps))
	for t := range c.steps {
		out[t] = c.steps[t].h
	}
	return out
}

// Backward back-propagates dhFinal (the loss gradient with respect to the
// final hidden state) through the cached sequence, accumulating parameter
// gradients. It returns the gradient with respect to each dense input
// vector (nil entries for index inputs).
func (l *LSTM) Backward(cache *LSTMCache, dhFinal []float64) [][]float64 {
	if len(cache.steps) == 0 {
		return nil
	}
	dhSeq := make([][]float64, len(cache.steps))
	dhSeq[len(dhSeq)-1] = dhFinal
	return l.BackwardSeq(cache, dhSeq)
}

// BackwardSeq back-propagates per-timestep hidden-state gradients (nil
// entries mean zero) through the cached sequence. Stacked layers need this
// form: a lower layer's output feeds the upper layer at EVERY step, so its
// gradient arrives at every step, not only the last.
func (l *LSTM) BackwardSeq(cache *LSTMCache, dhSeq [][]float64) [][]float64 {
	H := l.Hidden
	dh := make([]float64, H)
	dc := make([]float64, H)
	dxs := make([][]float64, len(cache.steps))

	for t := len(cache.steps) - 1; t >= 0; t-- {
		st := &cache.steps[t]
		if t < len(dhSeq) && dhSeq[t] != nil {
			for j, g := range dhSeq[t] {
				dh[j] += g
			}
		}
		dz := make([]float64, 4*H)
		dcTotal := make([]float64, H)
		for j := 0; j < H; j++ {
			// h = o * tanh(c)
			do := dh[j] * st.tanhC[j]
			dcTotal[j] = dc[j] + float64(dh[j]*st.o[j]*(1-float64(st.tanhC[j]*st.tanhC[j])))
			di := dcTotal[j] * st.g[j]
			df := dcTotal[j] * st.cPrev[j]
			dg := dcTotal[j] * st.i[j]
			dz[j] = di * st.i[j] * (1 - st.i[j])
			dz[H+j] = df * st.f[j] * (1 - st.f[j])
			dz[2*H+j] = do * st.o[j] * (1 - st.o[j])
			dz[3*H+j] = dg * (1 - float64(st.g[j]*st.g[j]))
		}

		// Parameter gradients.
		if st.xVec != nil {
			dx := make([]float64, l.InDim)
			for r := 0; r < 4*H; r++ {
				wRow := l.Wx.Row(r)
				gRow := l.dWx.Row(r)
				for j, v := range st.xVec {
					gRow[j] += float64(dz[r] * v)
					dx[j] += float64(dz[r] * wRow[j])
				}
			}
			dxs[t] = dx
		} else {
			for r := 0; r < 4*H; r++ {
				l.dWx.Data[r*l.Wx.Cols+st.xIndex] += dz[r]
			}
		}
		dhPrev := make([]float64, H)
		for r := 0; r < 4*H; r++ {
			wRow := l.Wh.Row(r)
			gRow := l.dWh.Row(r)
			for j := 0; j < H; j++ {
				gRow[j] += float64(dz[r] * st.hPrev[j])
				dhPrev[j] += float64(dz[r] * wRow[j])
			}
			l.dB[r] += dz[r]
		}

		// Carry to the previous timestep.
		dh = dhPrev
		for j := 0; j < H; j++ {
			dc[j] = dcTotal[j] * st.f[j]
		}
	}
	return dxs
}

// Params exposes the layer's parameter/gradient pairs to an optimizer.
func (l *LSTM) Params() []Param {
	return []Param{
		{Data: l.Wx.Data, Grad: l.dWx.Data},
		{Data: l.Wh.Data, Grad: l.dWh.Data},
		{Data: l.B, Grad: l.dB},
	}
}

// ZeroGrads clears accumulated gradients.
func (l *LSTM) ZeroGrads() {
	l.dWx.Zero()
	l.dWh.Zero()
	for i := range l.dB {
		l.dB[i] = 0
	}
}
