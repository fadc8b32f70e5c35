package nn

import "math"

// Inference-only forward passes that reuse a caller-held workspace instead
// of materializing per-step backward caches. Training forwards (the
// ForwardIndices/ForwardVecs family) allocate O(sequence × hidden) cache
// state because Backward needs it; serving a trained classifier does not,
// and the per-message hot path must not pay for it. An InferState holds
// every buffer a stacked forward needs, so steady-state inference performs
// zero heap allocations.
//
// The streaming formulation also changes the access pattern: instead of
// running each layer over the whole sequence (which requires keeping the
// lower layer's per-step outputs), the stack advances timestep by timestep —
// token t flows through every layer before token t+1 is touched. The
// numbers are identical (each layer sees exactly the same inputs in the
// same order); only the buffering differs.

// InferState is the reusable workspace for cache-free inference over a
// StackedLSTM. Create it once per goroutine with NewInferState and pass it
// to every call; it is not safe for concurrent use.
type InferState struct {
	h, c [][]float64 // per-layer hidden and cell state
	z    []float64   // gate pre-activations, 4×maxHidden
	// Per-gate activation scratch (i, f, o, g), each maxHidden wide.
	gi, gf, go_, gg []float64
}

// NewInferState allocates a workspace sized for the stack.
func (s *StackedLSTM) NewInferState() *InferState {
	maxH := 0
	st := &InferState{
		h: make([][]float64, len(s.Layers)),
		c: make([][]float64, len(s.Layers)),
	}
	for i, l := range s.Layers {
		st.h[i] = make([]float64, l.Hidden)
		st.c[i] = make([]float64, l.Hidden)
		if l.Hidden > maxH {
			maxH = l.Hidden
		}
	}
	st.z = make([]float64, 4*maxH)
	st.gi = make([]float64, maxH)
	st.gf = make([]float64, maxH)
	st.go_ = make([]float64, maxH)
	st.gg = make([]float64, maxH)
	return st
}

// Reset zeroes the recurrent state so the workspace can start a fresh
// sequence without reallocating.
func (st *InferState) Reset() {
	for i := range st.h {
		for j := range st.h[i] {
			st.h[i][j] = 0
			st.c[i][j] = 0
		}
	}
}

// stepInfer advances one layer by one timestep in place: h and c are the
// layer's recurrent state, st supplies scratch. Exactly one of xIndex >= 0
// or xVec != nil must hold, mirroring LSTM.step.
func (l *LSTM) stepInfer(st *InferState, xIndex int, xVec, h, c []float64) {
	H := l.Hidden
	z := st.z[:4*H]
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
		for j, v := range h {
			s += float64(row[j] * v)
		}
		z[r] += s
	}
	gi, gf, go_, gg := st.gi[:H], st.gf[:H], st.go_[:H], st.gg[:H]
	for j := 0; j < H; j++ {
		gi[j] = sigmoid(z[j])
		gf[j] = sigmoid(z[H+j])
		go_[j] = sigmoid(z[2*H+j])
		gg[j] = math.Tanh(z[3*H+j])
	}
	for j := 0; j < H; j++ {
		c[j] = float64(gf[j]*c[j]) + float64(gi[j]*gg[j])
		h[j] = go_[j] * math.Tanh(c[j])
	}
}

// StepIndex advances the whole stack by one timestep on a one-hot input
// index and returns the top layer's hidden state (aliasing the workspace —
// copy it to retain). This is the streaming form live scorers want: feed
// characters as they arrive, read the state at any point.
func (s *StackedLSTM) StepIndex(st *InferState, idx int) []float64 {
	s.Layers[0].stepInfer(st, idx, nil, st.h[0], st.c[0])
	for i := 1; i < len(s.Layers); i++ {
		s.Layers[i].stepInfer(st, -1, st.h[i-1], st.h[i], st.c[i])
	}
	return st.h[len(s.Layers)-1]
}

// InferIndices runs the stack over a full sequence using the workspace and
// returns the top layer's final hidden state (aliasing the workspace). It
// produces the same values as ForwardIndices without allocating.
func (s *StackedLSTM) InferIndices(st *InferState, seq []int) []float64 {
	st.Reset()
	for _, idx := range seq {
		s.StepIndex(st, idx)
	}
	return st.h[len(s.Layers)-1]
}

// PredictProbaInto returns P(highlight | sequence) like PredictProba but
// routes through the caller's InferState, allocating nothing: the
// buffer-reusing inference path for serving a trained classifier on a hot
// path. The state must have been created by c.LSTM.NewInferState.
func (c *SeqClassifier) PredictProbaInto(st *InferState, seq []int) float64 {
	h := c.LSTM.InferIndices(st, seq)
	return sigmoid(c.Head.Forward(h))
}
