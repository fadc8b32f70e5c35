package nn

import (
	"math"
	"math/rand"
)

// SeqClassifier is a character-level recurrent binary classifier: a
// (possibly stacked) LSTM over character indices followed by a dense
// sigmoid head on the final hidden state. It is the core of the Chat-LSTM
// baseline; the paper's original is a 3-layer stack.
type SeqClassifier struct {
	LSTM *StackedLSTM
	Head *Dense
	opt  *Adam
}

// NewSeqClassifier builds a classifier for the given character vocabulary
// size, hidden width, and stack depth (≤ 1 means a single layer).
func NewSeqClassifier(rng *rand.Rand, vocabSize, hidden, depth int, lr float64) *SeqClassifier {
	return &SeqClassifier{
		LSTM: NewStackedLSTM(rng, vocabSize, hidden, depth),
		Head: NewDense(rng, hidden),
		opt:  NewAdam(lr),
	}
}

// PredictProba returns P(highlight | sequence).
func (c *SeqClassifier) PredictProba(seq []int) float64 {
	h, _ := c.LSTM.ForwardIndices(seq)
	return sigmoid(c.Head.Forward(h))
}

func (c *SeqClassifier) params() []Param {
	return append(c.LSTM.Params(), c.Head.Params()...)
}

// TrainBatch performs one optimizer step over a mini-batch of sequences and
// binary labels, returning the mean cross-entropy loss before the update.
func (c *SeqClassifier) TrainBatch(seqs [][]int, labels []int) float64 {
	if len(seqs) == 0 {
		return 0
	}
	c.LSTM.ZeroGrads()
	c.Head.ZeroGrads()
	var loss float64
	inv := 1 / float64(len(seqs))
	for i, seq := range seqs {
		h, caches := c.LSTM.ForwardIndices(seq)
		p := sigmoid(c.Head.Forward(h))
		y := float64(labels[i])
		loss += bce(p, y)
		// d(BCE)/d(logit) = p - y; scale by 1/batch for a mean gradient.
		dh := c.Head.Backward(h, float64((p-y)*inv))
		c.LSTM.Backward(caches, dh)
	}
	c.opt.Step(c.params())
	return loss * inv
}

// JointClassifier pairs the character LSTM stack with a second LSTM over
// dense per-frame visual-feature vectors, mirroring Joint-LSTM: the two
// final hidden states are concatenated and fed to a dense sigmoid head.
type JointClassifier struct {
	ChatLSTM  *StackedLSTM
	VideoLSTM *LSTM
	Head      *Dense
	opt       *Adam
}

// NewJointClassifier builds the joint model. frameDim is the width of each
// simulated visual-feature vector; depth stacks the chat channel.
func NewJointClassifier(rng *rand.Rand, vocabSize, frameDim, hidden, depth int, lr float64) *JointClassifier {
	return &JointClassifier{
		ChatLSTM:  NewStackedLSTM(rng, vocabSize, hidden, depth),
		VideoLSTM: NewLSTM(rng, frameDim, hidden),
		Head:      NewDense(rng, 2*hidden),
		opt:       NewAdam(lr),
	}
}

// PredictProba returns P(highlight | chat sequence, frame sequence).
func (c *JointClassifier) PredictProba(chatSeq []int, frames [][]float64) float64 {
	hc, _ := c.ChatLSTM.ForwardIndices(chatSeq)
	hv, _ := c.VideoLSTM.ForwardVecs(frames)
	return sigmoid(c.Head.Forward(concat(hc, hv)))
}

func (c *JointClassifier) params() []Param {
	ps := append(c.ChatLSTM.Params(), c.VideoLSTM.Params()...)
	return append(ps, c.Head.Params()...)
}

// TrainBatch performs one optimizer step over a mini-batch, returning the
// mean cross-entropy loss before the update.
func (c *JointClassifier) TrainBatch(chatSeqs [][]int, frameSeqs [][][]float64, labels []int) float64 {
	if len(chatSeqs) == 0 {
		return 0
	}
	c.ChatLSTM.ZeroGrads()
	c.VideoLSTM.ZeroGrads()
	c.Head.ZeroGrads()
	var loss float64
	inv := 1 / float64(len(chatSeqs))
	for i := range chatSeqs {
		hc, cachesC := c.ChatLSTM.ForwardIndices(chatSeqs[i])
		hv, cacheV := c.VideoLSTM.ForwardVecs(frameSeqs[i])
		joint := concat(hc, hv)
		p := sigmoid(c.Head.Forward(joint))
		y := float64(labels[i])
		loss += bce(p, y)
		dJoint := c.Head.Backward(joint, float64((p-y)*inv))
		c.ChatLSTM.Backward(cachesC, dJoint[:len(hc)])
		c.VideoLSTM.Backward(cacheV, dJoint[len(hc):])
	}
	c.opt.Step(c.params())
	return loss * inv
}

// bce is binary cross-entropy with clamping against log(0).
func bce(p, y float64) float64 {
	p = math.Min(math.Max(p, 1e-12), 1-1e-12)
	if y >= 0.5 {
		return -math.Log(p)
	}
	return -math.Log(1 - p)
}

func concat(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	out = append(out, a...)
	return append(out, b...)
}
