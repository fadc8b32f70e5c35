package baselines

import (
	"sort"
	"strings"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/nn"
	"lightor/internal/stats"
)

// LSTMConfig parameterizes the Chat-LSTM and Joint-LSTM baselines. The
// paper's originals are character-level 3-layer LSTMs trained for days on
// 4×V100 GPUs; these are scaled to a laptop (single layer, small hidden
// width, few epochs) while keeping the model family and the experimental
// shape.
type LSTMConfig struct {
	Hidden        int     // LSTM hidden width (default 16)
	Layers        int     // LSTM stack depth (default 1; the paper uses 3)
	Epochs        int     // training epochs (default 3)
	LearningRate  float64 // Adam step size (default 0.01)
	BatchSize     int     // minibatch size (default 16)
	WindowSeconds float64 // chat context after each frame, per the paper: 7 s
	MaxChars      int     // character truncation per sample (default 96)
	TrainStride   float64 // seconds between sampled training frames (default 10)
	DetectStride  float64 // seconds between scored frames at test time (default 5)
	MinSeparation float64 // top-k frame separation, δ (default 120)
	FrameDim      int     // visual feature width for Joint-LSTM (default 8)
	Seed          int64   // weight-init and shuffle seed
}

// DefaultLSTMConfig returns the laptop-scale settings.
func DefaultLSTMConfig() LSTMConfig {
	return LSTMConfig{
		Hidden:        16,
		Layers:        1,
		Epochs:        3,
		LearningRate:  0.01,
		BatchSize:     16,
		WindowSeconds: 7,
		MaxChars:      96,
		TrainStride:   10,
		DetectStride:  5,
		MinSeparation: 120,
		FrameDim:      8,
		Seed:          1,
	}
}

func (c *LSTMConfig) fillDefaults() {
	d := DefaultLSTMConfig()
	if c.Hidden == 0 {
		c.Hidden = d.Hidden
	}
	if c.Layers == 0 {
		c.Layers = d.Layers
	}
	if c.Epochs == 0 {
		c.Epochs = d.Epochs
	}
	if c.LearningRate == 0 {
		c.LearningRate = d.LearningRate
	}
	if c.BatchSize == 0 {
		c.BatchSize = d.BatchSize
	}
	if c.WindowSeconds == 0 {
		c.WindowSeconds = d.WindowSeconds
	}
	if c.MaxChars == 0 {
		c.MaxChars = d.MaxChars
	}
	if c.TrainStride == 0 {
		c.TrainStride = d.TrainStride
	}
	if c.DetectStride == 0 {
		c.DetectStride = d.DetectStride
	}
	if c.MinSeparation == 0 {
		c.MinSeparation = d.MinSeparation
	}
	if c.FrameDim == 0 {
		c.FrameDim = d.FrameDim
	}
	if c.Seed == 0 {
		c.Seed = d.Seed
	}
}

// ChatVideo is one training video for the LSTM baselines: chat, duration,
// ground-truth highlight spans, and (for Joint-LSTM) per-second visual
// feature vectors.
type ChatVideo struct {
	Log        *chat.Log
	Duration   float64
	Highlights []core.Interval
	Frames     [][]float64 // optional; required by Joint-LSTM
}

// frameText returns the chat text a frame at time t sees: all messages in
// the next WindowSeconds, joined.
func frameText(log *chat.Log, t, window float64) string {
	msgs := log.Between(t, t+window)
	parts := make([]string, len(msgs))
	for i, m := range msgs {
		parts[i] = m.Text
	}
	return strings.Join(parts, " ")
}

func frameLabel(t float64, highlights []core.Interval) int {
	for _, h := range highlights {
		if h.Contains(t) {
			return 1
		}
	}
	return 0
}

// ChatLSTM is the chat-only deep baseline: a character-level LSTM
// classifying each video frame from the chat that follows it.
type ChatLSTM struct {
	cfg   LSTMConfig
	vocab *nn.CharVocab
	model *nn.SeqClassifier
}

// TrainChatLSTM trains the baseline on labeled videos.
func TrainChatLSTM(cfg LSTMConfig, videos []ChatVideo) *ChatLSTM {
	cfg.fillDefaults()
	rng := stats.NewRand(cfg.Seed)

	var texts []string
	var labels []int
	for _, v := range videos {
		for t := 0.0; t < v.Duration; t += cfg.TrainStride {
			texts = append(texts, frameText(v.Log, t, cfg.WindowSeconds))
			labels = append(labels, frameLabel(t, v.Highlights))
		}
	}
	vocab := nn.NewCharVocab(texts)
	seqs := make([][]int, len(texts))
	for i, s := range texts {
		seqs[i] = vocab.Encode(s, cfg.MaxChars)
	}
	model := nn.NewSeqClassifier(rng, vocab.Len(), cfg.Hidden, cfg.Layers, cfg.LearningRate)
	trainBatches(rng, cfg, len(seqs), func(batch []int) {
		bs := make([][]int, len(batch))
		bl := make([]int, len(batch))
		for j, idx := range batch {
			bs[j] = seqs[idx]
			bl[j] = labels[idx]
		}
		model.TrainBatch(bs, bl)
	})
	return &ChatLSTM{cfg: cfg, vocab: vocab, model: model}
}

// Detect scores frames of a test video and returns the top-k frame
// positions subject to the separation constraint, best first.
func (m *ChatLSTM) Detect(log *chat.Log, duration float64, k int) []float64 {
	st := m.model.LSTM.NewInferState()
	score := func(t float64) float64 {
		return m.model.PredictProbaInto(st, m.vocab.Encode(frameText(log, t, m.cfg.WindowSeconds), m.cfg.MaxChars))
	}
	return topKFrames(m.cfg, duration, k, score)
}

// JointLSTM is the chat+video deep baseline: a character LSTM and a
// visual-feature LSTM fused by a dense head.
type JointLSTM struct {
	cfg   LSTMConfig
	vocab *nn.CharVocab
	model *nn.JointClassifier
}

// TrainJointLSTM trains the joint baseline. Every video must carry Frames.
func TrainJointLSTM(cfg LSTMConfig, videos []ChatVideo) *JointLSTM {
	cfg.fillDefaults()
	rng := stats.NewRand(cfg.Seed)

	var texts []string
	var frameSeqs [][][]float64
	var labels []int
	for _, v := range videos {
		for t := 0.0; t < v.Duration; t += cfg.TrainStride {
			texts = append(texts, frameText(v.Log, t, cfg.WindowSeconds))
			frameSeqs = append(frameSeqs, frameSlice(v.Frames, t, cfg.WindowSeconds))
			labels = append(labels, frameLabel(t, v.Highlights))
		}
	}
	vocab := nn.NewCharVocab(texts)
	seqs := make([][]int, len(texts))
	for i, s := range texts {
		seqs[i] = vocab.Encode(s, cfg.MaxChars)
	}
	model := nn.NewJointClassifier(rng, vocab.Len(), cfg.FrameDim, cfg.Hidden, cfg.Layers, cfg.LearningRate)
	trainBatches(rng, cfg, len(seqs), func(batch []int) {
		bs := make([][]int, len(batch))
		bf := make([][][]float64, len(batch))
		bl := make([]int, len(batch))
		for j, idx := range batch {
			bs[j] = seqs[idx]
			bf[j] = frameSeqs[idx]
			bl[j] = labels[idx]
		}
		model.TrainBatch(bs, bf, bl)
	})
	return &JointLSTM{cfg: cfg, vocab: vocab, model: model}
}

// Detect scores frames of a test video (chat + visual features) and
// returns the top-k frame positions, best first.
func (m *JointLSTM) Detect(log *chat.Log, frames [][]float64, duration float64, k int) []float64 {
	score := func(t float64) float64 {
		seq := m.vocab.Encode(frameText(log, t, m.cfg.WindowSeconds), m.cfg.MaxChars)
		return m.model.PredictProba(seq, frameSlice(frames, t, m.cfg.WindowSeconds))
	}
	return topKFrames(m.cfg, duration, k, score)
}

// DetectIntervals returns top-k highlight intervals: each detected frame
// is widened into a span by walking outward while the model's probability
// stays above threshold (0.5). This is how a frame classifier yields start
// AND end positions for the Table I evaluation.
func (m *JointLSTM) DetectIntervals(log *chat.Log, frames [][]float64, duration float64, k int) []core.Interval {
	score := func(t float64) float64 {
		seq := m.vocab.Encode(frameText(log, t, m.cfg.WindowSeconds), m.cfg.MaxChars)
		return m.model.PredictProba(seq, frameSlice(frames, t, m.cfg.WindowSeconds))
	}
	tops := topKFrames(m.cfg, duration, k, score)
	return widenFrames(m.cfg, tops, duration, score)
}

// DetectIntervals widens the chat-only model's detections the same way.
func (m *ChatLSTM) DetectIntervals(log *chat.Log, duration float64, k int) []core.Interval {
	st := m.model.LSTM.NewInferState()
	score := func(t float64) float64 {
		return m.model.PredictProbaInto(st, m.vocab.Encode(frameText(log, t, m.cfg.WindowSeconds), m.cfg.MaxChars))
	}
	tops := topKFrames(m.cfg, duration, k, score)
	return widenFrames(m.cfg, tops, duration, score)
}

// widenFrames expands each detected frame into [start, end] by scanning at
// DetectStride while the score stays above 0.5, capping the span at the
// separation radius.
func widenFrames(cfg LSTMConfig, tops []float64, duration float64, score func(float64) float64) []core.Interval {
	out := make([]core.Interval, 0, len(tops))
	for _, t := range tops {
		start, end := t, t
		for start-cfg.DetectStride >= 0 && t-start < cfg.MinSeparation/2 &&
			score(start-cfg.DetectStride) > 0.5 {
			start -= cfg.DetectStride
		}
		for end+cfg.DetectStride < duration && end-t < cfg.MinSeparation/2 &&
			score(end+cfg.DetectStride) > 0.5 {
			end += cfg.DetectStride
		}
		out = append(out, core.Interval{Start: start, End: end})
	}
	return out
}

// frameSlice returns the per-second feature vectors covering
// [t, t+window). Out-of-range seconds yield zero vectors so sequence
// lengths stay uniform.
func frameSlice(frames [][]float64, t, window float64) [][]float64 {
	n := int(window)
	out := make([][]float64, 0, n)
	for i := 0; i < n; i++ {
		idx := int(t) + i
		if idx >= 0 && idx < len(frames) {
			out = append(out, frames[idx])
		} else if len(frames) > 0 {
			out = append(out, make([]float64, len(frames[0])))
		}
	}
	return out
}

// trainBatches runs the epoch/minibatch loop with per-epoch shuffling.
func trainBatches(rng interface{ Perm(int) []int }, cfg LSTMConfig, n int, step func(batch []int)) {
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(n)
		for start := 0; start < n; start += cfg.BatchSize {
			end := start + cfg.BatchSize
			if end > n {
				end = n
			}
			step(perm[start:end])
		}
	}
}

// topKFrames scores frames at DetectStride and returns the k best subject
// to MinSeparation, mirroring the paper's frame-dedup rule ("if two frames
// are close to each other within 120 s, we only pick up the frame with a
// higher probability").
func topKFrames(cfg LSTMConfig, duration float64, k int, score func(float64) float64) []float64 {
	if k <= 0 || duration <= 0 {
		return nil
	}
	type scored struct {
		t float64
		p float64
	}
	var all []scored
	for t := 0.0; t < duration; t += cfg.DetectStride {
		all = append(all, scored{t: t, p: score(t)})
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].p > all[j].p })
	var out []float64
	for _, s := range all {
		if len(out) == k {
			break
		}
		ok := true
		for _, t := range out {
			d := s.t - t
			if d < 0 {
				d = -d
			}
			if d <= cfg.MinSeparation {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, s.t)
		}
	}
	return out
}
