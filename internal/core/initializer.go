package core

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"lightor/internal/chat"
	"lightor/internal/ml"
	"lightor/internal/stats"
)

// InitializerConfig carries the Highlight Initializer's tunables, with the
// paper's defaults (Sections IV-A and VII-A).
type InitializerConfig struct {
	// WindowSize is the sliding-window length in seconds (default 25).
	WindowSize float64
	// WindowStride is the window stride; equal to WindowSize for the
	// paper's non-overlapping tiling (default 25).
	WindowStride float64
	// MinSeparation is δ: two red dots closer than this are redundant
	// (default 120).
	MinSeparation float64
	// Features selects the model's feature subset (default FeaturesFull).
	Features FeatureSet
	// DelayMax bounds the adjustment-constant search range [0, DelayMax]
	// in whole seconds (default 60).
	DelayMax int
	// PeakSmoothing is the moving-average window (in 1 s bins) used when
	// locating the message peak inside a window (default 5).
	PeakSmoothing int
}

// DefaultInitializerConfig returns the paper's settings.
func DefaultInitializerConfig() InitializerConfig {
	return InitializerConfig{
		WindowSize:    25,
		WindowStride:  25,
		MinSeparation: 120,
		Features:      FeaturesFull,
		DelayMax:      60,
		PeakSmoothing: 5,
	}
}

// Validate checks an effective (post-default) configuration for values
// that would silently produce degenerate window tilings or NaN features:
// negative or non-finite sizes, strides, and separations. fillDefaults only
// replaces zero values, so anything negative the caller wrote survives to
// this check and is rejected with a clear error instead of corrupting the
// pipeline downstream.
func (c InitializerConfig) Validate() error {
	checkPos := func(name string, v float64) error {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("core: %s must be finite, got %g", name, v)
		}
		if v <= 0 {
			return fmt.Errorf("core: %s must be positive, got %g", name, v)
		}
		return nil
	}
	if err := checkPos("WindowSize", c.WindowSize); err != nil {
		return err
	}
	if err := checkPos("WindowStride", c.WindowStride); err != nil {
		return err
	}
	if err := checkPos("MinSeparation", c.MinSeparation); err != nil {
		return err
	}
	if c.Features < FeaturesNum || c.Features > FeaturesFull {
		return fmt.Errorf("core: unknown feature set %d", int(c.Features))
	}
	if c.DelayMax < 0 {
		return fmt.Errorf("core: DelayMax must be non-negative, got %d", c.DelayMax)
	}
	if c.PeakSmoothing < 1 {
		return fmt.Errorf("core: PeakSmoothing must be at least 1, got %d", c.PeakSmoothing)
	}
	return nil
}

func (c *InitializerConfig) fillDefaults() {
	d := DefaultInitializerConfig()
	if c.WindowSize == 0 {
		c.WindowSize = d.WindowSize
	}
	if c.WindowStride == 0 {
		c.WindowStride = d.WindowStride
	}
	if c.MinSeparation == 0 {
		c.MinSeparation = d.MinSeparation
	}
	if c.DelayMax == 0 {
		c.DelayMax = d.DelayMax
	}
	if c.PeakSmoothing == 0 {
		c.PeakSmoothing = d.PeakSmoothing
	}
}

// TrainingVideo is one labeled video: its chat log, duration, per-window
// labels (1 = the window discusses a highlight), and the ground-truth
// highlight spans. Labels must align with the windows returned by
// Initializer.Windows for the same config.
type TrainingVideo struct {
	Log        *chat.Log
	Duration   float64
	Labels     []int
	Highlights []Interval
}

// RedDot is one predicted highlight position.
type RedDot struct {
	// Time is the adjusted red-dot position (window peak minus the learned
	// reaction delay).
	Time float64
	// Peak is the message-rate peak inside the winning window.
	Peak float64
	// Window is the chat window that triggered the prediction.
	Window Interval
	// Score is the model's probability that the window discusses a
	// highlight.
	Score float64
}

// Initializer is the trained Highlight Initializer: a logistic-regression
// window scorer (prediction stage) plus a learned constant reaction delay
// (adjustment stage).
type Initializer struct {
	cfg    InitializerConfig
	model  *ml.LogisticRegression
	delayC int
}

// NewInitializer returns an untrained initializer with the given config
// (zero fields take the paper's defaults). It rejects configurations with
// negative or non-finite window geometry — values that previously passed
// through silently and produced NaN-ish tilings.
func NewInitializer(cfg InitializerConfig) (*Initializer, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Initializer{cfg: cfg}, nil
}

// Config returns the effective configuration.
func (in *Initializer) Config() InitializerConfig { return in.cfg }

// DelayC returns the learned adjustment constant c in seconds
// (time_start = time_peak − c). Zero before training.
func (in *Initializer) DelayC() int { return in.delayC }

// Windows tiles a video's chat into the config's sliding windows. Training
// labels must be produced against exactly this slicing.
func (in *Initializer) Windows(log *chat.Log, duration float64) []chat.Window {
	return chat.SlidingWindows(log, duration, in.cfg.WindowSize, in.cfg.WindowStride)
}

// featureRows extracts per-window feature vectors, normalized to [0, 1]
// within the video: a quiet stream's burst and a busy stream's burst then
// look alike to the model, which is what lets one labeled video generalize.
func (in *Initializer) featureRows(ws []chat.Window) ([][]float64, error) {
	raw := make([][]float64, len(ws))
	// One accumulator serves every window: the same incremental code path
	// the OnlineDetector feeds live, replayed per window, so batch features
	// are byte-identical to streaming ones and the per-window buffers
	// (vocabulary, token scratch) are reused across the whole tiling.
	var acc FeatureAccumulator
	for i, w := range ws {
		acc.Reset()
		for _, m := range w.Messages {
			acc.Add(m.Text)
		}
		raw[i] = in.cfg.Features.Vector(acc.Features())
	}
	var scaler ml.MinMaxScaler
	rows, err := scaler.FitTransform(raw)
	if err != nil {
		return nil, fmt.Errorf("core: scaling window features: %w", err)
	}
	return rows, nil
}

// Train fits the prediction model on the labeled windows of the training
// videos, then learns the adjustment constant c by maximizing the
// good-red-dot reward over the labeled highlight windows (Section IV-C2).
func (in *Initializer) Train(videos []TrainingVideo) error {
	if len(videos) == 0 {
		return errors.New("core: Train requires at least one labeled video")
	}
	var X [][]float64
	var y []int
	// Peaks of positive windows, paired with their videos' highlights, for
	// the adjustment search.
	type peakCase struct {
		peak       float64
		highlights []Interval
	}
	var peaks []peakCase

	for vi, tv := range videos {
		ws := in.Windows(tv.Log, tv.Duration)
		if len(tv.Labels) != len(ws) {
			return fmt.Errorf("core: video %d has %d labels for %d windows",
				vi, len(tv.Labels), len(ws))
		}
		rows, err := in.featureRows(ws)
		if err != nil {
			return err
		}
		X = append(X, rows...)
		y = append(y, tv.Labels...)
		for i, w := range ws {
			if tv.Labels[i] == 1 {
				peaks = append(peaks, peakCase{
					peak:       in.windowPeak(w),
					highlights: tv.Highlights,
				})
			}
		}
	}

	model := &ml.LogisticRegression{}
	if err := model.Fit(X, y); err != nil {
		return fmt.Errorf("core: fitting prediction model: %w", err)
	}
	in.model = model

	// Adjustment stage: c* = argmax_c Σ_i reward(peak_i − c).
	if len(peaks) > 0 {
		c, _ := ml.MaximizeIntRewardStable(0, in.cfg.DelayMax, func(c int) float64 {
			var reward float64
			for _, pc := range peaks {
				if IsGoodStartAmong(pc.peak-float64(c), pc.highlights) {
					reward++
				}
			}
			return reward
		})
		in.delayC = c
	}
	return nil
}

// windowPeak locates the message-rate peak inside a window: the center of
// the heaviest 1-second bin after smoothing. Empty windows peak at their
// midpoint.
func (in *Initializer) windowPeak(w chat.Window) float64 {
	span := w.End - w.Start
	if span <= 0 || len(w.Messages) == 0 {
		return w.Start + float64(span/2)
	}
	bins := int(span)
	if bins < 1 {
		bins = 1
	}
	h := stats.NewHistogram(w.Start, w.End, bins)
	for _, m := range w.Messages {
		h.Add(m.Time)
	}
	return h.PeakPosition(in.cfg.PeakSmoothing)
}

// ScoreWindows returns the model's probability for every window of a
// video, aligned with Windows().
func (in *Initializer) ScoreWindows(log *chat.Log, duration float64) ([]chat.Window, []float64, error) {
	if in.model == nil {
		return nil, nil, errors.New("core: Initializer used before Train")
	}
	ws := in.Windows(log, duration)
	if len(ws) == 0 {
		return nil, nil, nil
	}
	rows, err := in.featureRows(ws)
	if err != nil {
		return nil, nil, err
	}
	scores := make([]float64, len(ws))
	if _, err := in.model.PredictProbaInto(rows, scores); err != nil {
		return nil, nil, fmt.Errorf("core: scoring windows: %w", err)
	}
	return ws, scores, nil
}

// selectTop implements Algorithm 1's Top function: indices of the top-k
// windows by score, subject to the δ separation constraint on window
// starts, in descending score order.
func (in *Initializer) selectTop(ws []chat.Window, scores []float64, k int) []int {
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scores[order[a]] > scores[order[b]]
	})
	var top []int
	for _, i := range order {
		if len(top) == k {
			break
		}
		tooClose := false
		for _, j := range top {
			if abs(ws[i].Start-ws[j].Start) <= in.cfg.MinSeparation {
				tooClose = true
				break
			}
		}
		if !tooClose {
			top = append(top, i)
		}
	}
	return top
}

// TopWindows returns the window tiling and the indices of the top-k
// windows by model score (separation-constrained, best first). Chat
// Precision@K evaluates exactly this output.
func (in *Initializer) TopWindows(log *chat.Log, duration float64, k int) ([]chat.Window, []int, error) {
	if k <= 0 {
		return nil, nil, fmt.Errorf("core: TopWindows needs k > 0, got %d", k)
	}
	ws, scores, err := in.ScoreWindows(log, duration)
	if err != nil {
		return nil, nil, err
	}
	return ws, in.selectTop(ws, scores, k), nil
}

// Detect runs Algorithm 1: score all windows, locate each candidate's
// peak, shift it back by the learned delay, and keep the top-k red dots
// subject to the δ separation constraint on the FINAL dot positions
// (Section IV-A requires |r − r'| > δ between red dots — window starts can
// be farther apart than the adjusted dots end up). Dots are returned in
// descending score order.
func (in *Initializer) Detect(log *chat.Log, duration float64, k int) ([]RedDot, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: Detect needs k > 0, got %d", k)
	}
	ws, scores, err := in.ScoreWindows(log, duration)
	if err != nil {
		return nil, err
	}
	order := make([]int, len(ws))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return scores[order[a]] > scores[order[b]]
	})
	var dots []RedDot
	for _, i := range order {
		if len(dots) == k {
			break
		}
		peak := in.windowPeak(ws[i])
		dot := peak - float64(in.delayC)
		if dot < 0 {
			dot = 0
		}
		tooClose := false
		for _, d := range dots {
			if abs(d.Time-dot) <= in.cfg.MinSeparation {
				tooClose = true
				break
			}
		}
		if tooClose {
			continue
		}
		dots = append(dots, RedDot{
			Time:   dot,
			Peak:   peak,
			Window: Interval{Start: ws[i].Start, End: ws[i].End},
			Score:  scores[i],
		})
	}
	return dots, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
