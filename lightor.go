// Package lightor is an implicit-crowdsourcing highlight extractor for
// recorded live videos, reproducing "Towards Extracting Highlights From
// Recorded Live Videos: An Implicit Crowdsourcing Approach" (Jiang, Qu,
// Wang, Wang, Zheng — ICDE 2020).
//
// LIGHTOR needs no video decoding and no GPUs. It mines two free signals a
// live-streaming platform already has:
//
//   - time-stamped chat: the Highlight Initializer scores 25-second chat
//     windows with three generic features (message number, length,
//     similarity), picks the top-k, and shifts each window's message peak
//     back by a learned ~25 s reaction delay to place a "red dot";
//   - viewer interactions: the Highlight Extractor watches how viewers
//     play/seek around each red dot, filters the noise, classifies the dot
//     as usable (Type II) or overshooting (Type I), and aggregates play
//     boundaries with medians, iterating until the dot converges.
//
// # Quick start
//
//	det, err := lightor.New(lightor.Options{})
//	if err != nil { ... }
//	if err := det.Train(labeled); err != nil { ... }
//	dots, err := det.DetectRedDots(messages, duration, 5)
//
// # Streaming
//
// OnlineSession consumes live chat message by message and emits red dots
// while the broadcast is still running, and the internal session engine
// multiplexes many such sessions over a worker pool for platform
// deployments (see cmd/lightor-server's /api/live endpoints). Batch
// extraction of a recorded video uses the same engine's refine queue:
// ExtractHighlights detects the red dots over the whole log and then
// refines every dot in parallel, so refining k dots costs roughly one
// dot's latency instead of k.
//
// See examples/ for end-to-end programs, including the full crowd
// refinement loop and the browser-extension web service.
package lightor

import (
	"context"
	"fmt"
	"io"
	"sync"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/play"
)

// Re-exported domain types. These alias the engine's own types, so values
// flow between the public API and the internal packages without copying.
type (
	// Message is one time-stamped chat message.
	Message = chat.Message
	// Interval is a [start, end] span in video seconds.
	Interval = core.Interval
	// RedDot is a predicted approximate highlight position.
	RedDot = core.RedDot
	// Highlight is an extracted highlight: red dot, refined boundary, and
	// the refinement trace.
	Highlight = core.HighlightResult
	// TrainingVideo is a labeled video for Train.
	TrainingVideo = core.TrainingVideo
	// Play is one uninterrupted viewing span by one user.
	Play = play.Play
	// Event is a raw player interaction (play/pause/seek/stop).
	Event = play.Event
	// InteractionSource supplies fresh play data around a red dot.
	InteractionSource = core.InteractionSource
	// FeatureSet selects the prediction model's features.
	FeatureSet = core.FeatureSet
)

// Feature set constants (Figure 6a's ablation axes).
const (
	FeaturesNum    = core.FeaturesNum
	FeaturesNumLen = core.FeaturesNumLen
	FeaturesFull   = core.FeaturesFull
)

// Event type constants for building interaction streams.
const (
	EventPlay  = play.EventPlay
	EventPause = play.EventPause
	EventSeek  = play.EventSeek
	EventStop  = play.EventStop
)

// Sessionize converts raw player events into play records.
func Sessionize(events []Event) []Play { return play.Sessionize(events) }

// ReadEventsJSONL parses a JSON-lines interaction-event log (the format
// the browser extension reports).
func ReadEventsJSONL(r io.Reader) ([]Event, error) { return play.ReadEventsJSONL(r) }

// WriteEventsJSONL writes interaction events as JSON lines.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	return play.WriteEventsJSONL(w, events)
}

// StaticPlays wraps an already-collected batch of play records as an
// InteractionSource: every refinement iteration sees the same snapshot.
// Use it to refine highlights from logged interaction data; live systems
// implement InteractionSource against their interaction log instead.
func StaticPlays(plays []Play) InteractionSource { return staticSource(plays) }

type staticSource []Play

func (s staticSource) Interactions(dot float64) []Play { return s }

// ReadChatJSONL parses a JSON-lines chat log (one message per line). The
// returned messages of one log share one backing string: their users and
// texts are cut from a single copy of the input, which stays in memory
// while any of them does.
func ReadChatJSONL(r io.Reader) ([]Message, error) {
	log, err := chat.ReadJSONL(r)
	if err != nil {
		return nil, err
	}
	return log.Messages(), nil
}

// ReadChatIRC parses the plain-text "[h:mm:ss] <user> message" export
// format produced by common VOD chat downloaders.
func ReadChatIRC(r io.Reader) ([]Message, error) {
	log, err := chat.ReadIRCText(r)
	if err != nil {
		return nil, err
	}
	return log.Messages(), nil
}

// WriteChatJSONL writes messages as a JSON-lines chat log.
func WriteChatJSONL(w io.Writer, messages []Message) error {
	return chat.WriteJSONL(w, chat.NewLog(messages))
}

// Options configures a Detector. The zero value uses the paper's defaults
// everywhere (25 s windows, δ = 120 s separation, full feature set,
// Δ = 60 s play association, m = 20 s move-back, ε = 3 s convergence).
type Options struct {
	// WindowSize is the chat sliding-window length in seconds.
	WindowSize float64
	// WindowStride is the window stride (= WindowSize for the paper's
	// non-overlapping tiling).
	WindowStride float64
	// MinSeparation is the minimum distance between two red dots (δ).
	MinSeparation float64
	// Features selects the prediction model's feature subset.
	Features FeatureSet
	// Delta is the play-association half-window around a red dot.
	Delta float64
	// MoveBack is how far a Type I red dot moves backward per iteration.
	MoveBack float64
	// Epsilon is the convergence threshold on red-dot movement.
	Epsilon float64
	// MaxIterations bounds the refinement loop.
	MaxIterations int
}

// Detector is the end-to-end LIGHTOR pipeline. A Detector owns at most one
// session engine, built lazily on the first ExtractHighlights call and
// reused by every subsequent one, so repeated batch extractions share a
// worker pool instead of spinning one up per call; Close releases it.
type Detector struct {
	init *core.Initializer
	ext  *core.Extractor

	mu  sync.Mutex
	eng *engine.Engine
}

// New creates a Detector with the given options (zero values mean paper
// defaults). It returns an error for options that are out of range —
// negative or non-finite window sizes, strides, separations, or refinement
// tunables — instead of letting them silently produce degenerate tilings.
func New(opts Options) (*Detector, error) {
	icfg := core.InitializerConfig{
		WindowSize:    opts.WindowSize,
		WindowStride:  opts.WindowStride,
		MinSeparation: opts.MinSeparation,
		Features:      opts.Features,
	}
	init, err := core.NewInitializer(icfg)
	if err != nil {
		return nil, fmt.Errorf("lightor: %w", err)
	}
	ecfg := core.ExtractorConfig{
		Delta:         opts.Delta,
		MoveBack:      opts.MoveBack,
		Epsilon:       opts.Epsilon,
		MaxIterations: opts.MaxIterations,
	}
	ext, err := core.NewExtractor(ecfg, nil)
	if err != nil {
		return nil, fmt.Errorf("lightor: %w", err)
	}
	return &Detector{
		init: init,
		ext:  ext,
	}, nil
}

// Windows tiles a video's chat into the detector's sliding windows.
// Training labels must align with this tiling.
func (d *Detector) Windows(messages []Message, duration float64) []Interval {
	ws := d.init.Windows(chat.NewLog(messages), duration)
	out := make([]Interval, len(ws))
	for i, w := range ws {
		out[i] = Interval{Start: w.Start, End: w.End}
	}
	return out
}

// NewTrainingVideo assembles a labeled video: labels carry 1 for each
// window (per Windows' tiling) whose chat discusses a highlight, and
// highlights are the ground-truth spans.
func (d *Detector) NewTrainingVideo(messages []Message, duration float64, labels []int, highlights []Interval) TrainingVideo {
	return TrainingVideo{
		Log:        chat.NewLog(messages),
		Duration:   duration,
		Labels:     labels,
		Highlights: highlights,
	}
}

// Train fits the prediction model and the reaction-delay constant on
// labeled videos. One labeled video is typically enough (Figure 6b).
func (d *Detector) Train(videos []TrainingVideo) error {
	return d.init.Train(videos)
}

// DelaySeconds returns the learned reaction delay c (time_start =
// time_peak − c). Zero before Train.
func (d *Detector) DelaySeconds() int { return d.init.DelayC() }

// DetectRedDots predicts the top-k approximate highlight positions from
// chat alone (the Highlight Initializer, Algorithm 1).
func (d *Detector) DetectRedDots(messages []Message, duration float64, k int) ([]RedDot, error) {
	return d.init.Detect(chat.NewLog(messages), duration, k)
}

// RefineHighlight runs the Highlight Extractor (Algorithm 2) on one red
// dot, pulling fresh interaction data from source each iteration until the
// dot converges.
func (d *Detector) RefineHighlight(dot RedDot, source InteractionSource) Highlight {
	seed := Interval{Start: dot.Time, End: dot.Time + d.ext.Config().DefaultSpan}
	boundary, trace := d.ext.Refine(seed, source)
	return Highlight{Dot: dot, Boundary: boundary, Trace: trace}
}

// ExtractHighlights runs the full pipeline: red dots from chat, then
// iterative boundary refinement against the interaction source. Detection
// runs on the caller's goroutine and the k red dots then refine in
// parallel on the engine's refine queue; the output (dots, order, and
// boundaries) is element for element what DetectRedDots followed by
// RefineHighlight per dot returns. Calls into source never overlap (it need
// not be safe for concurrent use), but the parallel fan-out interleaves
// them across dots in unspecified order; a stateful source sees a
// different call sequence than a serial loop would give it.
func (d *Detector) ExtractHighlights(messages []Message, duration float64, k int, source InteractionSource) ([]Highlight, error) {
	eng, err := d.engine()
	if err != nil {
		return nil, fmt.Errorf("lightor: %w", err)
	}
	results, err := eng.ExtractHighlights(context.Background(), chat.NewLog(messages), duration, k, source)
	if err != nil {
		return nil, fmt.Errorf("lightor: %w", err)
	}
	return results, nil
}

// engine returns the detector's session engine, building it on first use.
// The engine (and its worker pools) persists across calls so repeated batch
// extractions don't pay spin-up and tear-down each time; Close releases it.
func (d *Detector) engine() (*engine.Engine, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.eng == nil {
		eng, err := engine.New(d.init, d.ext, engine.Config{})
		if err != nil {
			return nil, err
		}
		d.eng = eng
	}
	return d.eng, nil
}

// Close drains and releases the detector's session engine, if one was ever
// built. The Detector remains usable: a later ExtractHighlights builds a
// fresh engine. Close is idempotent and safe to call on a Detector that
// never extracted anything.
func (d *Detector) Close() error {
	d.mu.Lock()
	eng := d.eng
	d.eng = nil
	d.mu.Unlock()
	if eng == nil {
		return nil
	}
	if err := eng.Close(context.Background()); err != nil {
		return fmt.Errorf("lightor: %w", err)
	}
	return nil
}

// OnlineSession is a live-stream detection session: feed it chat messages
// as they arrive and it emits red dots while the broadcast is still
// running. See core.OnlineDetector for the finalization semantics.
type OnlineSession struct {
	od *core.OnlineDetector
}

// NewOnlineSession starts a live detection session on a trained detector.
// threshold ≤ 0 defaults to 0.5.
func (d *Detector) NewOnlineSession(threshold float64) (*OnlineSession, error) {
	od, err := core.NewOnlineDetector(d.init, threshold)
	if err != nil {
		return nil, fmt.Errorf("lightor: %w", err)
	}
	return &OnlineSession{od: od}, nil
}

// SetWarmup overrides the warm-up horizon in seconds (default 300; 0
// disables it). Call before the first Feed.
func (s *OnlineSession) SetWarmup(seconds float64) { s.od.SetWarmup(seconds) }

// Feed consumes the next live chat message (timestamps must be
// non-decreasing) and returns any red dots finalized by it.
func (s *OnlineSession) Feed(m Message) ([]RedDot, error) { return s.od.Feed(m) }

// Advance moves the stream clock during quiet periods and returns any
// newly finalized dots.
func (s *OnlineSession) Advance(now float64) []RedDot { return s.od.Advance(now) }

// Flush ends the stream and finalizes all remaining windows.
func (s *OnlineSession) Flush() []RedDot { return s.od.Flush() }

// Emitted returns every dot emitted so far, in emission order.
func (s *OnlineSession) Emitted() []RedDot { return s.od.Emitted() }

// Save persists the trained detector model as JSON.
func (d *Detector) Save(w io.Writer) error { return d.init.Save(w) }

// Load reads a detector model saved by Save. The extractor uses paper
// defaults; pass opts to override them.
func Load(r io.Reader, opts Options) (*Detector, error) {
	init, err := core.LoadInitializer(r)
	if err != nil {
		return nil, fmt.Errorf("lightor: %w", err)
	}
	ecfg := core.ExtractorConfig{
		Delta:         opts.Delta,
		MoveBack:      opts.MoveBack,
		Epsilon:       opts.Epsilon,
		MaxIterations: opts.MaxIterations,
	}
	ext, err := core.NewExtractor(ecfg, nil)
	if err != nil {
		return nil, fmt.Errorf("lightor: %w", err)
	}
	return &Detector{init: init, ext: ext}, nil
}
