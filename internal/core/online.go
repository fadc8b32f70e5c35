package core

import (
	"errors"
	"math"

	"lightor/internal/chat"
	"lightor/internal/stats"
)

// OnlineDetector runs the Highlight Initializer over a LIVE chat stream:
// messages arrive in timestamp order and red dots are emitted as soon as
// they are final, while the broadcast is still running. This is the
// deployment direction the paper sketches in its future work (Section IX):
// the same trained model, applied before the recording is even complete.
//
// Finalization rule: a window's dot can be emitted once the stream clock
// has passed the window's end by the separation distance δ — at that point
// no unseen message can create a better-scoring window close enough to
// displace it. Feature normalization uses the running min/max over the
// windows seen so far, so very early windows score against little context
// (a warm-up effect the tests quantify).
//
// The per-message hot path is incremental and allocation-free in steady
// state. Feed does O(tokens in the message) work: the current window's
// features accumulate in a FeatureAccumulator (the exact code path batch
// WindowFeatures replays, so batch and streaming features are
// byte-identical), the message-rate peak accumulates in a reusable
// histogram, and messages themselves are never retained. Window close is
// O(1) in the number of messages already folded in. Scores are memoized per
// window and recomputed only when the running min/max normalization
// actually moves (tracked by an epoch counter), and the δ-neighborhood
// check walks only the sorted neighbors of a window instead of scanning
// every pending window. Pending windows are not even looked at by a Feed
// that neither closes a window nor moves the clock past the next deadline
// at which one of them finalizes or expires (collectAt).
type OnlineDetector struct {
	init *Initializer
	// Threshold is the minimum model probability for a window to produce
	// a red dot.
	threshold float64
	// Warmup holds back emissions until the stream clock passes this many
	// seconds, giving the running normalization enough context to tell a
	// real burst from early chatter. Windows closed during warm-up are
	// still scored and emitted once it ends. Default 300 s; settable via
	// SetWarmup before the first Feed.
	warmup float64

	now float64

	// Current (open) window, accumulated incrementally on each Feed.
	open     bool
	curStart float64
	curEnd   float64
	acc      FeatureAccumulator
	hist     *stats.Histogram // message-rate bins for the peak location

	pending []onlineWindow // closed windows awaiting finalization, by start
	// collectAt is the earliest clock value at which collect has work to
	// do on the pending windows as they stand. It is derived state,
	// recomputed by every full collect, and not part of a snapshot.
	collectAt float64

	mins, maxs []float64 // running feature minima / maxima
	haveNorm   bool
	normEpoch  uint64 // bumped whenever mins/maxs actually move

	emptyFeats  featVec   // cached feature vector of an empty window
	rowBuf      []float64 // scratch for score normalization
	peakScratch []float64 // scratch for the close-time peak search
	emitted     []RedDot
}

// featVec is a feature vector inlined into the pending-window record so the
// close path allocates nothing per window.
type featVec struct {
	vals [maxFeatureDim]float64
	dim  int
}

type onlineWindow struct {
	start, end float64
	peak       float64 // message-rate peak position, fixed at close
	feats      featVec
	score      float64
	scoreEpoch uint64 // normEpoch the score was computed under; 0 = never
	done       bool
}

// NewOnlineDetector wraps a trained initializer for streaming use.
// threshold ≤ 0 defaults to 0.5.
func NewOnlineDetector(init *Initializer, threshold float64) (*OnlineDetector, error) {
	if init == nil || init.model == nil {
		return nil, errors.New("core: OnlineDetector needs a trained initializer")
	}
	if threshold <= 0 {
		threshold = 0.5
	}
	o := &OnlineDetector{init: init, threshold: threshold, warmup: 300, collectAt: math.Inf(-1)}
	o.acc.Reset()
	dim := init.cfg.Features.Dim()
	o.mins = make([]float64, dim)
	o.maxs = make([]float64, dim)
	o.rowBuf = make([]float64, dim)
	o.emptyFeats = o.vec(Features{})
	return o, nil
}

// SetWarmup overrides the warm-up horizon in seconds (0 disables it).
// Call it before the first Feed.
func (o *OnlineDetector) SetWarmup(seconds float64) {
	o.warmup = seconds
	o.collectAt = math.Inf(-1) // the deadline was computed from the old horizon
}

// vec projects features into an inline fixed-size vector (no allocation).
func (o *OnlineDetector) vec(f Features) featVec {
	var v featVec
	v.dim = len(o.init.cfg.Features.AppendVector(v.vals[:0], f))
	return v
}

// Feed consumes the next chat message (timestamps must be non-decreasing)
// and returns any red dots finalized by the stream advancing. It returns
// an error on out-of-order input — live chat is inherently ordered, so
// disorder means the caller's plumbing is broken. Steady-state Feed (a
// message landing in the open window) performs zero heap allocations.
func (o *OnlineDetector) Feed(m chat.Message) ([]RedDot, error) {
	if m.Time < o.now {
		return nil, errors.New("core: OnlineDetector messages must arrive in time order")
	}
	o.now = m.Time
	size := o.init.cfg.WindowSize

	// Close the window the clock has passed, if any.
	closed := o.open && m.Time >= o.curEnd
	if closed {
		o.closeCurrent()
	}
	if !o.open {
		start := float64(math.Floor(m.Time/size) * size)
		o.openWindow(start, start+size)
	}
	o.acc.Add(m.Text)
	o.hist.Add(m.Time)
	// A closed window changes the pending set (and possibly every score);
	// otherwise nothing can finalize before the clock reaches collectAt.
	if closed || o.now >= o.collectAt {
		return o.collect(), nil
	}
	return nil, nil
}

// Advance moves the stream clock without a message (heartbeats during
// quiet periods) and returns any newly finalized dots.
func (o *OnlineDetector) Advance(now float64) []RedDot {
	if now <= o.now {
		return nil
	}
	o.now = now
	if o.open && now >= o.curEnd {
		o.closeCurrent()
	}
	return o.collect()
}

// Flush ends the stream: every remaining window finalizes immediately.
func (o *OnlineDetector) Flush() []RedDot {
	if o.open {
		o.closeCurrent()
	}
	o.now = math.Inf(1)
	return o.collect()
}

// Emitted returns all dots emitted so far, in emission order.
func (o *OnlineDetector) Emitted() []RedDot {
	out := make([]RedDot, len(o.emitted))
	copy(out, o.emitted)
	return out
}

// openWindow starts accumulating a fresh window, reusing the feature
// accumulator and the peak histogram.
func (o *OnlineDetector) openWindow(start, end float64) {
	o.open = true
	o.curStart, o.curEnd = start, end
	o.acc.Reset()
	bins := int(end - start) // 1 s bins, matching Initializer.windowPeak
	if bins < 1 {
		bins = 1
	}
	if o.hist == nil {
		o.hist = stats.NewHistogram(start, end, bins)
	} else {
		o.hist.Reset(start, end, bins)
	}
}

// closeCurrent finalizes the open window's features and peak from the
// accumulated state — O(1) in the window's message count, no allocations —
// and materializes any quiet-gap empty windows behind it. The open window
// always holds at least one message (openWindow only runs inside Feed,
// immediately followed by the message's Add); empty windows exist only via
// the gap fill below.
func (o *OnlineDetector) closeCurrent() {
	w := onlineWindow{start: o.curStart, end: o.curEnd}
	w.feats = o.vec(o.acc.Features())
	w.peak, o.peakScratch = o.hist.PeakPositionInto(o.init.cfg.PeakSmoothing, o.peakScratch)
	o.open = false
	o.observeNorm(w.feats)
	o.pending = append(o.pending, w)

	// Advance the clock past any gap the closed window leaves.
	nextStart := w.end
	size := o.init.cfg.WindowSize
	if o.now >= nextStart+size {
		// A quiet stretch: materialize empty windows so local-maximum
		// comparisons see them (they score ~0 and finalize trivially).
		// Cap the fill at 2δ past the closed window: emptier, farther
		// windows can never change an emission decision, and an unbounded
		// clock jump (a buggy or hostile Advance) must not allocate the
		// whole gap. Their features are the one cached zero vector; they
		// do not move the running normalization (they never did: only
		// windows that were actually open update min/max).
		limit := o.now
		if cap := nextStart + 2*o.init.cfg.MinSeparation + size; limit > cap {
			limit = cap
		}
		for start := nextStart; start+size <= limit; start += size {
			o.pending = append(o.pending, onlineWindow{
				start: start,
				end:   start + size,
				peak:  start + float64(size/2),
				feats: o.emptyFeats,
			})
		}
	}
}

// observeNorm folds a closed window's features into the running min/max,
// bumping the normalization epoch only when the bounds actually move — the
// signal that memoized window scores are stale.
func (o *OnlineDetector) observeNorm(v featVec) {
	if !o.haveNorm {
		copy(o.mins, v.vals[:v.dim])
		copy(o.maxs, v.vals[:v.dim])
		o.haveNorm = true
		o.normEpoch++
		return
	}
	changed := false
	for j := 0; j < v.dim; j++ {
		f := v.vals[j]
		if f < o.mins[j] {
			o.mins[j] = f
			changed = true
		}
		if f > o.maxs[j] {
			o.maxs[j] = f
			changed = true
		}
	}
	if changed {
		o.normEpoch++
	}
}

// windowScore returns the model probability for a pending window,
// normalizing with the running min/max. Scores are memoized per
// normalization epoch: while the running bounds stand still (the steady
// state once a stream has seen its extremes), each window is scored exactly
// once no matter how many Feeds poll it.
func (o *OnlineDetector) windowScore(pw *onlineWindow) float64 {
	if pw.scoreEpoch == o.normEpoch {
		return pw.score
	}
	row := o.rowBuf
	for j := 0; j < pw.feats.dim; j++ {
		span := o.maxs[j] - o.mins[j]
		if span > 0 {
			row[j] = (pw.feats.vals[j] - o.mins[j]) / span
		} else {
			row[j] = 0
		}
	}
	p, err := o.init.model.PredictProba(row)
	if err != nil {
		p = 0
	}
	pw.score = p
	pw.scoreEpoch = o.normEpoch
	return p
}

// collect finalizes pending windows once the clock has passed their end by
// δ, emitting a dot for each window that clears the threshold and is the
// best-scoring window within its δ-neighborhood. Pending windows are
// ordered by start, so the neighborhood is the contiguous run around each
// window rather than an O(pending²) scan.
func (o *OnlineDetector) collect() []RedDot {
	if !o.haveNorm {
		return nil
	}
	delta := o.init.cfg.MinSeparation
	var newDots []RedDot
	for i := range o.pending {
		pw := &o.pending[i]
		if pw.done || o.now < pw.end+delta || o.now < o.warmup {
			continue
		}
		s := o.windowScore(pw)
		if s < o.threshold {
			pw.done = true
			continue
		}
		// Compare against every neighbor within δ (all of them are closed,
		// because the clock is ≥ this window's end + δ and neighbors start
		// within δ of it). Earlier windows win ties.
		best := true
		for j := i - 1; j >= 0 && pw.start-o.pending[j].start <= delta; j-- {
			if o.windowScore(&o.pending[j]) >= s {
				best = false
				break
			}
		}
		if best {
			for j := i + 1; j < len(o.pending) && o.pending[j].start-pw.start <= delta; j++ {
				if o.windowScore(&o.pending[j]) > s {
					best = false
					break
				}
			}
		}
		// Respect separation against already-emitted dots.
		if best {
			dot := pw.peak - float64(o.init.delayC)
			if dot < 0 {
				dot = 0
			}
			for _, e := range o.emitted {
				if math.Abs(e.Time-dot) <= delta {
					best = false
					break
				}
			}
			if best {
				rd := RedDot{
					Time:   dot,
					Peak:   pw.peak,
					Window: Interval{Start: pw.start, End: pw.end},
					Score:  s,
				}
				o.emitted = append(o.emitted, rd)
				newDots = append(newDots, rd)
			}
		}
		pw.done = true
	}
	// Drop the fully processed prefix in place to keep memory proportional
	// to the active horizon, not the stream length.
	firstLive := 0
	for firstLive < len(o.pending) && o.pending[firstLive].done &&
		o.now >= o.pending[firstLive].end+2*delta {
		firstLive++
	}
	if firstLive > 0 {
		n := copy(o.pending, o.pending[firstLive:])
		o.pending = o.pending[:n]
	}
	// The next moment any of the conditions above flips: an unfinished
	// window reaching end+δ (and the warm-up ending), or the head of the
	// list, once finished, reaching end+2δ.
	o.collectAt = math.Inf(1)
	for i := range o.pending {
		pw := &o.pending[i]
		switch {
		case !pw.done:
			o.collectAt = min(o.collectAt, max(pw.end+delta, o.warmup))
		case i == 0:
			o.collectAt = min(o.collectAt, pw.end+2*delta)
		}
	}
	return newDots
}
