package core

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"lightor/internal/ml"
	"lightor/internal/play"
)

// ExtractorConfig carries the Highlight Extractor's tunables with the
// paper's defaults (Section V).
type ExtractorConfig struct {
	// Delta is the play-association window around a red dot: only plays
	// intersecting [dot−Δ, dot+Δ] are considered (default 60).
	Delta float64
	// MinPlaySeconds drops too-short plays — quick "is this interesting?"
	// probes (default 5).
	MinPlaySeconds float64
	// MaxPlaySeconds drops too-long plays — viewers watching the whole
	// stream rather than the highlight (default 120).
	MaxPlaySeconds float64
	// MoveBack is m: how far a Type I red dot moves backward per iteration
	// (default 20).
	MoveBack float64
	// Epsilon is the convergence threshold on the red dot's movement
	// (default 3).
	Epsilon float64
	// MaxIterations bounds the refinement loop (default 10).
	MaxIterations int
	// DefaultSpan seeds the highlight's end position before any play data
	// arrives: end = start + DefaultSpan (default 30).
	DefaultSpan float64
}

// DefaultExtractorConfig returns the paper's settings.
func DefaultExtractorConfig() ExtractorConfig {
	return ExtractorConfig{
		Delta:          60,
		MinPlaySeconds: 5,
		MaxPlaySeconds: 120,
		MoveBack:       20,
		Epsilon:        3,
		MaxIterations:  10,
		DefaultSpan:    30,
	}
}

// Validate rejects configurations with negative or non-finite tunables.
// Zero values are fine — fillDefaults replaces them with the paper's
// settings — but a negative Delta or MoveBack survives defaulting and would
// silently disable play association or walk red dots forward.
func (c ExtractorConfig) Validate() error {
	fields := []struct {
		name string
		v    float64
	}{
		{"Delta", c.Delta},
		{"MinPlaySeconds", c.MinPlaySeconds},
		{"MaxPlaySeconds", c.MaxPlaySeconds},
		{"MoveBack", c.MoveBack},
		{"Epsilon", c.Epsilon},
		{"DefaultSpan", c.DefaultSpan},
	}
	for _, f := range fields {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: %s must be finite, got %g", f.name, f.v)
		}
		if f.v < 0 {
			return fmt.Errorf("core: %s must be non-negative, got %g", f.name, f.v)
		}
	}
	if c.MaxIterations < 0 {
		return fmt.Errorf("core: MaxIterations must be non-negative, got %d", c.MaxIterations)
	}
	return nil
}

func (c *ExtractorConfig) fillDefaults() {
	d := DefaultExtractorConfig()
	if c.Delta == 0 {
		c.Delta = d.Delta
	}
	if c.MinPlaySeconds == 0 {
		c.MinPlaySeconds = d.MinPlaySeconds
	}
	if c.MaxPlaySeconds == 0 {
		c.MaxPlaySeconds = d.MaxPlaySeconds
	}
	if c.MoveBack == 0 {
		c.MoveBack = d.MoveBack
	}
	if c.Epsilon == 0 {
		c.Epsilon = d.Epsilon
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = d.MaxIterations
	}
	if c.DefaultSpan == 0 {
		c.DefaultSpan = d.DefaultSpan
	}
}

// TypeClass is the relative position of a red dot and its highlight's end.
type TypeClass int

const (
	// TypeI: the red dot is after the end of the highlight — viewers
	// missed it and their plays scatter (Figure 3a).
	TypeI TypeClass = iota
	// TypeII: the red dot is before the end of the highlight — viewers
	// watch it and their plays cluster (Figure 3b).
	TypeII
)

// String implements fmt.Stringer.
func (t TypeClass) String() string {
	if t == TypeI {
		return "Type I"
	}
	return "Type II"
}

// TypeFeatures are the classification features of Section V-C: how the
// observed plays sit relative to the red dot.
type TypeFeatures struct {
	After  int // plays starting at or after the dot
	Before int // plays ending before the dot
	Across int // plays starting before and ending after the dot
}

// Total returns the number of plays observed.
func (f TypeFeatures) Total() int { return f.After + f.Before + f.Across }

// ExtractTypeFeatures computes the relative-position features of plays
// around a red dot.
func ExtractTypeFeatures(plays []play.Play, dot float64) TypeFeatures {
	var f TypeFeatures
	for _, p := range plays {
		switch {
		case p.Start >= dot:
			f.After++
		case p.End < dot:
			f.Before++
		default:
			f.Across++
		}
	}
	return f
}

// TypeClassifier decides Type I vs Type II from play features.
type TypeClassifier interface {
	Classify(f TypeFeatures) TypeClass
}

// RuleTypeClassifier is the interpretable default: if more than Threshold
// of the plays sit before or across the dot, viewers were hunting backward
// for a missed highlight — Type I. Figure 4's idealized geometry (Type II
// has zero plays before/across the dot) motivates the rule; the threshold
// absorbs probe-play noise.
type RuleTypeClassifier struct {
	// Threshold is the Type I cutoff on (before+across)/total
	// (default 0.2).
	Threshold float64
}

// Classify implements TypeClassifier. With no plays at all it returns
// Type I: no evidence of anyone watching a highlight at the dot.
func (r RuleTypeClassifier) Classify(f TypeFeatures) TypeClass {
	th := r.Threshold
	if th == 0 {
		th = 0.2
	}
	total := f.Total()
	if total == 0 {
		return TypeI
	}
	frac := float64(f.Before+f.Across) / float64(total)
	if frac > th {
		return TypeI
	}
	return TypeII
}

// LearnedTypeClassifier wraps a logistic-regression model over the
// normalized (after, before, across) fractions. The paper reports ~80%
// accuracy for its learned classifier; TrainTypeClassifier reproduces it
// from labeled dot placements.
type LearnedTypeClassifier struct {
	model *ml.LogisticRegression
}

// TrainTypeClassifier fits a classifier from labeled samples. Labels use 1
// for Type II (the positive, "dot is usable" class) and 0 for Type I.
func TrainTypeClassifier(features []TypeFeatures, labels []TypeClass) (*LearnedTypeClassifier, error) {
	if len(features) != len(labels) {
		return nil, fmt.Errorf("core: %d feature rows but %d labels", len(features), len(labels))
	}
	X := make([][]float64, len(features))
	y := make([]int, len(labels))
	for i, f := range features {
		X[i] = typeFeatureVector(f)
		if labels[i] == TypeII {
			y[i] = 1
		}
	}
	model := &ml.LogisticRegression{}
	if err := model.Fit(X, y); err != nil {
		return nil, fmt.Errorf("core: fitting type classifier: %w", err)
	}
	return &LearnedTypeClassifier{model: model}, nil
}

// Classify implements TypeClassifier.
func (c *LearnedTypeClassifier) Classify(f TypeFeatures) TypeClass {
	p, err := c.model.PredictProba(typeFeatureVector(f))
	if err != nil || p < 0.5 {
		return TypeI
	}
	return TypeII
}

func typeFeatureVector(f TypeFeatures) []float64 {
	total := float64(f.Total())
	if total == 0 {
		return []float64{0, 0, 0}
	}
	return []float64{
		float64(f.After) / total,
		float64(f.Before) / total,
		float64(f.Across) / total,
	}
}

// Extractor implements Algorithm 2's filtering → classification →
// aggregation dataflow plus the iterative refinement loop.
type Extractor struct {
	cfg        ExtractorConfig
	classifier TypeClassifier
}

// NewExtractor builds an extractor. A nil classifier selects the rule-based
// default. Like NewInitializer, it rejects out-of-range configurations —
// a negative Delta or MoveBack would silently disable play association or
// walk red dots forward.
func NewExtractor(cfg ExtractorConfig, classifier TypeClassifier) (*Extractor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg.fillDefaults()
	if classifier == nil {
		classifier = RuleTypeClassifier{}
	}
	return &Extractor{cfg: cfg, classifier: classifier}, nil
}

// Config returns the effective configuration.
func (e *Extractor) Config() ExtractorConfig { return e.cfg }

// Filter implements the distance and duration filtering of Section V-C:
// keep plays near the red dot, drop too-short plays (probes) and too-long
// plays (stream binges). Graph-outlier removal happens later, inside the
// aggregation stage: removing non-overlapping plays before classification
// would erase exactly the before-the-dot evidence the Type I/II classifier
// reads (a tight after-dot cluster always dominates the overlap graph).
// The returned slice is freshly allocated.
func (e *Extractor) Filter(plays []play.Play, dot float64) []play.Play {
	return e.appendFiltered(nil, plays, dot)
}

// appendFiltered appends to dst the plays Filter keeps: those intersecting
// [dot−Δ, dot+Δ] whose duration lies within [MinPlaySeconds, MaxPlaySeconds].
func (e *Extractor) appendFiltered(dst, plays []play.Play, dot float64) []play.Play {
	lo, hi := dot-e.cfg.Delta, dot+e.cfg.Delta
	for i := range plays {
		if p := &plays[i]; e.keeps(p, lo, hi) {
			dst = append(dst, *p)
		}
	}
	return dst
}

// keeps is Filter's predicate on one play, [lo, hi] being the association
// window. The comparisons are written so that a NaN — a position, or the
// window of a NaN dot — fails the window test, and a NaN duration (∞ − ∞)
// passes the duration test.
func (e *Extractor) keeps(p *play.Play, lo, hi float64) bool {
	if !(p.End >= lo && p.Start <= hi) {
		return false
	}
	d := p.End - p.Start
	return !(d < e.cfg.MinPlaySeconds || d > e.cfg.MaxPlaySeconds)
}

// RemoveOutliers removes graph outliers: plays that do not overlap the
// most-connected play (Section V-C's third filter). It robustifies the
// median aggregation against stray plays far from the consensus span.
// Groups of at most two plays are returned as they are; a larger group's
// survivors come in a freshly allocated slice. Spans that are inverted
// (Start > End) or carry a NaN, which Filter never lets through, are
// compared with every other play one by one, so a call costs
// O(n log n + bad·n).
func (e *Extractor) RemoveOutliers(plays []play.Play) []play.Play {
	if len(plays) <= 2 {
		return plays
	}
	var s refineScratch
	c := s.graphCentre(plays)
	var kept []play.Play
	for i, p := range plays {
		if i == c || p.Overlaps(plays[c]) {
			kept = append(kept, p)
		}
	}
	return kept
}

// refineScratch holds the buffers one refinement reuses across its
// iterations: the plays surviving the filter, and two float buffers that
// serve first as the overlap graph's sorted endpoints, then as the medians'
// inputs.
type refineScratch struct {
	kept         []play.Play
	starts, ends []float64
}

// graphCentre returns the index of the play that overlaps the most others —
// the highest-degree node of Section V-C's overlap graph, ties going to the
// earliest play. It never builds the graph: once every start and every end
// is sorted, a span with Start ≤ End overlaps all spans but those starting
// after its end and those ending before its start, and no span does both, so
//
//	degree(i) = |{j : start_j ≤ end_i}| − |{j : end_j < start_i}| − 1
//
// (the −1 is the span itself; touching endpoints overlap, as in
// Play.Overlaps). That argument needs Start ≤ End on both sides, so the
// spans for which it fails (inverted, or a NaN position) stay out of the
// sorted arrays and are compared with every other play directly. plays must
// not be empty.
func (s *refineScratch) graphCentre(plays []play.Play) int {
	s.starts = slices.Grow(s.starts[:0], len(plays))
	s.ends = slices.Grow(s.ends[:0], len(plays))
	var bad []int
	for i, p := range plays {
		if p.Start <= p.End {
			s.starts = append(s.starts, p.Start)
			s.ends = append(s.ends, p.End)
		} else {
			bad = append(bad, i)
		}
	}
	slices.Sort(s.starts)
	slices.Sort(s.ends)
	centre, best := 0, -1
	for i, p := range plays {
		degree := 0
		if p.Start <= p.End {
			startsBy := sort.Search(len(s.starts), func(k int) bool { return s.starts[k] > p.End })
			endsBefore := sort.SearchFloat64s(s.ends, p.Start)
			degree = startsBy - endsBefore - 1
			for _, b := range bad {
				if p.Overlaps(plays[b]) {
					degree++
				}
			}
		} else {
			for j, q := range plays {
				if j != i && p.Overlaps(q) {
					degree++
				}
			}
		}
		if degree > best {
			centre, best = i, degree
		}
	}
	return centre
}

// medianInPlace sorts xs, which must not be empty, and returns its median:
// stats.Median without the copy.
func medianInPlace(xs []float64) float64 {
	slices.Sort(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	// Halve before adding so the midpoint cannot overflow at float64 extremes.
	return float64(xs[n/2-1]/2) + float64(xs[n/2]/2)
}

// StepResult records one refinement iteration for diagnostics and the
// iteration-series experiments (Figure 8).
type StepResult struct {
	Iteration int
	Dot       float64   // red dot used this iteration
	Plays     int       // plays surviving the filter
	Class     TypeClass // classifier verdict
	Refined   Interval  // highlight boundary after aggregation
	Converged bool
}

// Step runs one iteration of Algorithm 2's body over already-collected
// plays: filter, classify, aggregate. h.Start acts as the red dot.
func (e *Extractor) Step(h Interval, plays []play.Play) StepResult {
	var s refineScratch
	return e.step(h, plays, &s)
}

// step is Step on the caller's scratch: O(plays) to filter, O(n log n) in
// the n plays near the dot to aggregate, and no allocation once the scratch
// has grown to fit.
func (e *Extractor) step(h Interval, plays []play.Play, s *refineScratch) StepResult {
	dot := h.Start
	if s.kept == nil {
		// Size the buffer to what this dot keeps: a video's plays
		// outnumber those near one dot several times over.
		lo, hi := dot-e.cfg.Delta, dot+e.cfg.Delta
		n := 0
		for i := range plays {
			if e.keeps(&plays[i], lo, hi) {
				n++
			}
		}
		s.kept = make([]play.Play, 0, n)
	}
	s.kept = e.appendFiltered(s.kept[:0], plays, dot)
	filtered := s.kept
	f := ExtractTypeFeatures(filtered, dot)
	class := e.classifier.Classify(f)

	res := StepResult{Dot: dot, Plays: len(filtered), Class: class}
	if class == TypeII {
		// Drop plays that end before the dot and graph outliers, then take
		// medians. Outlier removal is skipped for groups of at most two.
		centre := -1
		if len(filtered) > 2 {
			centre = s.graphCentre(filtered)
		}
		starts, ends := s.starts[:0], s.ends[:0]
		for i, p := range filtered {
			inlier := centre < 0 || i == centre || p.Overlaps(filtered[centre])
			if inlier && p.End >= dot {
				starts = append(starts, p.Start)
				ends = append(ends, p.End)
			}
		}
		s.starts, s.ends = starts, ends
		if len(starts) == 0 {
			// Classifier said usable but every play preceded the dot;
			// treat as no movement rather than inventing a boundary.
			res.Refined = h
			res.Converged = true
			return res
		}
		start := medianInPlace(starts)
		end := medianInPlace(ends)
		if end <= start {
			end = start + e.cfg.DefaultSpan
		}
		res.Refined = Interval{Start: start, End: end}
		res.Converged = abs(start-dot) < e.cfg.Epsilon
	} else {
		// Type I: move the dot backward by m and try again.
		start := dot - e.cfg.MoveBack
		if start < 0 {
			start = 0
		}
		res.Refined = Interval{Start: start, End: h.End}
		res.Converged = false
	}
	return res
}

// InteractionSource supplies fresh play data for a red dot position. In
// production this is the platform's interaction log; in experiments it is
// the simulated crowd.
type InteractionSource interface {
	Interactions(dot float64) []play.Play
}

// Refine runs the full iterative loop of Algorithm 2: collect interactions
// at the current dot, step, and repeat until the dot converges or the
// iteration budget is exhausted. It returns the refined boundary and the
// per-iteration trace.
func (e *Extractor) Refine(h Interval, source InteractionSource) (Interval, []StepResult) {
	if h.End <= h.Start {
		h.End = h.Start + e.cfg.DefaultSpan
	}
	var trace []StepResult
	var s refineScratch
	for iter := 0; iter < e.cfg.MaxIterations; iter++ {
		plays := source.Interactions(h.Start)
		res := e.step(h, plays, &s)
		res.Iteration = iter
		trace = append(trace, res)
		h = res.Refined
		if res.Converged {
			break
		}
	}
	return h, trace
}

// HighlightResult is one extracted highlight: where the initializer put the
// red dot, the boundary the extractor converged to, and the refinement
// trace.
type HighlightResult struct {
	Dot      RedDot
	Boundary Interval
	Trace    []StepResult
}
