package experiments

import (
	"fmt"

	"lightor/internal/core"
	"lightor/internal/crowd"
	"lightor/internal/eval"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// AblationResult quantifies how much each LIGHTOR design choice
// contributes. Every row disables exactly one mechanism and reports the
// end-to-end precision that remains.
type AblationResult struct {
	Rows []AblationRow
	K    int
}

// AblationRow is one ablation configuration and its measured precision.
// DotStartP is the precision of the red dots BEFORE refinement; StartP and
// EndP are the end-to-end boundary precisions after refinement. Comparing
// the two columns shows how much the extractor repairs.
type AblationRow struct {
	Name         string
	DotStartP    float64
	StartP, EndP float64
}

// alwaysTypeII disables the Type I/II classification: every red dot is
// trusted as usable and aggregated immediately.
type alwaysTypeII struct{}

func (alwaysTypeII) Classify(core.TypeFeatures) core.TypeClass { return core.TypeII }

// Ablations measures the initializer's adjustment stage and the
// extractor's three stages by knocking them out one at a time:
//
//	full            — the complete system;
//	no adjustment   — c forced to 0: red dots sit on chat peaks (the naive
//	                  implementation of Section IV-C1);
//	no filtering    — the extractor aggregates raw plays;
//	no classifier   — every dot treated as Type II (no backward walking);
//	mean aggregation— medians replaced by means (outlier-sensitive).
func Ablations(cfg Config) (*AblationResult, error) {
	train, test := cfg.dotaData()
	if len(test) > cfg.ExtractVideos {
		test = test[:cfg.ExtractVideos]
	}
	const k = 5
	res := &AblationResult{K: k}

	init, err := trainInitializer(core.FeaturesFull, train)
	if err != nil {
		return nil, fmt.Errorf("ablations: %w", err)
	}

	type variant struct {
		name       string
		zeroDelay  bool
		noFilter   bool
		classifier core.TypeClassifier
		useMean    bool
	}
	variants := []variant{
		{name: "full"},
		{name: "no adjustment (c=0)", zeroDelay: true},
		{name: "no filtering", noFilter: true},
		{name: "no classification (all Type II)", classifier: alwaysTypeII{}},
		{name: "mean aggregation", useMean: true},
	}

	for _, v := range variants {
		pool := crowd.NewPool(cfg.Seed+21, cfg.PoolWorkers)
		ext, err := core.NewExtractor(core.DefaultExtractorConfig(), v.classifier)
		if err != nil {
			return nil, fmt.Errorf("ablations (%s): %w", v.name, err)
		}
		var dotMean, startMean, endMean eval.Mean
		for _, d := range test {
			dots, err := init.Detect(d.Chat.Log, d.Video.Duration, k)
			if err != nil {
				return nil, fmt.Errorf("ablations (%s): %w", v.name, err)
			}
			var dotStarts, starts, ends []float64
			for _, dot := range dots {
				dotTime := dot.Time
				if v.zeroDelay {
					dotTime = dot.Peak // undo the adjustment
				}
				dotStarts = append(dotStarts, dotTime)
				h := core.Interval{Start: dotTime, End: dotTime + ext.Config().DefaultSpan}
				for iter := 0; iter < cfg.Iterations; iter++ {
					task, err := crowd.NewTask(d.Video, h.Start)
					if err != nil {
						return nil, fmt.Errorf("ablations (%s): %w", v.name, err)
					}
					plays := crowd.Plays(pool.Collect(task, cfg.ResponsesPerTask))
					step := ablationStep(ext, h, plays, v.noFilter, v.useMean)
					h = step.Refined
					if step.Converged {
						break
					}
				}
				starts = append(starts, h.Start)
				ends = append(ends, h.End)
			}
			dotMean.Add(eval.StartPrecisionAtK(dotStarts, d.Video.Highlights, k))
			startMean.Add(eval.StartPrecisionAtK(starts, d.Video.Highlights, k))
			endMean.Add(eval.EndPrecisionAtK(ends, d.Video.Highlights, k))
		}
		res.Rows = append(res.Rows, AblationRow{
			Name:      v.name,
			DotStartP: dotMean.Value(),
			StartP:    startMean.Value(),
			EndP:      endMean.Value(),
		})
	}
	return res, nil
}

// ablationStep runs one extractor step with the requested knockouts.
func ablationStep(ext *core.Extractor, h core.Interval, plays []play.Play, noFilter, useMean bool) core.StepResult {
	if !noFilter && !useMean {
		return ext.Step(h, plays)
	}
	dot := h.Start
	filtered := plays
	if !noFilter {
		filtered = ext.Filter(plays, dot)
	} else {
		filtered = play.Near(plays, dot, ext.Config().Delta)
	}
	f := core.ExtractTypeFeatures(filtered, dot)
	class := core.RuleTypeClassifier{}.Classify(f)
	res := core.StepResult{Dot: dot, Plays: len(filtered), Class: class}
	if class == core.TypeI {
		start := dot - ext.Config().MoveBack
		if start < 0 {
			start = 0
		}
		res.Refined = core.Interval{Start: start, End: h.End}
		return res
	}
	var kept []play.Play
	candidates := filtered
	if !noFilter {
		candidates = ext.RemoveOutliers(filtered)
	}
	for _, p := range candidates {
		if p.End >= dot {
			kept = append(kept, p)
		}
	}
	if len(kept) == 0 {
		res.Refined = h
		res.Converged = true
		return res
	}
	var start, end float64
	if useMean {
		start = stats.Mean(play.Starts(kept))
		end = stats.Mean(play.Ends(kept))
	} else {
		start = stats.Median(play.Starts(kept))
		end = stats.Median(play.Ends(kept))
	}
	if end <= start {
		end = start + ext.Config().DefaultSpan
	}
	res.Refined = core.Interval{Start: start, End: end}
	res.Converged = abs(start-dot) < ext.Config().Epsilon
	return res
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// Render prints the ablation table.
func (r *AblationResult) Render() string {
	rows := make([][]string, 0, len(r.Rows))
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Name,
			fmt.Sprintf("%.3f", row.DotStartP),
			fmt.Sprintf("%.3f", row.StartP),
			fmt.Sprintf("%.3f", row.EndP),
		})
	}
	return renderTable(
		fmt.Sprintf("Ablations: precision@%d with one mechanism removed", r.K),
		[]string{"configuration", "dot P@K (pre-refine)", "P@K (start)", "P@K (end)"},
		rows,
	)
}

// ClassifierAccuracyResult measures the Type I/II classifiers against
// labeled simulated dot placements. The paper reports ≈80% accuracy for
// its learned classifier (Section V-C).
type ClassifierAccuracyResult struct {
	RuleAccuracy    float64
	LearnedAccuracy float64
	Samples         int
}

// ClassifierAccuracy generates labeled (features, type) samples from
// simulated crowds at known dot placements, trains the learned classifier
// on half, and evaluates both classifiers on the other half.
func ClassifierAccuracy(cfg Config) (*ClassifierAccuracyResult, error) {
	rng := stats.NewRand(cfg.Seed + 31)
	p := sim.Dota2Profile()
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		return nil, fmt.Errorf("classifier accuracy: %w", err)
	}

	var features []core.TypeFeatures
	var labels []core.TypeClass
	for i := 0; i < cfg.ExtractVideos*3; i++ {
		v := sim.GenerateVideo(rng, p, fmt.Sprintf("ca-%d", i))
		for _, h := range v.Highlights {
			// One Type II and one Type I placement per highlight.
			for _, c := range []struct {
				dot   float64
				class core.TypeClass
			}{
				{h.Start - 5, core.TypeII},
				{h.End + stats.Uniform(rng, 5, 25), core.TypeI},
			} {
				plays := sim.SimulateCrowd(rng, cfg.ResponsesPerTask, v, c.dot, h, sim.DefaultViewerBehavior())
				filtered := ext.Filter(plays, c.dot)
				features = append(features, core.ExtractTypeFeatures(filtered, c.dot))
				labels = append(labels, c.class)
			}
		}
	}
	if len(features) < 8 {
		return nil, fmt.Errorf("classifier accuracy: only %d samples", len(features))
	}
	half := len(features) / 2
	learned, err := core.TrainTypeClassifier(features[:half], labels[:half])
	if err != nil {
		return nil, err
	}
	rule := core.RuleTypeClassifier{}

	var ruleOK, learnedOK int
	test := features[half:]
	testLabels := labels[half:]
	for i, f := range test {
		if rule.Classify(f) == testLabels[i] {
			ruleOK++
		}
		if learned.Classify(f) == testLabels[i] {
			learnedOK++
		}
	}
	n := len(test)
	return &ClassifierAccuracyResult{
		RuleAccuracy:    float64(ruleOK) / float64(n),
		LearnedAccuracy: float64(learnedOK) / float64(n),
		Samples:         n,
	}, nil
}

// Render prints the classifier comparison.
func (r *ClassifierAccuracyResult) Render() string {
	return renderTable(
		fmt.Sprintf("Type I/II classifier accuracy on %d held-out dots (paper: ≈0.80)", r.Samples),
		[]string{"classifier", "accuracy"},
		[][]string{
			{"rule-based (threshold)", fmt.Sprintf("%.3f", r.RuleAccuracy)},
			{"learned (logistic regression)", fmt.Sprintf("%.3f", r.LearnedAccuracy)},
		},
	)
}

// WindowSweepResult measures Chat Precision@10 across window sizes,
// justifying the paper's 25 s default.
type WindowSweepResult struct {
	Curve eval.Series // x = window seconds, y = precision@10
}

// WindowSweep trains and evaluates the initializer at several window sizes.
func WindowSweep(cfg Config) (*WindowSweepResult, error) {
	train, test := cfg.dotaData()
	res := &WindowSweepResult{}
	res.Curve.Name = fmt.Sprintf("Chat Precision@%d", cfg.KMax)
	for _, size := range []float64{10, 25, 50, 75} {
		icfg := core.DefaultInitializerConfig()
		icfg.WindowSize = size
		icfg.WindowStride = size
		init, err := core.NewInitializer(icfg)
		if err != nil {
			return nil, fmt.Errorf("window sweep (%g s): %w", size, err)
		}
		if err := init.Train(trainingVideos(init, train)); err != nil {
			return nil, fmt.Errorf("window sweep (%g s): %w", size, err)
		}
		s, err := chatPrecisionCurve(init, test, cfg.KMax)
		if err != nil {
			return nil, err
		}
		res.Curve.Append(size, s.Y[s.Len()-1])
	}
	return res, nil
}

// Render prints the sweep.
func (r *WindowSweepResult) Render() string {
	return renderSeries("Window-size sweep (paper default: 25 s)",
		"window (s)", []eval.Series{r.Curve})
}

// DeltaSweepResult measures Video Precision@10 (start) across red-dot
// separation distances δ, justifying the paper's 120 s default: small δ
// lets one highlight hog several dots; large δ forbids legitimately close
// highlights.
type DeltaSweepResult struct {
	Curve eval.Series // x = δ seconds, y = start precision@10
}

// DeltaSweep trains once and evaluates detection at several separations.
func DeltaSweep(cfg Config) (*DeltaSweepResult, error) {
	train, test := cfg.dotaData()
	res := &DeltaSweepResult{}
	res.Curve.Name = fmt.Sprintf("Video Precision@%d (start)", cfg.KMax)
	for _, delta := range []float64{30, 60, 120, 240} {
		icfg := core.DefaultInitializerConfig()
		icfg.MinSeparation = delta
		init, err := core.NewInitializer(icfg)
		if err != nil {
			return nil, fmt.Errorf("delta sweep (%g s): %w", delta, err)
		}
		if err := init.Train(trainingVideos(init, train)); err != nil {
			return nil, fmt.Errorf("delta sweep (%g s): %w", delta, err)
		}
		s, err := startPrecisionCurve(lightorStarts(init), test, cfg.KMax)
		if err != nil {
			return nil, err
		}
		res.Curve.Append(delta, s.Y[s.Len()-1])
	}
	return res, nil
}

// Render prints the sweep.
func (r *DeltaSweepResult) Render() string {
	return renderSeries("Red-dot separation (δ) sweep (paper default: 120 s)",
		"δ (s)", []eval.Series{r.Curve})
}
