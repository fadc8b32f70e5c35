package core_test

// External test package: exercises the Initializer end-to-end against
// simulated Twitch data (sim imports core, so these tests cannot live in
// package core).

import (
	"math/rand"
	"testing"

	"lightor/internal/core"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

func trainingVideos(t *testing.T, init *core.Initializer, data []sim.VideoData) []core.TrainingVideo {
	t.Helper()
	out := make([]core.TrainingVideo, len(data))
	for i, d := range data {
		ws := init.Windows(d.Chat.Log, d.Video.Duration)
		out[i] = core.TrainingVideo{
			Log:        d.Chat.Log,
			Duration:   d.Video.Duration,
			Labels:     sim.LabelWindows(ws, d.Chat.Bursts),
			Highlights: d.Video.Highlights,
		}
	}
	return out
}

func TestInitializerTrainAndDetect(t *testing.T) {
	rng := stats.NewRand(100)
	profile := sim.Dota2Profile()
	data := sim.GenerateDataset(rng, profile, 6)

	init := mustNewInitializer(t, core.DefaultInitializerConfig())
	if err := init.Train(trainingVideos(t, init, data[:2])); err != nil {
		t.Fatal(err)
	}

	// Learned delay should approximate the simulated reaction delay.
	if c := init.DelayC(); c < 18 || c > 32 {
		t.Errorf("learned delay c = %d, want ≈%g", c, profile.ReactionDelayMean)
	}

	// Detection quality on held-out videos: most red dots should be good.
	good, total := 0, 0
	for _, d := range data[2:] {
		dots, err := init.Detect(d.Chat.Log, d.Video.Duration, 5)
		if err != nil {
			t.Fatal(err)
		}
		if len(dots) == 0 {
			t.Fatal("no dots detected")
		}
		for _, dot := range dots {
			total++
			if core.IsGoodStartAmong(dot.Time, d.Video.Highlights) {
				good++
			}
		}
	}
	if prec := float64(good) / float64(total); prec < 0.6 {
		t.Errorf("held-out precision@5 = %.2f (%d/%d), want >= 0.6", prec, good, total)
	}
}

func TestInitializerRespectsSeparation(t *testing.T) {
	rng := stats.NewRand(101)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 2)
	init := mustNewInitializer(t, core.DefaultInitializerConfig())
	if err := init.Train(trainingVideos(t, init, data[:1])); err != nil {
		t.Fatal(err)
	}
	dots, err := init.Detect(data[1].Chat.Log, data[1].Video.Duration, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := range dots {
		for j := i + 1; j < len(dots); j++ {
			d := dots[i].Time - dots[j].Time
			if d < 0 {
				d = -d
			}
			if d <= 120 {
				t.Errorf("dots %d and %d only %.1fs apart (δ=120)", i, j, d)
			}
		}
	}
}

func TestInitializerScoreOrder(t *testing.T) {
	rng := stats.NewRand(102)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 2)
	init := mustNewInitializer(t, core.DefaultInitializerConfig())
	if err := init.Train(trainingVideos(t, init, data[:1])); err != nil {
		t.Fatal(err)
	}
	dots, err := init.Detect(data[1].Chat.Log, data[1].Video.Duration, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(dots); i++ {
		if dots[i].Score > dots[i-1].Score {
			t.Error("dots not in descending score order")
		}
	}
}

func TestInitializerErrors(t *testing.T) {
	init := mustNewInitializer(t, core.InitializerConfig{})
	if err := init.Train(nil); err == nil {
		t.Error("Train(nil) accepted")
	}
	if _, err := init.Detect(nil, 0, 5); err == nil {
		t.Error("Detect before Train accepted")
	}

	rng := stats.NewRand(103)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 1)
	// Mismatched labels.
	err := init.Train([]core.TrainingVideo{{
		Log:      data[0].Chat.Log,
		Duration: data[0].Video.Duration,
		Labels:   []int{1, 0},
	}})
	if err == nil {
		t.Error("mismatched label count accepted")
	}

	if err := init.Train(trainingVideos(t, init, data)); err != nil {
		t.Fatal(err)
	}
	if _, err := init.Detect(data[0].Chat.Log, data[0].Video.Duration, 0); err == nil {
		t.Error("k=0 accepted")
	}
}

func TestInitializerDelayStability(t *testing.T) {
	// Figure 7b: the learned constant stays in a tight band as training
	// size grows.
	rng := stats.NewRand(104)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 6)
	var cs []int
	for n := 1; n <= len(data); n++ {
		init := mustNewInitializer(t, core.DefaultInitializerConfig())
		if err := init.Train(trainingVideos(t, init, data[:n])); err != nil {
			t.Fatal(err)
		}
		cs = append(cs, init.DelayC())
	}
	lo, hi := cs[0], cs[0]
	for _, c := range cs {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > 8 {
		t.Errorf("learned c unstable across training sizes: %v", cs)
	}
}

func TestWorkflowEndToEnd(t *testing.T) {
	rng := stats.NewRand(105)
	profile := sim.Dota2Profile()
	data := sim.GenerateDataset(rng, profile, 3)

	init := mustNewInitializer(t, core.DefaultInitializerConfig())
	if err := init.Train(trainingVideos(t, init, data[:2])); err != nil {
		t.Fatal(err)
	}
	ext := mustNewExtractor(t, core.DefaultExtractorConfig(), nil)

	target := data[2]
	src := &crowdSource{
		rng:   stats.NewRand(9),
		video: target.Video,
	}
	// The pipeline of Figure 1, serially: red dots from the chat log, each
	// then refined against the interaction source until convergence.
	dots, err := init.Detect(target.Chat.Log, target.Video.Duration, 5)
	if err != nil {
		t.Fatal(err)
	}
	var results []core.HighlightResult
	for _, dot := range dots {
		seed := core.Interval{Start: dot.Time, End: dot.Time + ext.Config().DefaultSpan}
		boundary, trace := ext.Refine(seed, src)
		results = append(results, core.HighlightResult{Dot: dot, Boundary: boundary, Trace: trace})
	}
	if len(results) == 0 {
		t.Fatal("workflow produced no highlights")
	}
	good := 0
	for _, r := range results {
		if core.IsGoodStartAmong(r.Boundary.Start, target.Video.Highlights) {
			good++
		}
		if len(r.Trace) == 0 {
			t.Error("result missing refinement trace")
		}
	}
	if prec := float64(good) / float64(len(results)); prec < 0.6 {
		t.Errorf("end-to-end start precision = %.2f, want >= 0.6", prec)
	}
}

// crowdSource adapts the viewer simulator to core.InteractionSource.
type crowdSource struct {
	rng   *rand.Rand
	video sim.Video
}

func (c *crowdSource) Interactions(dot float64) []play.Play {
	h, ok := sim.NearestHighlight(c.video, dot)
	if !ok {
		return nil
	}
	return sim.SimulateCrowd(c.rng, 10, c.video, dot, h, sim.DefaultViewerBehavior())
}
