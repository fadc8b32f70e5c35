package core_test

// Randomized invariant tests: for arbitrary simulation seeds, the
// initializer and extractor must uphold their structural guarantees
// regardless of what the data looks like.

import (
	"slices"
	"testing"

	"lightor/internal/core"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

func TestDetectInvariantsAcrossSeeds(t *testing.T) {
	for seed := int64(500); seed < 506; seed++ {
		rng := stats.NewRand(seed)
		data := sim.GenerateDataset(rng, sim.Dota2Profile(), 2)
		init := mustNewInitializer(t, core.DefaultInitializerConfig())
		if err := init.Train(trainingVideos(t, init, data[:1])); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		target := data[1]
		dots, err := init.Detect(target.Chat.Log, target.Video.Duration, 10)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		for i, d := range dots {
			// Dots stay inside the video.
			if d.Time < 0 || d.Time > target.Video.Duration {
				t.Errorf("seed %d: dot %d at %g outside video [0, %g]",
					seed, i, d.Time, target.Video.Duration)
			}
			// Peaks sit inside their windows.
			if d.Peak < d.Window.Start || d.Peak > d.Window.End {
				t.Errorf("seed %d: dot %d peak %g outside window %v",
					seed, i, d.Peak, d.Window)
			}
			// Scores are probabilities, descending.
			if d.Score < 0 || d.Score > 1 {
				t.Errorf("seed %d: dot %d score %g not a probability", seed, i, d.Score)
			}
			if i > 0 && d.Score > dots[i-1].Score {
				t.Errorf("seed %d: scores not descending at %d", seed, i)
			}
			// Separation.
			for j := 0; j < i; j++ {
				diff := d.Time - dots[j].Time
				if diff < 0 {
					diff = -diff
				}
				if diff <= 120 {
					t.Errorf("seed %d: dots %d and %d too close (%.1fs)", seed, i, j, diff)
				}
			}
		}
	}
}

func TestRefineInvariantsAcrossSeeds(t *testing.T) {
	ext := mustNewExtractor(t, core.DefaultExtractorConfig(), nil)
	for seed := int64(600); seed < 608; seed++ {
		rng := stats.NewRand(seed)
		p := sim.Dota2Profile()
		v := sim.GenerateVideo(rng, p, "prop")
		h := v.Highlights[0]
		// Sweep dot placements across the whole Type I/II spectrum.
		for _, offset := range []float64{-30, -5, 0, 10, 25, 60} {
			dot := h.Start + offset
			if dot < 0 {
				dot = 0
			}
			src := &propSource{rng: rng, video: v, h: h}
			got, trace := ext.Refine(core.Interval{Start: dot, End: dot + 30}, src)
			if got.End < got.Start {
				t.Errorf("seed %d offset %g: inverted boundary %v", seed, offset, got)
			}
			if got.Start < 0 {
				t.Errorf("seed %d offset %g: negative start %v", seed, offset, got)
			}
			if len(trace) == 0 || len(trace) > 10 {
				t.Errorf("seed %d offset %g: trace length %d", seed, offset, len(trace))
			}
			for i, step := range trace {
				if step.Iteration != i {
					t.Errorf("seed %d: trace iteration %d labeled %d", seed, i, step.Iteration)
				}
			}
			// Converged traces end with a Type II verdict or an empty
			// consensus; a Type I verdict never converges.
			last := trace[len(trace)-1]
			if last.Converged && last.Class == core.TypeI {
				t.Errorf("seed %d offset %g: converged on Type I", seed, offset)
			}
		}
	}
}

// propSource simulates a fresh crowd at every refinement iteration.
type propSource struct {
	rng   interface{ Int63() int64 }
	video sim.Video
	h     core.Interval
}

func (s *propSource) Interactions(dot float64) []play.Play {
	return sim.SimulateCrowd(stats.NewRand(s.rng.Int63()), 10, s.video, dot, s.h, sim.DefaultViewerBehavior())
}

func TestStepDeterministic(t *testing.T) {
	ext := mustNewExtractor(t, core.DefaultExtractorConfig(), nil)
	rng := stats.NewRand(700)
	v := sim.GenerateVideo(rng, sim.Dota2Profile(), "det")
	h := v.Highlights[0]
	plays := sim.SimulateCrowd(rng, 20, v, h.Start-5, h, sim.DefaultViewerBehavior())
	seed := core.Interval{Start: h.Start - 5, End: h.Start + 25}
	a := ext.Step(seed, plays)
	b := ext.Step(seed, plays)
	if a != b {
		t.Errorf("Step not deterministic: %+v vs %+v", a, b)
	}
}

// TestDetectPrefixClosed: Detect picks windows greedily in score order and
// k only ends the loop, so asking for k dots returns exactly the first k of
// an unbounded detection. The server relies on this to extend stored
// (possibly refined) dots when a larger k is asked for.
func TestDetectPrefixClosed(t *testing.T) {
	for _, profile := range []sim.Profile{sim.Dota2Profile(), sim.LoLProfile()} {
		for seed := int64(700); seed < 703; seed++ {
			rng := stats.NewRand(seed)
			data := sim.GenerateDataset(rng, profile, 2)
			init := mustNewInitializer(t, core.DefaultInitializerConfig())
			if err := init.Train(trainingVideos(t, init, data[:1])); err != nil {
				t.Fatalf("%s seed %d: %v", profile.Game, seed, err)
			}
			log, duration := data[1].Chat.Log, data[1].Video.Duration
			all, err := init.Detect(log, duration, 1<<20)
			if err != nil {
				t.Fatalf("%s seed %d: %v", profile.Game, seed, err)
			}
			if len(all) < 2 {
				t.Fatalf("%s seed %d: %d dots, too few to test a prefix", profile.Game, seed, len(all))
			}
			for k := 1; k <= len(all); k++ {
				dots, err := init.Detect(log, duration, k)
				if err != nil {
					t.Fatalf("%s seed %d k=%d: %v", profile.Game, seed, k, err)
				}
				if !slices.Equal(dots, all[:k]) {
					t.Fatalf("%s seed %d: Detect(k=%d) = %+v, want the first %d of %+v", profile.Game, seed, k, dots, k, all)
				}
			}
		}
	}
}
