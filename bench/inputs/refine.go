package inputs

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"lightor"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// Shape of the viewer-interaction traffic of vod-refine: a round on a video
// is RefinePostsPerRound POSTs of RefineEventsPerPost events each, and
// RefinePoolRounds distinct rounds per video are encoded at set-up and
// cycled during the run.
const (
	RefinePostsPerRound = 16
	RefineEventsPerPost = 64
	RefinePoolRounds    = 4
	RefineK             = 5 // red dots per video
)

// RefineVideo is one stored video with its pool of interaction rounds.
type RefineVideo struct {
	ID       string
	Duration float64
	// Dots are the reference detector's red dots, what a correct server
	// serves before any refinement.
	Dots []lightor.RedDot
	// Pool[round][post] are the pre-encoded POST /api/interactions bodies;
	// Events[round] the same events, decoded, for the reference.
	Pool   [][][]byte
	Events [][]lightor.Event
}

// RefineVideos builds every video's pool of event rounds: viewers simulated
// by sim.SimulateViewer around each of the video's reference red dots,
// against a fabricated true highlight 5–40 s to either side of the dot, so
// dots that overshoot (Type I) and dots that are usable (Type II) both
// occur. Every body is folded into dig.
func (r *Reference) RefineVideos(vids []Video, seed int64, dig *Digest) ([]*RefineVideo, error) {
	rng := stats.NewRand(seed + 3)
	behavior := sim.DefaultViewerBehavior()
	out := make([]*RefineVideo, len(vids))
	for vi, v := range vids {
		dots, err := r.Det.DetectRedDots(v.Messages, v.Sim.Duration, RefineK)
		if err != nil {
			return nil, err
		}
		if len(dots) == 0 {
			return nil, fmt.Errorf("video %s has no red dot to refine", v.Sim.ID)
		}
		truths := make([]lightor.Interval, len(dots))
		for i, d := range dots {
			truths[i] = FabricateTruth(rng, d.Time, v.Sim.Duration)
		}
		rv := &RefineVideo{ID: v.Sim.ID, Duration: v.Sim.Duration, Dots: dots}
		const perRound = RefinePostsPerRound * RefineEventsPerPost
		for round := 0; round < RefinePoolRounds; round++ {
			var events []lightor.Event
			for n := 0; len(events) < perRound; n++ {
				i := n % len(dots)
				user := fmt.Sprintf("v%dr%dn%d", vi, round, n)
				events = append(events, sim.SimulateViewer(rng, user, v.Sim, dots[i].Time, truths[i], behavior)...)
			}
			events = events[:perRound]
			bodies := make([][]byte, RefinePostsPerRound)
			for p := range bodies {
				b, err := json.Marshal(events[p*RefineEventsPerPost : (p+1)*RefineEventsPerPost])
				if err != nil {
					return nil, err
				}
				bodies[p] = b
				dig.Add(b)
			}
			rv.Pool = append(rv.Pool, bodies)
			rv.Events = append(rv.Events, events)
		}
		out[vi] = rv
	}
	return out, nil
}

// FabricateTruth places a "true" highlight near a red dot: half the time it
// ends 5–40 s before the dot (the dot overshot: Type I), half the time it
// starts 5–40 s after it (within a viewer's reach: Type II).
func FabricateTruth(rng *rand.Rand, dot, duration float64) lightor.Interval {
	gap := stats.Uniform(rng, 5, 40)
	length := stats.Uniform(rng, 10, 40)
	var h lightor.Interval
	if rng.Intn(2) == 0 {
		h = lightor.Interval{Start: dot - gap - length, End: dot - gap}
	} else {
		h = lightor.Interval{Start: dot + gap, End: dot + gap + length}
	}
	h.Start = stats.Clamp(h.Start, 0, duration-1)
	h.End = stats.Clamp(h.End, h.Start+1, duration)
	return h
}
