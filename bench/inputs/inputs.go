// Package inputs builds everything the benchmark feeds the system — and the
// results the system must give back — from one seed. Both binaries use it:
// the black-box harness (bench/) and the white-box layer probes
// (bench/layers), so the probes replay byte-for-byte the bodies the
// end-to-end run sends.
//
// It imports only the root lightor facade and the generator-side packages
// (sim, stats, chat, play); nothing here knows how the server is built.
package inputs

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"hash"
	"math/rand"

	"lightor"
	"lightor/internal/chat"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// Seeds. DefaultSeed is the one numbers are quoted at; HeldOutSeed is for
// checking that a claim made at the default seed was not fitted to it.
const (
	DefaultSeed = 20200420
	HeldOutSeed = 19101220
)

// ServerTrainVideos is cmd/lightor-server's -train default; the reference
// detector must train on the same number of simulated videos.
const ServerTrainVideos = 3

// ServerSeed is the -seed every server runs with, whatever the run's seed:
// it decides which model the server trains and which recorded videos it
// crawls at start-up, and those are the system's configuration. The run's
// seed draws the traffic — broadcasts, schedules, viewer events, the batch
// corpus — and the program receives nothing of it but those inputs. (With
// the run's seed handed to the server, set-up time and the cost of a
// message moved with the seed: another model, other videos to crawl.)
const ServerSeed = 1

// Reference is the in-process serial detector every served result is
// checked against: the lightor facade trained by cmd/lightor-server's
// recipe (same seed, same simulated labeled videos), so its dots are the
// dots a correct server must serve.
type Reference struct {
	Det *lightor.Detector
	// rng continues the server's seed sequence past training, which is
	// where the server draws its crawled videos from (see Crawl).
	rng *rand.Rand
}

// NewReference trains the reference the way cmd/lightor-server -seed
// ServerSeed -game dota2 -train ServerTrainVideos trains its detector.
func NewReference() (*Reference, error) {
	profile := sim.Dota2Profile()
	rng := stats.NewRand(ServerSeed)
	det, err := lightor.New(lightor.Options{Features: lightor.FeaturesFull})
	if err != nil {
		return nil, err
	}
	data := sim.GenerateDataset(rng, profile, ServerTrainVideos)
	tvs := make([]lightor.TrainingVideo, len(data))
	for i, d := range data {
		msgs := d.Chat.Log.Messages()
		spans := det.Windows(msgs, d.Video.Duration)
		ws := make([]chat.Window, len(spans))
		for j, s := range spans {
			ws[j] = chat.Window{Start: s.Start, End: s.End}
		}
		tvs[i] = det.NewTrainingVideo(msgs, d.Video.Duration, sim.LabelWindows(ws, d.Chat.Bursts), d.Video.Highlights)
	}
	if err := det.Train(tvs); err != nil {
		return nil, fmt.Errorf("training the reference detector: %w", err)
	}
	return &Reference{Det: det, rng: rng}, nil
}

// Video is one recorded video the server crawls at start-up, regenerated
// here from the same seed sequence.
type Video struct {
	Sim      sim.Video
	Messages []lightor.Message
}

// Crawl regenerates the videos cmd/lightor-server -channels c -videos v
// registers with its simulated platform, in crawl order. It consumes the
// reference's seed sequence, so call it once, right after NewReference.
func (r *Reference) Crawl(channels, videos int) []Video {
	profile := sim.Dota2Profile()
	out := make([]Video, 0, channels*videos)
	for c := 0; c < channels; c++ {
		for v := 0; v < videos; v++ {
			vid := sim.GenerateVideo(r.rng, profile, fmt.Sprintf("c%dv%d", c, v))
			cr := sim.GenerateChat(r.rng, vid, profile)
			stats.IntBetween(r.rng, 200, 5000) // the server draws a viewer count here
			out = append(out, Video{Sim: vid, Messages: cr.Log.Messages()})
		}
	}
	return out
}

// spread fixes a profile's video length at the i-th of n evenly spaced points
// of its own range. A seed then decides what happens in a broadcast but not
// how long the broadcasts are, so the amount of work in a workload — and
// with it every per-video time — does not move with the seed.
func spread(p sim.Profile, i, n int) sim.Profile {
	d := p.MinDuration + (p.MaxDuration-p.MinDuration)*(float64(i)+0.5)/float64(n)
	p.MinDuration, p.MaxDuration = d, d
	return p
}

// SparseProfile is sim's Dota2 chat as is: ≈0.15 msg/s ambient, so a
// 256-message batch spans ~25 detector windows and most batches finalize
// dots.
func SparseProfile() sim.Profile { return sim.Dota2Profile() }

// DenseProfile is the same stream shape with 20× the chat: most messages
// land in the already-open window, the detector's steady-state path.
func DenseProfile() sim.Profile {
	p := sim.Dota2Profile()
	p.BackgroundRate *= 20
	p.BurstMin *= 20
	p.BurstMax *= 20
	return p
}

// Stream is one live broadcast, pre-cut into request bodies, with the
// reference result after every body.
type Stream struct {
	Dense    bool
	Messages int
	// Bodies are the POST /api/live/chat payloads in feed order; BodyMsgs
	// the message count of each.
	Bodies   [][]byte
	BodyMsgs []int
	// After[i] is the number of dots the reference has emitted once body i
	// is fed. Dots is the full emission history including the dots the
	// closing flush finalizes, so after body i a correct server serves
	// exactly Dots[:After[i]], and a closed session returns Dots.
	After []int
	Dots  []lightor.RedDot
}

// NewStream simulates one broadcast under profile, cuts its chat into
// batch-message bodies and runs the reference over it.
func (r *Reference) NewStream(rng *rand.Rand, profile sim.Profile, dense bool, batch int) (*Stream, error) {
	vid := sim.GenerateVideo(rng, profile, "live")
	msgs := sim.GenerateChat(rng, vid, profile).Log.Messages()
	sess, err := r.Det.NewOnlineSession(0)
	if err != nil {
		return nil, err
	}
	sess.SetWarmup(0) // the servers run with -warmup -1
	s := &Stream{Dense: dense, Messages: len(msgs)}
	emitted := 0
	for lo := 0; lo < len(msgs); lo += batch {
		hi := min(lo+batch, len(msgs))
		body, err := json.Marshal(msgs[lo:hi])
		if err != nil {
			return nil, err
		}
		for _, m := range msgs[lo:hi] {
			dots, err := sess.Feed(m)
			if err != nil {
				return nil, err
			}
			emitted += len(dots)
		}
		s.Bodies = append(s.Bodies, body)
		s.BodyMsgs = append(s.BodyMsgs, hi-lo)
		s.After = append(s.After, emitted)
	}
	sess.Flush()
	s.Dots = sess.Emitted()
	if len(s.Dots) == 0 {
		return nil, fmt.Errorf("simulated stream (%d messages) emits no dot: the workload would measure nothing", len(msgs))
	}
	return s, nil
}

// Trigger returns, for each dot j a body finalizes, the index of that body
// — the "last contributing input" freshness is timed from. Dots finalized
// only by the closing flush have no trigger body and are left out.
func (s *Stream) Trigger() []int {
	last := 0
	if n := len(s.After); n > 0 {
		last = s.After[n-1]
	}
	trig := make([]int, last)
	j := 0
	for b, after := range s.After {
		for ; j < after; j++ {
			trig[j] = b
		}
	}
	return trig
}

// Digest accumulates a SHA-256 over the pre-encoded inputs (or over
// results) of a run, so drift in the generators or in what the system
// computes is caught instead of silently changing the workload.
type Digest struct{ h hash.Hash }

func NewDigest() *Digest { return &Digest{h: sha256.New()} }

// Add folds one length-prefixed item in.
func (d *Digest) Add(b []byte) {
	var n [8]byte
	for i, v := 0, uint64(len(b)); i < 8; i, v = i+1, v>>8 {
		n[i] = byte(v)
	}
	d.h.Write(n[:])
	d.h.Write(b)
}

// AddJSON folds in the JSON encoding of v.
func (d *Digest) AddJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("inputs: digesting %T: %v", v, err)) // plain structs of floats and strings
	}
	d.Add(b)
}

func (d *Digest) Hex() string { return hex.EncodeToString(d.h.Sum(nil)) }

// SameDots reports whether the served dots equal the reference's, exactly:
// both sides ran the same arithmetic on the same inputs and JSON round-trips
// float64 losslessly.
func SameDots(got, want []lightor.RedDot) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}
