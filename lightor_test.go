package lightor_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"lightor"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// mustNew builds a Detector or fails the test — New validates options and
// returns an error since PR 2.
func mustNew(t testing.TB, opts lightor.Options) *lightor.Detector {
	t.Helper()
	det, err := lightor.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	return det
}

// publicTrainingData builds labeled videos through the public API only.
func publicTrainingData(t *testing.T, det *lightor.Detector, data []sim.VideoData) []lightor.TrainingVideo {
	t.Helper()
	out := make([]lightor.TrainingVideo, len(data))
	for i, d := range data {
		msgs := d.Chat.Log.Messages()
		windows := det.Windows(msgs, d.Video.Duration)
		labels := make([]int, len(windows))
		for wi, w := range windows {
			for _, b := range d.Chat.Bursts {
				if b.Peak >= w.Start && b.Peak < w.End {
					labels[wi] = 1
					break
				}
			}
		}
		out[i] = det.NewTrainingVideo(msgs, d.Video.Duration, labels, d.Video.Highlights)
	}
	return out
}

func TestPublicAPIEndToEnd(t *testing.T) {
	rng := stats.NewRand(77)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 3)

	det := mustNew(t, lightor.Options{})
	if err := det.Train(publicTrainingData(t, det, data[:2])); err != nil {
		t.Fatal(err)
	}
	if c := det.DelaySeconds(); c < 10 || c > 40 {
		t.Errorf("learned delay = %d, want ≈25", c)
	}

	target := data[2]
	dots, err := det.DetectRedDots(target.Chat.Log.Messages(), target.Video.Duration, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dots) == 0 {
		t.Fatal("no red dots")
	}

	src := &simSource{rng: stats.NewRand(5), video: target.Video}
	highlights, err := det.ExtractHighlights(target.Chat.Log.Messages(), target.Video.Duration, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	if len(highlights) == 0 {
		t.Fatal("no highlights extracted")
	}
	for _, h := range highlights {
		if h.Boundary.End <= h.Boundary.Start {
			t.Errorf("degenerate boundary %v", h.Boundary)
		}
	}

	// With a stateless source the parallel pipeline is element for element
	// the two public calls it is made of, run serially.
	fixed := fixedPlays(src.Interactions(dots[0].Time))
	got, err := det.ExtractHighlights(target.Chat.Log.Messages(), target.Video.Duration, 5, fixed)
	if err != nil {
		t.Fatal(err)
	}
	var want []lightor.Highlight
	for _, dot := range dots {
		want = append(want, det.RefineHighlight(dot, fixed))
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ExtractHighlights diverged from DetectRedDots + RefineHighlight per dot:\n got %+v\nwant %+v", got, want)
	}
}

// fixedPlays returns the same plays for any dot.
type fixedPlays []lightor.Play

func (p fixedPlays) Interactions(float64) []lightor.Play { return p }

// TestOptionsValidation covers the PR-2 satellite: out-of-range options
// must be rejected by New with a clear error instead of silently producing
// NaN-ish tilings downstream.
func TestOptionsValidation(t *testing.T) {
	bad := []lightor.Options{
		{WindowSize: -25},
		{WindowStride: -1},
		{MinSeparation: -120},
		{Delta: -60},
		{MoveBack: -20},
		{MaxIterations: -3},
	}
	for i, opts := range bad {
		if _, err := lightor.New(opts); err == nil {
			t.Errorf("case %d: invalid options %+v accepted", i, opts)
		}
	}
	if _, err := lightor.New(lightor.Options{}); err != nil {
		t.Errorf("zero options rejected: %v", err)
	}
}

// TestDetectorEngineReuse covers the PR-2 satellite: repeated batch
// extractions share one lazily built session engine instead of spinning a
// worker pool up and down per call, results stay identical run over run,
// and Close releases the engine while leaving the Detector usable.
func TestDetectorEngineReuse(t *testing.T) {
	rng := stats.NewRand(83)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 2)
	det := mustNew(t, lightor.Options{})
	if err := det.Train(publicTrainingData(t, det, data[:1])); err != nil {
		t.Fatal(err)
	}
	target := data[1]
	src := &simSource{rng: stats.NewRand(9), video: target.Video}

	first, err := det.ExtractHighlights(target.Chat.Log.Messages(), target.Video.Duration, 3, src)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		got, err := det.ExtractHighlights(target.Chat.Log.Messages(), target.Video.Duration, 3, src)
		if err != nil {
			t.Fatalf("repeat %d: %v", i, err)
		}
		if len(got) != len(first) {
			t.Fatalf("repeat %d: %d highlights, first run had %d", i, len(got), len(first))
		}
		for j := range got {
			if got[j].Dot != first[j].Dot {
				t.Fatalf("repeat %d: dot %d moved: %+v vs %+v", i, j, got[j].Dot, first[j].Dot)
			}
		}
	}

	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
	if err := det.Close(); err != nil { // idempotent
		t.Fatal(err)
	}
	// The detector rebuilds its engine after Close.
	if _, err := det.ExtractHighlights(target.Chat.Log.Messages(), target.Video.Duration, 3, src); err != nil {
		t.Fatalf("extraction after Close: %v", err)
	}
	if err := det.Close(); err != nil {
		t.Fatal(err)
	}
}

type simSource struct {
	rng   interface{ Int63() int64 }
	video sim.Video
}

func (s *simSource) Interactions(dot float64) []lightor.Play {
	h, ok := sim.NearestHighlight(s.video, dot)
	if !ok {
		return nil
	}
	return sim.SimulateCrowd(stats.NewRand(s.rng.Int63()), 10, s.video, dot, h, sim.DefaultViewerBehavior())
}

func TestPublicSaveLoad(t *testing.T) {
	rng := stats.NewRand(78)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 2)
	det := mustNew(t, lightor.Options{})
	if err := det.Train(publicTrainingData(t, det, data[:1])); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := det.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := lightor.Load(&buf, lightor.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msgs := data[1].Chat.Log.Messages()
	a, err := det.DetectRedDots(msgs, data[1].Video.Duration, 3)
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.DetectRedDots(msgs, data[1].Video.Duration, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("detections differ after load: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Time != b[i].Time {
			t.Errorf("dot %d: %g vs %g", i, a[i].Time, b[i].Time)
		}
	}
}

func TestChatCodecRoundTripPublic(t *testing.T) {
	in := []lightor.Message{
		{Time: 1, User: "a", Text: "nice kill"},
		{Time: 2, User: "b", Text: "wow"},
	}
	var buf bytes.Buffer
	if err := lightor.WriteChatJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := lightor.ReadChatJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("round trip = %v", out)
	}
}

func TestSessionizePublic(t *testing.T) {
	events := []lightor.Event{
		{User: "u", Seq: 0, Type: lightor.EventPlay, Pos: 10},
		{User: "u", Seq: 1, Type: lightor.EventStop, Pos: 30},
	}
	plays := lightor.Sessionize(events)
	if len(plays) != 1 || plays[0].Start != 10 || plays[0].End != 30 {
		t.Errorf("plays = %v", plays)
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := lightor.Load(bytes.NewReader([]byte("not a model")), lightor.Options{}); err == nil {
		t.Error("garbage model accepted")
	}
}

func TestStaticPlaysSource(t *testing.T) {
	plays := []lightor.Play{{User: "u", Start: 1, End: 5}}
	src := lightor.StaticPlays(plays)
	got := src.Interactions(3)
	if len(got) != 1 || got[0] != plays[0] {
		t.Errorf("Interactions = %v", got)
	}
	// Same snapshot regardless of the dot.
	if len(src.Interactions(999)) != 1 {
		t.Error("snapshot varies with dot")
	}
}

func TestEventsCodecPublic(t *testing.T) {
	in := []lightor.Event{
		{User: "u", Seq: 0, Type: lightor.EventPlay, Pos: 10},
		{User: "u", Seq: 1, Type: lightor.EventSeek, Pos: 25},
	}
	var buf bytes.Buffer
	if err := lightor.WriteEventsJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := lightor.ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 || out[0] != in[0] || out[1] != in[1] {
		t.Errorf("round trip = %v", out)
	}
}

func TestReadChatIRCPublic(t *testing.T) {
	in := "[0:00:05] <fan> nice kill\n[0:01:00] <other> wow\n"
	msgs, err := lightor.ReadChatIRC(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(msgs) != 2 || msgs[0].Time != 5 || msgs[1].User != "other" {
		t.Errorf("messages = %v", msgs)
	}
	if _, err := lightor.ReadChatIRC(strings.NewReader("garbage")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestOnlineSessionPublic(t *testing.T) {
	rng := stats.NewRand(80)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 3)
	det := mustNew(t, lightor.Options{})
	if err := det.Train(publicTrainingData(t, det, data[:2])); err != nil {
		t.Fatal(err)
	}

	// Untrained detectors cannot go live.
	if _, err := mustNew(t, lightor.Options{}).NewOnlineSession(0.5); err == nil {
		t.Error("untrained online session accepted")
	}

	session, err := det.NewOnlineSession(0.5)
	if err != nil {
		t.Fatal(err)
	}
	session.SetWarmup(120)
	target := data[2]
	for _, m := range target.Chat.Log.Messages() {
		if _, err := session.Feed(m); err != nil {
			t.Fatal(err)
		}
	}
	session.Advance(target.Video.Duration)
	session.Flush()
	if len(session.Emitted()) == 0 {
		t.Error("online session emitted nothing")
	}
}

func TestDetectorWindowsPublic(t *testing.T) {
	det := mustNew(t, lightor.Options{WindowSize: 25, WindowStride: 25})
	msgs := []lightor.Message{{Time: 10, Text: "a"}, {Time: 60, Text: "b"}}
	windows := det.Windows(msgs, 100)
	if len(windows) != 4 {
		t.Fatalf("windows = %d, want 4", len(windows))
	}
	if windows[0].Start != 0 || windows[0].End != 25 {
		t.Errorf("first window = %v", windows[0])
	}
}

func TestRefineHighlightPublic(t *testing.T) {
	rng := stats.NewRand(79)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 2)
	det := mustNew(t, lightor.Options{})
	if err := det.Train(publicTrainingData(t, det, data[:1])); err != nil {
		t.Fatal(err)
	}
	target := data[1]
	dots, err := det.DetectRedDots(target.Chat.Log.Messages(), target.Video.Duration, 1)
	if err != nil || len(dots) == 0 {
		t.Fatalf("detect: %v (%d dots)", err, len(dots))
	}
	src := &simSource{rng: stats.NewRand(6), video: target.Video}
	h := det.RefineHighlight(dots[0], src)
	if len(h.Trace) == 0 {
		t.Error("no refinement trace")
	}
}
