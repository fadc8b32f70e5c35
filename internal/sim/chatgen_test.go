package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/stats"
	"lightor/internal/text"
)

func testVideoAndChat(seed int64) (Video, ChatResult, Profile) {
	rng := stats.NewRand(seed)
	p := Dota2Profile()
	v := GenerateVideo(rng, p, "t")
	return v, GenerateChat(rng, v, p), p
}

func TestGenerateChatBasics(t *testing.T) {
	v, cr, _ := testVideoAndChat(1)
	if cr.Log.Len() == 0 {
		t.Fatal("no messages generated")
	}
	if err := cr.Log.Validate(v.Duration); err != nil {
		t.Fatalf("invalid chat log: %v", err)
	}
	if len(cr.Bursts) != len(v.Highlights) {
		t.Errorf("bursts = %d, highlights = %d", len(cr.Bursts), len(v.Highlights))
	}
}

func TestGenerateChatRateMeetsApplicabilityBar(t *testing.T) {
	v, cr, _ := testVideoAndChat(2)
	if rate := cr.Log.RatePerHour(v.Duration); rate < 500 {
		t.Errorf("chat rate %g/h below the 500/h applicability bar", rate)
	}
}

func TestBurstPeakFollowsHighlightStart(t *testing.T) {
	_, cr, p := testVideoAndChat(3)
	for _, b := range cr.Bursts {
		delay := b.Peak - b.Highlight.Start
		if delay < 3 || delay > p.ReactionDelayMean+5*p.ReactionDelayStd {
			t.Errorf("burst delay %g implausible (mean %g)", delay, p.ReactionDelayMean)
		}
	}
}

func TestNoBurstMessagesBeforeHighlightStart(t *testing.T) {
	// The defining property of live chat: reactions come after the event.
	// Verify via message density: the 10 s before each highlight start must
	// carry far fewer messages than the 10 s after the burst peak.
	v, cr, _ := testVideoAndChat(4)
	for _, b := range cr.Bursts {
		before := cr.Log.CountBetween(b.Highlight.Start-10, b.Highlight.Start)
		atPeak := cr.Log.CountBetween(b.Peak-5, b.Peak+5)
		if atPeak <= before {
			t.Errorf("burst at %g not denser than pre-highlight chat (%d vs %d)",
				b.Peak, atPeak, before)
		}
	}
	_ = v
}

func TestHighlightWindowsAreShortAndSimilar(t *testing.T) {
	v, cr, _ := testVideoAndChat(5)
	ws := chat.SlidingWindows(cr.Log, v.Duration, 25, 25)
	labels := LabelWindows(ws, cr.Bursts)

	var hiLen, loLen, hiSim, loSim []float64
	for i, w := range ws {
		if w.Count() < 2 {
			continue
		}
		var totalWords float64
		for _, m := range w.Messages {
			totalWords += float64(text.WordCount(m.Text))
		}
		avgLen := totalWords / float64(w.Count())
		sim := text.MessageSimilarity(w.Texts())
		if labels[i] == 1 {
			hiLen = append(hiLen, avgLen)
			hiSim = append(hiSim, sim)
		} else {
			loLen = append(loLen, avgLen)
			loSim = append(loSim, sim)
		}
	}
	if len(hiLen) == 0 || len(loLen) == 0 {
		t.Fatal("need both labeled classes")
	}
	if stats.Mean(hiLen) >= stats.Mean(loLen) {
		t.Errorf("highlight windows should have shorter messages: %g vs %g",
			stats.Mean(hiLen), stats.Mean(loLen))
	}
	if stats.Mean(hiSim) <= stats.Mean(loSim) {
		t.Errorf("highlight windows should be more similar: %g vs %g",
			stats.Mean(hiSim), stats.Mean(loSim))
	}
}

func TestLabelWindows(t *testing.T) {
	ws := []chat.Window{
		{Start: 0, End: 25},
		{Start: 25, End: 50},
		{Start: 50, End: 75},
	}
	bursts := []Burst{{Peak: 30}}
	labels := LabelWindows(ws, bursts)
	if labels[0] != 0 || labels[1] != 1 || labels[2] != 0 {
		t.Errorf("labels = %v, want [0 1 0]", labels)
	}
}

func TestGenerateChatDeterministic(t *testing.T) {
	_, a, _ := testVideoAndChat(9)
	_, b, _ := testVideoAndChat(9)
	if a.Log.Len() != b.Log.Len() {
		t.Fatal("same seed produced different chat logs")
	}
	for i := 0; i < a.Log.Len(); i++ {
		if a.Log.At(i) != b.Log.At(i) {
			t.Fatal("same seed produced different messages")
		}
	}
}

func TestGenerateDatasetNesting(t *testing.T) {
	// The first k videos of a size-n dataset must equal the size-k dataset
	// generated from the same seed: training-size sweeps depend on it.
	small := GenerateDataset(stats.NewRand(5), Dota2Profile(), 3)
	large := GenerateDataset(stats.NewRand(5), Dota2Profile(), 6)
	for i := range small {
		if small[i].Video.ID != large[i].Video.ID ||
			small[i].Video.Duration != large[i].Video.Duration ||
			small[i].Chat.Log.Len() != large[i].Chat.Log.Len() {
			t.Fatalf("dataset prefix differs at %d", i)
		}
	}
}

func TestFrameFeatures(t *testing.T) {
	rng := stats.NewRand(6)
	v := Video{Game: "lol", Duration: 600, Highlights: []Interval{{Start: 100, End: 200}}}
	frames := FrameFeatures(rng, v, 8)
	if len(frames) != 600 {
		t.Fatalf("frames = %d, want 600", len(frames))
	}
	// Effects lag the start by 3 s and linger 5 s past the end; compare a
	// comfortably-inside band with a comfortably-outside band.
	var inMean, outMean float64
	var inN, outN int
	for ts, f := range frames {
		switch {
		case ts >= 110 && ts <= 190:
			inMean += f[0]
			inN++
		case ts >= 300:
			outMean += f[0]
			outN++
		}
	}
	inMean /= float64(inN)
	outMean /= float64(outN)
	if inMean-outMean < 0.2 {
		t.Errorf("highlight frames not shifted: in=%g out=%g", inMean, outMean)
	}
	if math.IsNaN(inMean) || math.IsNaN(outMean) {
		t.Fatal("NaN frame features")
	}
}

func TestFrameFeaturesGameChannelsDiffer(t *testing.T) {
	// LoL lights dims 0-2, Dota2 dims 1-3: dim 0 must carry signal only
	// for LoL, dim 3 only for Dota2.
	shift := func(game string, dim int) float64 {
		rng := stats.NewRand(9)
		v := Video{Game: game, Duration: 2000, Highlights: []Interval{{Start: 100, End: 900}}}
		frames := FrameFeatures(rng, v, 8)
		var in, out float64
		var inN, outN int
		for ts, f := range frames {
			if ts >= 110 && ts <= 890 {
				in += f[dim]
				inN++
			} else if ts >= 1000 {
				out += f[dim]
				outN++
			}
		}
		return in/float64(inN) - out/float64(outN)
	}
	if d := shift("lol", 0); d < 0.2 {
		t.Errorf("LoL dim0 shift = %g, want signal", d)
	}
	if d := shift("dota2", 0); d > 0.2 {
		t.Errorf("Dota2 dim0 shift = %g, want none", d)
	}
	if d := shift("dota2", 3); d < 0.2 {
		t.Errorf("Dota2 dim3 shift = %g, want signal", d)
	}
	if d := shift("lol", 3); d > 0.2 {
		t.Errorf("LoL dim3 shift = %g, want none", d)
	}
}

func TestGenerateChannelStats(t *testing.T) {
	rng := stats.NewRand(7)
	vs := GenerateChannelStats(rng, 10, 20)
	if len(vs) != 200 {
		t.Fatalf("videos = %d, want 200", len(vs))
	}
	var chats, viewers []float64
	for _, v := range vs {
		chats = append(chats, v.ChatsPerHour)
		viewers = append(viewers, v.Viewers)
	}
	chatCDF := stats.NewECDF(chats)
	if frac := chatCDF.AtLeast(500); frac < 0.7 {
		t.Errorf("only %.0f%% of videos clear 500 chats/h; paper shape needs >70%%", frac*100)
	}
	viewerCDF := stats.NewECDF(viewers)
	if frac := viewerCDF.AtLeast(100); frac < 0.999 {
		t.Errorf("%.1f%% of videos clear 100 viewers; paper says all", frac*100)
	}
}

// TestGenerateChatGolden pins the simulator's output: every message's
// time, user and text, and every burst, for fixed seeds. The benchmark's
// pinned digests are built on this world, so a change to the random draws
// or their order must show up here, not first as a drifted pin.
func TestGenerateChatGolden(t *testing.T) {
	h := sha256.New()
	var b [8]byte
	put := func(f float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(f))
		h.Write(b[:])
	}
	for _, p := range []Profile{Dota2Profile(), LoLProfile()} {
		rng := stats.NewRand(20200420)
		for i := 0; i < 2; i++ {
			cr := GenerateChat(rng, GenerateVideo(rng, p, "v"), p)
			for _, m := range cr.Log.Messages() {
				put(m.Time)
				h.Write([]byte(m.User + "\x00" + m.Text + "\x00"))
			}
			for _, bu := range cr.Bursts {
				put(bu.Highlight.Start)
				put(bu.Highlight.End)
				put(bu.Peak)
				put(float64(bu.Messages))
			}
		}
	}
	const want = "45b9726be7f3c7afa61e3a296b4570a3b53529357d6120b3b2e31a08109ab7c1"
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Errorf("simulated chat digest = %s, want %s", got, want)
	}
}
