package core_test

import (
	"bytes"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

func trainedInit(t *testing.T, seed int64) (*core.Initializer, []sim.VideoData) {
	t.Helper()
	rng := stats.NewRand(seed)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 4)
	init := mustNewInitializer(t, core.DefaultInitializerConfig())
	if err := init.Train(trainingVideos(t, init, data[:2])); err != nil {
		t.Fatal(err)
	}
	return init, data[2:]
}

func TestOnlineDetectorRequiresTrainedModel(t *testing.T) {
	if _, err := core.NewOnlineDetector(mustNewInitializer(t, core.InitializerConfig{}), 0.5); err == nil {
		t.Error("untrained initializer accepted")
	}
	if _, err := core.NewOnlineDetector(nil, 0.5); err == nil {
		t.Error("nil initializer accepted")
	}
}

func TestOnlineDetectorRejectsDisorder(t *testing.T) {
	init, _ := trainedInit(t, 300)
	od, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := od.Feed(chatMsg(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := od.Feed(chatMsg(50)); err == nil {
		t.Error("out-of-order message accepted")
	}
}

func TestOnlineDetectorFindsHighlightsDuringStream(t *testing.T) {
	init, test := trainedInit(t, 301)
	target := test[0]
	od, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range target.Chat.Log.Messages() {
		if _, err := od.Feed(m); err != nil {
			t.Fatal(err)
		}
	}
	od.Flush()
	dots := od.Emitted()
	if len(dots) == 0 {
		t.Fatal("online detector emitted nothing")
	}

	good := 0
	for _, d := range dots {
		if core.IsGoodStartAmong(d.Time, target.Video.Highlights) {
			good++
		}
	}
	if prec := float64(good) / float64(len(dots)); prec < 0.5 {
		t.Errorf("online precision = %.2f (%d/%d), want >= 0.5", prec, good, len(dots))
	}

	// Separation must hold among emitted dots.
	for i := range dots {
		for j := i + 1; j < len(dots); j++ {
			d := dots[i].Time - dots[j].Time
			if d < 0 {
				d = -d
			}
			if d <= 120 {
				t.Errorf("dots %d and %d only %.1fs apart", i, j, d)
			}
		}
	}
}

func TestOnlineDetectorEmitsPromptly(t *testing.T) {
	// A dot must become available within ~δ + window of the burst, not
	// only at Flush: that is the point of online mode.
	init, test := trainedInit(t, 302)
	target := test[0]
	od, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var firstEmit, firstEmitClock float64 = -1, -1
	for _, m := range target.Chat.Log.Messages() {
		dots, err := od.Feed(m)
		if err != nil {
			t.Fatal(err)
		}
		if len(dots) > 0 && firstEmit < 0 {
			firstEmit = dots[0].Time
			firstEmitClock = m.Time
		}
	}
	if firstEmit < 0 {
		t.Skip("no mid-stream emission on this seed (all at flush)")
	}
	lag := firstEmitClock - firstEmit
	if lag > 300 {
		t.Errorf("first dot emitted %.0fs after its position; online mode should be prompt", lag)
	}
}

func TestOnlineMatchesOfflinePositions(t *testing.T) {
	// Online dots should largely coincide with offline detections: for
	// each online dot there should usually be an offline dot within a
	// window's width.
	init, test := trainedInit(t, 303)
	target := test[0]
	offline, err := init.Detect(target.Chat.Log, target.Video.Duration, 10)
	if err != nil {
		t.Fatal(err)
	}
	od, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range target.Chat.Log.Messages() {
		if _, err := od.Feed(m); err != nil {
			t.Fatal(err)
		}
	}
	od.Flush()
	online := od.Emitted()
	if len(online) == 0 {
		t.Fatal("no online dots")
	}
	matched := 0
	for _, o := range online {
		for _, f := range offline {
			d := o.Time - f.Time
			if d < 0 {
				d = -d
			}
			if d <= 30 {
				matched++
				break
			}
		}
	}
	if frac := float64(matched) / float64(len(online)); frac < 0.5 {
		t.Errorf("only %.0f%% of online dots match offline detections", frac*100)
	}
}

func TestOnlineAdvanceAndQuietPeriods(t *testing.T) {
	init, _ := trainedInit(t, 304)
	od, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	// Background chatter (long, varied messages) establishes the feature
	// normalization; then a hype burst, then silence: Advance alone must
	// finalize the burst.
	casual := []string{
		"anyone know what patch this is today",
		"my internet keeps dropping again and again",
		"what do you think about the new item build",
		"hello everyone first time here love the channel",
	}
	tpos := 0.0
	for i := 0; tpos < 95; i++ {
		if _, err := od.Feed(chatMsgText(tpos, casual[i%len(casual)])); err != nil {
			t.Fatal(err)
		}
		tpos += 7
	}
	for i := 0; i < 40; i++ {
		if _, err := od.Feed(chatMsgText(100+float64(i)*0.5, "kill kill")); err != nil {
			t.Fatal(err)
		}
	}
	var dots []core.RedDot
	dots = append(dots, od.Advance(500)...)
	dots = append(dots, od.Advance(1000)...)
	dots = append(dots, od.Flush()...)
	if len(dots) == 0 {
		t.Error("quiet-period advance never finalized the burst")
	}
	// Advancing backward is a no-op.
	if got := od.Advance(10); got != nil {
		t.Error("backward Advance produced dots")
	}
}

func chatMsg(ts float64) chat.Message { return chat.Message{Time: ts, Text: "hi"} }

func chatMsgText(ts float64, text string) chat.Message {
	return chat.Message{Time: ts, Text: text}
}

// TestFeedCollectDeadlineIsExact holds the lazy collect (Feed looks at the
// pending windows only when one closed or the clock reached collectAt)
// against an eager twin that is forced through a full collect on every
// message: restoring a snapshot forgets the deadline. After every message
// the two must have returned the same dots and serialize to the same bytes
// — finalizations, memoized scores and the pruned prefix included — with
// the warm-up horizon left at its default so that threshold is crossed too.
func TestFeedCollectDeadlineIsExact(t *testing.T) {
	init, test := trainedInit(t, 413)
	msgs := test[0].Chat.Log.Messages()
	lazy, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	var snap, lazySnap []byte
	dots := 0
	for i, m := range msgs {
		snap = eager.AppendSnapshot(snap[:0])
		if err := eager.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
		want, err := eager.Feed(m)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lazy.Feed(m)
		if err != nil {
			t.Fatal(err)
		}
		if !sameDots(got, want) {
			t.Fatalf("message %d (t=%.1f): lazy Feed returned %v, eager %v", i, m.Time, got, want)
		}
		dots += len(got)
		snap = eager.AppendSnapshot(snap[:0])
		lazySnap = lazy.AppendSnapshot(lazySnap[:0])
		if !bytes.Equal(lazySnap, snap) {
			t.Fatalf("message %d (t=%.1f): lazy and eager detector state differ", i, m.Time)
		}
	}
	if dots == 0 {
		t.Fatal("no dots emitted mid-stream; the test is vacuous")
	}
}

// TestFeedZeroAlloc is the streaming hot path's allocation contract: Feed
// allocates nothing, inside one window and across window turnover.
func TestFeedZeroAlloc(t *testing.T) {
	init, test := trainedInit(t, 414)
	pool := test[0].Chat.Log.Messages()[:512]
	size := init.Config().WindowSize
	newDetector := func(t *testing.T) *core.OnlineDetector {
		od, err := core.NewOnlineDetector(init, 0.5)
		if err != nil {
			t.Fatal(err)
		}
		od.SetWarmup(0)
		return od
	}
	n := 0
	feed := func(t *testing.T, od *core.OnlineDetector, ts float64) {
		if _, err := od.Feed(chatMsgText(ts, pool[n%len(pool)].Text)); err != nil {
			t.Fatal(err)
		}
		n++
	}

	// One Feed landing in the open window, the dominant live case. Four
	// closed windows sit pending under the δ horizon, so Feed runs against
	// live pending state; the open window's vocabulary has seen every text.
	t.Run("steady-state", func(t *testing.T) {
		od := newDetector(t)
		for ts := 0.0; ts < 4*size; ts += size / 64 {
			feed(t, od, ts)
		}
		hold := 4*size + size/2
		for range pool {
			feed(t, od, hold)
		}
		if allocs := testing.AllocsPerRun(1000, func() { feed(t, od, hold) }); allocs != 0 {
			t.Fatalf("steady-state Feed allocates %.2f allocs/op, want 0", allocs)
		}
	})

	// Four messages per window: every fourth Feed closes a window, scores
	// it, finalizes older ones and opens the next on an empty vocabulary.
	// One run is one whole window, so an allocation per close counts as 1.
	t.Run("window-turnover", func(t *testing.T) {
		od := newDetector(t)
		w := 0
		window := func() {
			for i := 0; i < 4; i++ {
				feed(t, od, (float64(w)+float64(i)/4)*size)
			}
			w++
		}
		// Past the growth steps of the token arena, the pending list and
		// the emission history.
		for w < 2*len(pool) {
			window()
		}
		if allocs := testing.AllocsPerRun(500, window); allocs != 0 {
			t.Fatalf("a window turnover allocates %.2f allocs/window, want 0", allocs)
		}
	})
}
