package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// trainedFixture builds a trained initializer plus a held-out simulated
// video — the shared sim-package recipe, so engine and platform tests
// exercise the same workload.
func trainedFixture(t testing.TB) (*core.Initializer, sim.VideoData) {
	t.Helper()
	init, target, err := sim.TrainedFixture()
	if err != nil {
		t.Fatal(err)
	}
	return init, target
}

func mustExt(t testing.TB) *core.Extractor {
	t.Helper()
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

func newTestEngine(t testing.TB, init *core.Initializer, cfg Config) *Engine {
	t.Helper()
	if cfg.Warmup == 0 {
		cfg.Warmup = -1 // disable warm-up: deterministic tests want every dot
	}
	eng, err := New(init, mustExt(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := eng.Close(ctx); err != nil && !errors.Is(err, ErrClosed) {
			t.Errorf("engine close: %v", err)
		}
	})
	return eng
}

// referenceOnline runs a serial OnlineDetector over the messages — the
// single-stream ground truth sessions must reproduce.
func referenceOnline(t testing.TB, init *core.Initializer, msgs []chat.Message, flush bool) []core.RedDot {
	t.Helper()
	od, err := core.NewOnlineDetector(init, 0)
	if err != nil {
		t.Fatal(err)
	}
	od.SetWarmup(0)
	for _, m := range msgs {
		if _, err := od.Feed(m); err != nil {
			t.Fatal(err)
		}
	}
	if flush {
		od.Flush()
	}
	return od.Emitted()
}

func TestConcurrentMultiChannelIngest(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	if len(msgs) < 200 {
		t.Fatalf("simulated chat too small: %d messages", len(msgs))
	}
	want := referenceOnline(t, init, msgs, true)
	if len(want) == 0 {
		t.Fatal("reference online run emitted no dots; test data is useless")
	}

	eng := newTestEngine(t, init, Config{SessionWorkers: 4})
	const channels = 16
	var wg sync.WaitGroup
	errs := make([]error, channels)
	got := make([][]core.RedDot, channels)
	for c := 0; c < channels; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			s, err := eng.Sessions().GetOrOpen(fmt.Sprintf("chan-%d", c))
			if err != nil {
				errs[c] = err
				return
			}
			// Vary the batch size per channel so mailbox handoffs land at
			// different stream positions on every channel.
			batch := 16 + 7*c
			for i := 0; i < len(msgs); i += batch {
				end := i + batch
				if end > len(msgs) {
					end = len(msgs)
				}
				if err := s.Ingest(msgs[i:end]...); err != nil {
					errs[c] = err
					return
				}
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			got[c], errs[c] = s.Flush(ctx)
		}(c)
	}
	wg.Wait()
	for c := 0; c < channels; c++ {
		if errs[c] != nil {
			t.Fatalf("channel %d: %v", c, errs[c])
		}
		if !reflect.DeepEqual(got[c], want) {
			t.Errorf("channel %d emitted %d dots, want %d (must match the serial OnlineDetector exactly)",
				c, len(got[c]), len(want))
		}
	}
}

func TestOutOfOrderRejectionPerSession(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{})

	a, err := eng.Sessions().GetOrOpen("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := eng.Sessions().GetOrOpen("b")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Ingest(chat.Message{Time: 100, Text: "hi"}); err != nil {
		t.Fatal(err)
	}
	// Disorder within one batch and against the watermark both reject.
	if err := a.Ingest(chat.Message{Time: 50, Text: "stale"}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("watermark violation returned %v, want ErrOutOfOrder", err)
	}
	if err := a.Ingest(chat.Message{Time: 200}, chat.Message{Time: 150}); !errors.Is(err, ErrOutOfOrder) {
		t.Errorf("in-batch disorder returned %v, want ErrOutOfOrder", err)
	}
	// The rejected batches left session a usable and session b untouched.
	if err := a.Ingest(chat.Message{Time: 101, Text: "ok"}); err != nil {
		t.Errorf("session a unusable after rejection: %v", err)
	}
	if err := b.Ingest(chat.Message{Time: 1, Text: "independent clock"}); err != nil {
		t.Errorf("session b affected by session a's rejection: %v", err)
	}
}

// fixedSource returns the same plays for any dot — a deterministic
// InteractionSource for refinement tests.
type fixedSource []play.Play

func (s fixedSource) Interactions(dot float64) []play.Play { return s }

// crowdSource simulates viewer plays around whatever dot refinement asks
// about, like the examples do.
func crowdFor(t testing.TB, video sim.Video, dots []core.RedDot) fixedSource {
	t.Helper()
	rng := stats.NewRand(7)
	var plays []play.Play
	for _, dot := range dots {
		h, ok := sim.NearestHighlight(video, dot.Time)
		if !ok {
			continue
		}
		plays = append(plays, sim.SimulateCrowd(rng, 20, video, dot.Time, h, sim.DefaultViewerBehavior())...)
	}
	return fixedSource(plays)
}

func TestRefineQueueCompletion(t *testing.T) {
	init, target := trainedFixture(t)
	eng := newTestEngine(t, init, Config{RefineWorkers: 4})

	dots, err := init.Detect(target.Chat.Log, target.Video.Duration, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(dots) == 0 {
		t.Fatal("no dots to refine")
	}
	src := crowdFor(t, target.Video, dots)

	var callbacks atomic.Int32
	job, err := eng.Refine().Enqueue("vid", dots, src, func(done RefineJob) {
		callbacks.Add(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	final, err := eng.Refine().Wait(ctx, job.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status != JobDone {
		t.Fatalf("job status = %q, want done", final.Status)
	}
	if n := callbacks.Load(); n != 1 {
		t.Errorf("onDone ran %d times, want 1", n)
	}
	if len(final.Results) != len(dots) {
		t.Fatalf("results = %d, want %d", len(final.Results), len(dots))
	}

	// Parallel fan-out must preserve dot order and match the serial
	// extractor exactly.
	ext := eng.Extractor()
	for i, res := range final.Results {
		if res.Dot != dots[i] {
			t.Errorf("result %d is for dot %+v, want %+v", i, res.Dot, dots[i])
		}
		seed := core.Interval{Start: dots[i].Time, End: dots[i].Time + ext.Config().DefaultSpan}
		boundary, _ := ext.Refine(seed, src)
		if res.Boundary != boundary {
			t.Errorf("result %d boundary %+v, want serial %+v", i, res.Boundary, boundary)
		}
	}

	// Polling sees the terminal snapshot too.
	snap, ok := eng.Refine().Job(job.ID)
	if !ok || snap.Status != JobDone {
		t.Errorf("Job(%q) = %+v, %v", job.ID, snap, ok)
	}
	if _, ok := eng.Refine().Job("ghost"); ok {
		t.Error("unknown job id found")
	}
}

func TestGracefulDrain(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, false) // no flush: drain only processes queued work

	eng := newTestEngine(t, init, Config{SessionWorkers: 2})
	const channels = 8
	sessions := make([]*Session, channels)
	for c := range sessions {
		s, err := eng.Sessions().GetOrOpen(fmt.Sprintf("drain-%d", c))
		if err != nil {
			t.Fatal(err)
		}
		sessions[c] = s
		// Pile the whole stream into the mailbox in many small batches so
		// plenty of work is still queued when Close begins.
		for i := 0; i < len(msgs); i += 32 {
			end := i + 32
			if end > len(msgs) {
				end = len(msgs)
			}
			if err := s.Ingest(msgs[i:end]...); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Also park a refine job so both drains are exercised.
	dots, err := init.Detect(target.Chat.Log, target.Video.Duration, 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Refine().Enqueue("vid", dots, crowdFor(t, target.Video, dots), nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := eng.Close(ctx); err != nil {
		t.Fatalf("graceful close: %v", err)
	}

	for c, s := range sessions {
		if n := s.Pending(); n != 0 {
			t.Errorf("channel %d still has %d queued envelopes after drain", c, n)
		}
		got, _ := s.Dots(0)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("channel %d drained to %d dots, want %d", c, len(got), len(want))
		}
		if err := s.Ingest(chat.Message{Time: 1e6}); !errors.Is(err, ErrClosed) {
			t.Errorf("channel %d accepted ingest after close: %v", c, err)
		}
	}
	if _, err := eng.Refine().Enqueue("vid", dots, nil, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("refine queue accepted work after close: %v", err)
	}
	if _, err := eng.Sessions().GetOrOpen("late"); !errors.Is(err, ErrClosed) {
		t.Errorf("session manager opened a channel after close: %v", err)
	}
	// Close is idempotent.
	if err := eng.Close(ctx); err != nil {
		t.Errorf("second close: %v", err)
	}
}

// serialReference is the batch pipeline of Figure 1 spelled serially —
// Detect, then Refine dot by dot — the ground truth ExtractHighlights must
// reproduce element for element.
func serialReference(t testing.TB, init *core.Initializer, ext *core.Extractor, log *chat.Log, duration float64, k int, src core.InteractionSource) []core.HighlightResult {
	t.Helper()
	dots, err := init.Detect(log, duration, k)
	if err != nil {
		t.Fatal(err)
	}
	results := make([]core.HighlightResult, 0, len(dots))
	for _, dot := range dots {
		seed := core.Interval{Start: dot.Time, End: dot.Time + ext.Config().DefaultSpan}
		boundary, trace := ext.Refine(seed, src)
		results = append(results, core.HighlightResult{Dot: dot, Boundary: boundary, Trace: trace})
	}
	return results
}

func TestReplayEquivalence(t *testing.T) {
	init, target := trainedFixture(t)
	ext := mustExt(t)

	dots, err := init.Detect(target.Chat.Log, target.Video.Duration, 5)
	if err != nil {
		t.Fatal(err)
	}
	src := crowdFor(t, target.Video, dots)

	want := serialReference(t, init, ext, target.Chat.Log, target.Video.Duration, 5, src)

	eng := newTestEngine(t, init, Config{})
	got, err := eng.ExtractHighlights(context.Background(), target.Chat.Log, target.Video.Duration, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("engine extraction diverged from the serial reference:\n got %d results %+v\nwant %d results %+v",
			len(got), got, len(want), want)
	}

	// Batch extraction opens no session.
	if n := len(eng.Sessions().Channels()); n != 0 {
		t.Errorf("%d sessions left behind by a batch extraction", n)
	}

	// A second extraction on the SAME engine must be byte-identical to the
	// first: batch extraction reuses one engine per detector, and the
	// feature pipeline reuses its accumulators across runs, so any state
	// leaking between runs would surface here.
	again, err := eng.ExtractHighlights(context.Background(), target.Chat.Log, target.Video.Duration, 5, src)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, want) {
		t.Fatalf("repeated extraction on a reused engine diverged:\n got %+v\nwant %+v", again, want)
	}
}

// channelsSource is a fixedSource that also records, on every call, which
// sessions the manager holds — what a batch extraction's refine fan-out
// sees mid-run.
type channelsSource struct {
	fixedSource
	mgr *SessionManager

	mu   sync.Mutex
	seen [][]string
}

func (c *channelsSource) Interactions(dot float64) []play.Play {
	c.mu.Lock()
	c.seen = append(c.seen, c.mgr.Channels())
	c.mu.Unlock()
	return c.fixedSource.Interactions(dot)
}

// TestExtractHighlightsIsNotASession pins what batch extraction no longer
// shares with live channels: it takes no MaxSessions slot (so it cannot
// fail with ErrTooManySessions), never shows up in Channels(), writes no
// checkpoint, honours a cancelled ctx before detecting, and is safe to call
// concurrently — every caller gets the serial reference.
func TestExtractHighlightsIsNotASession(t *testing.T) {
	init, target := trainedFixture(t)
	ext := mustExt(t)
	log, duration := target.Chat.Log, target.Video.Duration
	dots, err := init.Detect(log, duration, 5)
	if err != nil {
		t.Fatal(err)
	}
	crowd := crowdFor(t, target.Video, dots)
	want := serialReference(t, init, ext, log, duration, 5, crowd)
	if len(want) == 0 {
		t.Fatal("reference extracted nothing; test is vacuous")
	}

	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{MaxSessions: 1, Checkpoints: store, CheckpointInterval: -1})
	if _, err := eng.Sessions().Open("live"); err != nil {
		t.Fatal(err)
	}
	wantChannels := []string{"live"}
	putsBefore := store.putCount()

	src := &channelsSource{fixedSource: crowd, mgr: eng.Sessions()}
	got, err := eng.ExtractHighlights(context.Background(), log, duration, 5, src)
	if err != nil {
		t.Fatalf("ExtractHighlights beside a full session table: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("extraction diverged from the serial reference:\n got %+v\nwant %+v", got, want)
	}
	if len(src.seen) == 0 {
		t.Fatal("interaction source never consulted; the during-run check is vacuous")
	}
	for i, chans := range src.seen {
		if !reflect.DeepEqual(chans, wantChannels) {
			t.Fatalf("Channels() during extraction (call %d) = %q, want %q", i, chans, wantChannels)
		}
	}
	if chans := eng.Sessions().Channels(); !reflect.DeepEqual(chans, wantChannels) {
		t.Errorf("Channels() after extraction = %q, want %q", chans, wantChannels)
	}
	if n := store.putCount() - putsBefore; n != 0 {
		t.Errorf("extraction wrote %d checkpoints", n)
	}

	// A cancelled ctx is reported before any detection work: the source is
	// never reached.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	src.seen = nil
	if _, err := eng.ExtractHighlights(cancelled, log, duration, 5, src); !errors.Is(err, context.Canceled) {
		t.Errorf("ExtractHighlights(cancelled ctx) = %v, want context.Canceled", err)
	}
	if len(src.seen) != 0 {
		t.Error("cancelled extraction still reached the interaction source")
	}

	const callers = 8
	results := make([][]core.HighlightResult, callers)
	errs := make([]error, callers)
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			results[c], errs[c] = eng.ExtractHighlights(context.Background(), log, duration, 5, crowd)
		}(c)
	}
	wg.Wait()
	for c := range results {
		if errs[c] != nil {
			t.Fatalf("concurrent extraction %d: %v", c, errs[c])
		}
		if !reflect.DeepEqual(results[c], want) {
			t.Errorf("concurrent extraction %d diverged from the serial reference", c)
		}
	}
}

// TestReplayFeatureEquivalence proves the PR-2 contract at the layer
// boundary the replay path crosses: every window of a realistic simulated
// log produces bit-identical features whether computed by the batch tiling
// (featureRows → WindowFeatures) or streamed message-by-message through a
// FeatureAccumulator, which is why replay and live detection agree on
// scores, dots, and boundaries.
func TestReplayFeatureEquivalence(t *testing.T) {
	_, target := trainedFixture(t)
	ws := chat.SlidingWindows(target.Chat.Log, target.Video.Duration, 25, 25)
	acc := core.NewFeatureAccumulator()
	for i, w := range ws {
		acc.Reset()
		for _, m := range w.Messages {
			acc.Add(m.Text)
		}
		if batch, streamed := core.WindowFeatures(w), acc.Features(); batch != streamed {
			t.Fatalf("window %d [%g,%g): batch %+v != streamed %+v",
				i, w.Start, w.End, batch, streamed)
		}
	}
}

func TestSessionCapAndCloseSession(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{MaxSessions: 2})
	ctx := context.Background()

	a, err := eng.Sessions().GetOrOpen("a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().GetOrOpen("b"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Sessions().GetOrOpen("c"); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over-cap open returned %v, want ErrTooManySessions", err)
	}
	// Flush is idempotent: a second (or concurrent) flush waits for the
	// same finalization and returns the same full history.
	if _, err := a.Flush(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Flush(ctx); err != nil {
		t.Errorf("repeated Flush = %v, want idempotent success", err)
	}
	// Closing a session frees its cap slot.
	if _, err := eng.Sessions().CloseSession(ctx, "a"); err != nil {
		t.Fatal(err)
	}
	if _, ok := eng.Sessions().Get("a"); ok {
		t.Error("closed session still registered")
	}
	if _, err := eng.Sessions().GetOrOpen("c"); err != nil {
		t.Errorf("open after close failed: %v", err)
	}
	if _, err := eng.Sessions().CloseSession(ctx, "ghost"); !errors.Is(err, ErrUnknownSession) {
		t.Errorf("CloseSession(ghost) = %v, want ErrUnknownSession", err)
	}
}

func TestRefineQueueBoundedRetention(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{})
	ctx := context.Background()

	const extra = 10
	var first, last RefineJob
	for i := 0; i < maxRetainedJobs+extra; i++ {
		job, err := eng.Refine().Enqueue("vid", nil, fixedSource(nil), nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = job
		}
		last = job
		if _, err := eng.Refine().Wait(ctx, job.ID); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := eng.Refine().Job(first.ID); ok {
		t.Errorf("oldest job %s still retained past the cap", first.ID)
	}
	if snap, ok := eng.Refine().Job(last.ID); !ok || snap.Status != JobDone {
		t.Errorf("newest job %s missing or unfinished: %+v, %v", last.ID, snap, ok)
	}
}

// gateSource blocks every Interactions call until the gate closes —
// lets a test pin refine jobs in flight deterministically.
type gateSource struct{ gate chan struct{} }

func (g gateSource) Interactions(float64) []play.Play {
	<-g.gate
	return nil
}

func TestRefineQueueAdmission(t *testing.T) {
	init, _ := trainedFixture(t)
	eng := newTestEngine(t, init, Config{MaxQueuedRefines: 2, RefineWorkers: 1})
	ctx := context.Background()

	gate := make(chan struct{})
	src := gateSource{gate: gate}
	dots := []core.RedDot{{Time: 10}}

	// Two jobs fill the admission budget (one refining, one waiting on the
	// single worker slot); the third is rejected at intake, not queued.
	j1, err := eng.Refine().Enqueue("vid", dots, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	j2, err := eng.Refine().Enqueue("vid", dots, src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Refine().Enqueue("vid", dots, src, nil); !errors.Is(err, ErrRefineBusy) {
		t.Fatalf("Enqueue over budget = %v, want ErrRefineBusy", err)
	}

	// Draining the queue frees slots: once the blocked jobs finish, intake
	// admits again.
	close(gate)
	for _, id := range []string{j1.ID, j2.ID} {
		if _, err := eng.Refine().Wait(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	j4, err := eng.Refine().Enqueue("vid", dots, fixedSource(nil), nil)
	if err != nil {
		t.Fatalf("Enqueue after drain = %v, want admitted", err)
	}
	if _, err := eng.Refine().Wait(ctx, j4.ID); err != nil {
		t.Fatal(err)
	}
}

func TestEngineValidation(t *testing.T) {
	init, _ := trainedFixture(t)
	if _, err := New(nil, mustExt(t), Config{}); err == nil {
		t.Error("nil initializer accepted")
	}
	if _, err := New(init, nil, Config{}); err == nil {
		t.Error("nil extractor accepted")
	}
	// An untrained initializer cannot open live sessions.
	untrained, err := core.NewInitializer(core.DefaultInitializerConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := newTestEngine(t, untrained, Config{})
	if _, err := eng.Sessions().GetOrOpen("x"); err == nil {
		t.Error("untrained initializer opened a live session")
	}

	eng2 := newTestEngine(t, init, Config{})
	if _, err := eng2.Sessions().Open(""); err == nil {
		t.Error("empty channel id accepted")
	}
	if _, err := eng2.Sessions().Open("dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := eng2.Sessions().Open("dup"); err == nil {
		t.Error("duplicate open accepted")
	}
	if s, err := eng2.Sessions().GetOrOpen("dup"); err != nil || s == nil {
		t.Errorf("GetOrOpen(dup) = %v, %v", s, err)
	}
}
