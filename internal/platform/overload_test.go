package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// Overload-path tests: admission control, load shedding, and the
// flash-crowd survival drill. Run with -race — the drill exists to shake
// races out of the shed counters, latency histograms, and admission
// checks racing real ingest, polls, and SSE subscriptions.

// TestShedResponsesCarryRetryAfter pins the shed-response contract at the
// helper level and through writeLiveError for every error class that
// sheds: the status is right and Retry-After is always present — a
// client that backs off politely must never have to guess.
func TestShedResponsesCarryRetryAfter(t *testing.T) {
	rec := httptest.NewRecorder()
	shedError(rec, http.StatusTooManyRequests, "7", "test_reason", "busy")
	if rec.Code != http.StatusTooManyRequests {
		t.Errorf("shedError status = %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "7" {
		t.Errorf("Retry-After = %q, want 7", got)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "text/plain; charset=utf-8" {
		t.Errorf("Content-Type = %q", ct)
	}

	svc := &Service{Store: NewStore(), Engine: testEngine(t, mustInitializer(t))}
	cases := []struct {
		err  error
		code int
	}{
		{engine.ErrTooManySessions, http.StatusTooManyRequests},
		{engine.ErrRefineBusy, http.StatusTooManyRequests},
		{engine.ErrClosed, http.StatusServiceUnavailable},
		{engine.ErrHandoff, http.StatusServiceUnavailable},
	}
	for _, c := range cases {
		rec := httptest.NewRecorder()
		svc.writeLiveError(rec, c.err)
		if rec.Code != c.code {
			t.Errorf("writeLiveError(%v) status = %d, want %d", c.err, rec.Code, c.code)
		}
		if rec.Header().Get("Retry-After") == "" {
			t.Errorf("writeLiveError(%v): missing Retry-After", c.err)
		}
	}
	// Client errors are not sheds: no Retry-After on a 409.
	rec = httptest.NewRecorder()
	svc.writeLiveError(rec, engine.ErrOutOfOrder)
	if rec.Code != http.StatusConflict || rec.Header().Get("Retry-After") != "" {
		t.Errorf("ErrOutOfOrder = %d with Retry-After %q, want bare 409",
			rec.Code, rec.Header().Get("Retry-After"))
	}
}

func mustInitializer(t *testing.T) *core.Initializer {
	t.Helper()
	init, _ := trainedInitializer(t)
	return init
}

// TestMaxSessionsRejectionCarriesRetryAfter drives the session-capacity
// rejection end to end: the engine's MaxSessions cap must surface as a
// 429 with Retry-After, not a bare error.
func TestMaxSessionsRejectionCarriesRetryAfter(t *testing.T) {
	init, target := trainedInitializer(t)
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(init, ext, engine.Config{Warmup: -1, MaxSessions: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		eng.Close(ctx)
	})
	svc := &Service{Store: NewStore(), Engine: eng}
	h := svc.Handler()

	body, err := json.Marshal(target.Chat.Log.Messages()[:4])
	if err != nil {
		t.Fatal(err)
	}
	post := func(channel string) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/api/live/chat?channel="+channel, bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	if rec := post("cap-a"); rec.Code != http.StatusAccepted {
		t.Fatalf("first channel = %d, want 202: %s", rec.Code, rec.Body)
	}
	rec := post("cap-b")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second channel = %d, want 429: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("MaxSessions 429 missing Retry-After")
	}
	if svc.shed.sessionsCap.Load() == 0 {
		t.Error("sessions_cap shed counter not incremented")
	}
}

// TestHealthzExposesLatencyAndShed: after real traffic, GET /api/healthz
// reports per-endpoint latency quantiles and the shed counters — the
// operator's view of who is being told to back off and what the tails
// look like, without scraping logs.
func TestHealthzExposesLatencyAndShed(t *testing.T) {
	init, target := trainedInitializer(t)
	svc := &Service{Store: NewStore(), Engine: testEngine(t, init)}
	h := svc.Handler()

	body, err := json.Marshal(target.Chat.Log.Messages()[:8])
	if err != nil {
		t.Fatal(err)
	}
	req := httptest.NewRequest(http.MethodPost, "/api/live/chat?channel=hz", bytes.NewReader(body))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("ingest = %d: %s", rec.Code, rec.Body)
	}
	for i := 0; i < 3; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/live/dots?channel=hz", nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("dots read = %d", rec.Code)
		}
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("healthz = %d", rec.Code)
	}
	var hr HealthResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &hr); err != nil {
		t.Fatal(err)
	}
	if hr.Shed == nil {
		t.Fatal("healthz shed map missing")
	}
	for _, key := range []string{"live_chat", "live_dots"} {
		row, ok := hr.Latency[key]
		if !ok {
			t.Fatalf("healthz latency missing %q (have %v)", key, hr.Latency)
		}
		if row.Count == 0 || row.P50Ms < 0 || row.P99Ms < row.P50Ms {
			t.Errorf("healthz latency[%s] = %+v, want count > 0 and p50 <= p99", key, row)
		}
	}
	// /api/healthz itself is not timed: monitoring must not pollute the
	// serving quantiles.
	if _, ok := hr.Latency["healthz"]; ok {
		t.Error("healthz latency includes healthz itself")
	}
}

// TestFlashCrowdOverloadDrill is the survival drill: one channel of 64
// goes 100×-hot (several producers stampeding batches) while the 63 cold
// channels keep serving polls, SSE subscriptions, and their own trickle
// of writes, against a deliberately small backlog budget and a 2-worker
// detection pool. Invariants, not timings:
//
//   - cold-channel reads NEVER fail — reads are not admission-controlled;
//   - every shed write is a 429/503 WITH Retry-After;
//   - the flash channel's mailbox never holds more than the backlog budget
//     plus one batch per stampeding producer (admission reads the backlog
//     before it enqueues, without a lock);
//   - after the stampede drains, every channel's dot history is gap-free
//     (HTTP pages splice exactly onto the engine's own history).
//
// Run with -race: the point is admission checks, shed counters, and
// latency histograms racing real traffic.
func TestFlashCrowdOverloadDrill(t *testing.T) {
	init, target := trainedInitializer(t)
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(init, ext, engine.Config{Warmup: -1, Threshold: 0.01, SessionWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := eng.Close(ctx); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	svc := &Service{
		Store:             NewStore(),
		Engine:            eng,
		MaxChannelBacklog: 8,
		MaxInflightWrites: 128,
	}
	h := svc.Handler()

	const (
		channels       = 64
		flashCh        = 42
		flashProducers = 3
	)
	name := func(i int) string { return fmt.Sprintf("drill-%02d", i) }
	src := target.Chat.Log.Messages()

	type chanClock struct {
		mu    sync.Mutex
		clock float64
		seq   int
	}
	clocks := make([]chanClock, channels)

	var shedCount, accepted atomic.Int64
	flashBacklog := 0 // deepest the flash channel's mailbox got; guarded by its clock lock
	// writeBatch posts n messages to channel ch under its clock lock (one
	// logical producer stream per channel — the engine rejects
	// out-of-order time). Sheds advance the clock but not the history;
	// that is fine: monotonicity is the contract, not density.
	writeBatch := func(ch, n int) {
		c := &clocks[ch]
		c.mu.Lock()
		batch := make([]chat.Message, n)
		for i := range batch {
			m := src[(c.seq+i)%len(src)]
			c.clock += 0.05
			m.Time = c.clock
			batch[i] = m
		}
		c.seq += n
		body, err := json.Marshal(batch)
		if err != nil {
			c.mu.Unlock()
			t.Error(err)
			return
		}
		req := httptest.NewRequest(http.MethodPost, "/api/live/chat?channel="+name(ch), bytes.NewReader(body))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		// A mailbox is deepest right after an enqueue.
		if ch == flashCh && rec.Code == http.StatusAccepted {
			if sess, ok := eng.Sessions().Get(name(ch)); ok {
				flashBacklog = max(flashBacklog, sess.Pending())
			}
		}
		c.mu.Unlock()
		switch rec.Code {
		case http.StatusAccepted:
			accepted.Add(1)
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			shedCount.Add(1)
			if rec.Header().Get("Retry-After") == "" {
				t.Errorf("shed %d on %s missing Retry-After", rec.Code, name(ch))
			}
		default:
			t.Errorf("write to %s = %d, want 202/429/503: %s", name(ch), rec.Code, rec.Body)
		}
	}

	// Prime every channel so sessions exist for readers and subscribers.
	for ch := 0; ch < channels; ch++ {
		writeBatch(ch, 4)
	}

	var done atomic.Bool
	var writers, readers sync.WaitGroup

	// The stampede: three producers hammer the flash channel.
	for w := 0; w < flashProducers; w++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < 40; i++ {
				writeBatch(flashCh, 32)
			}
		}()
	}
	// Cold channels keep their normal trickle.
	writers.Add(1)
	go func() {
		defer writers.Done()
		for round := 0; round < 4; round++ {
			for ch := 0; ch < channels; ch++ {
				if ch != flashCh {
					writeBatch(ch, 4)
				}
			}
		}
	}()

	// Cold pollers: reads are never admission-controlled, so anything but
	// a 200 is a failure.
	for p := 0; p < 3; p++ {
		readers.Add(1)
		go func(p int) {
			defer readers.Done()
			for !done.Load() {
				ch := (p*5 + int(accepted.Load())) % channels
				if ch == flashCh {
					ch = (ch + 1) % channels
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/live/dots?channel="+name(ch), nil))
				if rec.Code != http.StatusOK {
					t.Errorf("cold read %s = %d during flash crowd, want 200", name(ch), rec.Code)
					return
				}
				runtime.Gosched()
			}
		}(p)
	}
	// SSE subscribers on a cold channel and the flash channel itself.
	for _, ch := range []int{2, flashCh} {
		stream, err := svc.SubscribeDots(name(ch), 0)
		if err != nil {
			t.Fatalf("subscribe %s: %v", name(ch), err)
		}
		readers.Add(1)
		go func() {
			defer readers.Done()
			defer stream.Close()
			for !done.Load() {
				if _, ok := stream.Pop(); !ok {
					runtime.Gosched()
				}
			}
		}()
	}

	writers.Wait()
	done.Store(true)
	readers.Wait()
	t.Logf("drill: %d accepted, %d shed, flash backlog peaked at %d", accepted.Load(), shedCount.Load(), flashBacklog)
	if bound := svc.MaxChannelBacklog + flashProducers; flashBacklog > bound {
		t.Errorf("flash channel's mailbox reached %d batches, want <= %d (budget %d + %d producers): admission did not bound it",
			flashBacklog, bound, svc.MaxChannelBacklog, flashProducers)
	}

	// Let the mailboxes drain fully before auditing histories.
	deadline := time.Now().Add(30 * time.Second)
	for ch := 0; ch < channels; ch++ {
		sess, ok := eng.Sessions().Get(name(ch))
		if !ok {
			t.Fatalf("session %s missing", name(ch))
		}
		for sess.Pending() > 0 {
			if time.Now().After(deadline) {
				t.Fatalf("%s mailbox stuck at %d", name(ch), sess.Pending())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Gap-free histories: the HTTP view must splice exactly onto the
	// engine's, and a mid-cursor page must be exactly the suffix.
	getDots := func(ch, cursor int) LiveDotsResponse {
		rec := httptest.NewRecorder()
		url := fmt.Sprintf("/api/live/dots?channel=%s&cursor=%d", name(ch), cursor)
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, url, nil))
		if rec.Code != http.StatusOK {
			t.Fatalf("audit read %s = %d", name(ch), rec.Code)
		}
		var resp LiveDotsResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for _, ch := range []int{0, 2, flashCh, channels - 1} {
		sess, _ := eng.Sessions().Get(name(ch))
		engDots, engCursor := sess.Dots(0)
		full := getDots(ch, 0)
		if full.Cursor != engCursor || len(full.Dots) != len(engDots) {
			t.Fatalf("%s: HTTP history (%d dots, cursor %d) != engine history (%d dots, cursor %d)",
				name(ch), len(full.Dots), full.Cursor, len(engDots), engCursor)
		}
		for i := range engDots {
			if full.Dots[i].Time != engDots[i].Time {
				t.Fatalf("%s: dot %d time %v != engine %v — history gap",
					name(ch), i, full.Dots[i].Time, engDots[i].Time)
			}
		}
		if half := len(engDots) / 2; half > 0 {
			page := getDots(ch, half)
			if len(page.Dots) != len(engDots)-half || page.Cursor != engCursor {
				t.Fatalf("%s: page from %d has %d dots cursor %d, want %d dots cursor %d",
					name(ch), half, len(page.Dots), page.Cursor, len(engDots)-half, engCursor)
			}
			if len(page.Dots) > 0 && page.Dots[0].Time != engDots[half].Time {
				t.Fatalf("%s: page from %d starts at %v, want %v", name(ch), half, page.Dots[0].Time, engDots[half].Time)
			}
		}
	}

	// The flash channel's history is bounded by what was ACCEPTED — sheds
	// must not leave ghost messages.
	if hist := svc.shed.snapshot(); hist["channel_backlog"] != uint64(shedCount.Load()) {
		// Global-inflight sheds also land in shedCount; the split just has
		// to add up.
		var total uint64
		for _, n := range hist {
			total += n
		}
		if total != uint64(shedCount.Load()) {
			t.Errorf("shed counters %v sum to %d, drill observed %d", hist, total, shedCount.Load())
		}
	}
}

// blockingSource parks a refine job inside its first Interactions call
// until release is closed — a job that holds its admission slot for as
// long as the test needs the queue full.
type blockingSource struct {
	entered chan struct{}
	release chan struct{}
	once    sync.Once
}

func (b *blockingSource) Interactions(float64) []play.Play {
	b.once.Do(func() { close(b.entered) })
	<-b.release
	return nil
}

// TestRefineShedSkipsSessionize: POST /api/refine snapshots the video's
// events on the request goroutine but sessionizes them on the refine
// worker, so a POST the full queue sheds with 429 never scans the log —
// and an admitted job still refines against exactly the plays the old
// eager snapshot produced.
func TestRefineShedSkipsSessionize(t *testing.T) {
	init, target := trainedInitializer(t)
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(init, ext, engine.Config{Warmup: -1, MaxQueuedRefines: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		eng.Close(ctx)
	})
	store := NewStore()
	svc := &Service{Store: store, Engine: eng}
	h := svc.Handler()

	dots, err := init.Detect(target.Chat.Log, target.Video.Duration, 3)
	if err != nil || len(dots) == 0 {
		t.Fatalf("Detect = %d dots, err %v", len(dots), err)
	}
	if err := store.PutVideo(VideoRecord{
		ID: "vod", Duration: target.Video.Duration, Chat: target.Chat.Log, RedDots: dots,
	}); err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRand(11)
	var events []play.Event
	for _, d := range dots {
		hl, _ := sim.NearestHighlight(target.Video, d.Time)
		for u := 0; u < 12; u++ {
			events = append(events, sim.SimulateViewer(rng, fmt.Sprintf("u%d", u), target.Video, d.Time, hl, sim.DefaultViewerBehavior())...)
		}
	}
	if err := store.LogEvents("vod", events); err != nil {
		t.Fatal(err)
	}

	// The lazy source itself: nothing sessionized until the extractor
	// asks, then once, and equal to the eager result.
	src := &snapshotPlaySource{events: store.Events("vod")}
	if src.plays != nil {
		t.Fatal("snapshotPlaySource sessionized before its first use")
	}
	want := play.Sessionize(store.Events("vod"))
	first := src.Interactions(0)
	if !reflect.DeepEqual(first, want) || len(want) == 0 {
		t.Fatalf("lazy plays = %d, eager = %d; want equal and non-empty", len(first), len(want))
	}
	if again := src.Interactions(1); &again[0] != &first[0] {
		t.Fatal("second Interactions call re-sessionized")
	}

	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/refine?video=vod", nil))
		return rec
	}

	// Fill the queue's single slot with a job that will not finish.
	blocker := &blockingSource{entered: make(chan struct{}), release: make(chan struct{})}
	held, err := eng.Refine().Enqueue("vod", dots[:1], blocker, nil)
	if err != nil {
		t.Fatal(err)
	}
	<-blocker.entered
	rec := post()
	if rec.Code != http.StatusTooManyRequests || rec.Header().Get("Retry-After") == "" {
		t.Fatalf("refine against a full queue = %d (Retry-After %q), want 429: %s",
			rec.Code, rec.Header().Get("Retry-After"), rec.Body)
	}
	close(blocker.release)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if _, err := eng.Refine().Wait(ctx, held.ID); err != nil {
		t.Fatal(err)
	}

	// An admitted job refines against the enqueue-time snapshot, with
	// the same outcome as sessionizing up front.
	rec = post()
	if rec.Code != http.StatusAccepted {
		t.Fatalf("refine = %d, want 202: %s", rec.Code, rec.Body)
	}
	var accepted RefineJobResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &accepted); err != nil {
		t.Fatal(err)
	}
	job, err := eng.Refine().Wait(ctx, accepted.Job)
	if err != nil {
		t.Fatal(err)
	}
	if len(job.Results) != len(dots) {
		t.Fatalf("job refined %d dots, want %d", len(job.Results), len(dots))
	}
	eager := staticPlays(want)
	for i, d := range dots {
		seed := core.Interval{Start: d.Time, End: d.Time + ext.Config().DefaultSpan}
		if b, _ := ext.Refine(seed, eager); job.Results[i].Boundary != b {
			t.Errorf("dot %d: job boundary %+v, eager-snapshot boundary %+v", i, job.Results[i].Boundary, b)
		}
	}
}

type staticPlays []play.Play

func (s staticPlays) Interactions(float64) []play.Play { return s }
