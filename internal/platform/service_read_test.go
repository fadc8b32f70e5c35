package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/play"
)

// get performs a GET with an optional If-None-Match header and returns
// status, ETag, and body.
func condGet(t *testing.T, url, inm string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, resp.Header.Get("ETag"), body
}

// liveTestEngine builds an engine tuned to emit plentiful dots, so
// version-invalidation is observable within one simulated stream.
func liveTestEngine(t *testing.T, init *core.Initializer) *engine.Engine {
	t.Helper()
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(init, ext, engine.Config{Warmup: -1, Threshold: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := eng.Close(ctx); err != nil {
			t.Errorf("engine close: %v", err)
		}
	})
	return eng
}

// ingestLive posts one chat batch and fails on a non-202.
func ingestLive(t *testing.T, base, channel string, msgs []chat.Message) {
	t.Helper()
	body, err := json.Marshal(msgs)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(base+"/api/live/chat?channel="+channel, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("live chat status = %d, want 202", resp.StatusCode)
	}
}

// waitCursor polls /api/live/dots until the cursor reaches at least min
// (the asynchronous mailbox has drained far enough), returning the last
// response.
func waitCursor(t *testing.T, base, channel string, min int) LiveDotsResponse {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		r, err := http.Get(base + "/api/live/dots?channel=" + channel)
		if err != nil {
			t.Fatal(err)
		}
		var dots LiveDotsResponse
		if err := json.NewDecoder(r.Body).Decode(&dots); err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if dots.Cursor >= min {
			return dots
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor stuck at %d, want >= %d", dots.Cursor, min)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestLiveDotsETagContract drives the documented conditional-GET contract
// end to end: every 200 carries a strong ETag; echoing it back yields a
// bodyless 304 while nothing changed; a new dot emission changes the
// version, so the same If-None-Match gets a fresh 200 with a new ETag;
// distinct cursors get distinct validators; and serving under read load
// never perturbs session state (watermark, pending work, dot history).
func TestLiveDotsETagContract(t *testing.T) {
	init, target := trainedInitializer(t)
	svc := &Service{Store: NewStore(), Engine: liveTestEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	msgs := target.Chat.Log.Messages()
	half := len(msgs) / 2
	ingestLive(t, srv.URL, "etag-ch", msgs[:half])
	first := waitCursor(t, srv.URL, "etag-ch", 1)

	url := srv.URL + "/api/live/dots?channel=etag-ch"
	status, etag, body := condGet(t, url, "")
	if status != http.StatusOK || etag == "" {
		t.Fatalf("GET = %d with ETag %q, want 200 with a validator", status, etag)
	}

	// Steady-state poller: nothing changed, so the echo costs no bytes.
	status304, etag304, body304 := condGet(t, url, etag)
	if status304 != http.StatusNotModified || len(body304) != 0 {
		t.Fatalf("conditional GET = %d with %d body bytes, want bodyless 304", status304, len(body304))
	}
	if etag304 != etag {
		t.Fatalf("304 ETag %q != 200 ETag %q", etag304, etag)
	}

	// RFC 7232 wildcard: If-None-Match: * matches any current
	// representation.
	if s, _, b := condGet(t, url, "*"); s != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("If-None-Match: * = %d with %d body bytes, want bodyless 304", s, len(b))
	}

	// Distinct cursors are distinct resources with distinct validators.
	statusC, etagC, bodyC := condGet(t, url+"&cursor=1", "")
	if statusC != http.StatusOK || etagC == etag {
		t.Fatalf("cursor=1 GET = %d ETag %q, want 200 with a different validator than %q", statusC, etagC, etag)
	}
	if bytes.Equal(bodyC, body) && first.Cursor > 1 {
		t.Error("cursor=1 body identical to cursor=0 body")
	}

	sess, ok := svc.Engine.Sessions().Get("etag-ch")
	if !ok {
		t.Fatal("session vanished")
	}
	wmBefore := sess.Watermark()
	verBefore := sess.DotsVersion()
	for i := 0; i < 50; i++ { // read load: cache hits and 304s
		condGet(t, url, "")
		condGet(t, url, etag)
	}
	if wm := sess.Watermark(); wm != wmBefore {
		t.Errorf("read load moved the watermark: %g -> %g", wmBefore, wm)
	}
	if ver := sess.DotsVersion(); ver != verBefore {
		t.Errorf("read load moved the dot version: %d -> %d", verBefore, ver)
	}
	if again := waitCursor(t, srv.URL, "etag-ch", 0); again.Cursor != first.Cursor {
		t.Errorf("read load changed the cursor: %d -> %d", first.Cursor, again.Cursor)
	}

	// New emissions invalidate: feed the rest of the stream, wait for
	// more dots, and the old validator must stop matching.
	ingestLive(t, srv.URL, "etag-ch", msgs[half:])
	resp, err := http.Post(srv.URL+"/api/live/advance?channel=etag-ch&now=1e9", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitCursor(t, srv.URL, "etag-ch", first.Cursor+1)

	statusNew, etagNew, bodyNew := condGet(t, url, etag)
	if statusNew != http.StatusOK {
		t.Fatalf("conditional GET after emission = %d, want 200 (stale validator)", statusNew)
	}
	if etagNew == etag {
		t.Error("ETag unchanged although dots were emitted")
	}
	if bytes.Equal(bodyNew, body) {
		t.Error("body unchanged although dots were emitted")
	}
}

// TestLiveDotsReadDifferential proves the fast lane changes no observable
// bytes: cached, uncached (DisableReadCache), and repeat-cached responses
// for the same (channel, cursor, version) are byte-identical, and agree
// with a from-scratch encoding of the engine's own state.
func TestLiveDotsReadDifferential(t *testing.T) {
	init, target := trainedInitializer(t)
	store := NewStore()
	eng := liveTestEngine(t, init)
	cached := &Service{Store: store, Engine: eng}
	uncached := &Service{Store: store, Engine: eng, DisableReadCache: true}
	srvCached := httptest.NewServer(cached.Handler())
	defer srvCached.Close()
	srvUncached := httptest.NewServer(uncached.Handler())
	defer srvUncached.Close()

	msgs := target.Chat.Log.Messages()
	ingestLive(t, srvCached.URL, "diff-ch", msgs)
	final := waitCursor(t, srvCached.URL, "diff-ch", 1)

	for _, cursor := range []int{0, 1, final.Cursor, final.Cursor + 50} {
		q := fmt.Sprintf("/api/live/dots?channel=diff-ch&cursor=%d", cursor)
		s1, e1, b1 := condGet(t, srvCached.URL+q, "") // cold: fills the cache
		s2, e2, b2 := condGet(t, srvCached.URL+q, "") // hot: serves from it
		s3, e3, b3 := condGet(t, srvUncached.URL+q, "")
		if s1 != 200 || s2 != 200 || s3 != 200 {
			t.Fatalf("cursor %d: statuses %d/%d/%d, want all 200", cursor, s1, s2, s3)
		}
		if !bytes.Equal(b1, b2) || !bytes.Equal(b1, b3) {
			t.Fatalf("cursor %d: cached/hot/uncached bodies diverge:\n%s\n%s\n%s", cursor, b1, b2, b3)
		}
		if e1 != e2 || e1 != e3 {
			t.Fatalf("cursor %d: ETags diverge: %q %q %q", cursor, e1, e2, e3)
		}

		// And all of them agree with a from-scratch encoding of the
		// engine's state through the public API.
		sess, _ := eng.Sessions().Get("diff-ch")
		dots, next := sess.Dots(cursor)
		if dots == nil {
			dots = []core.RedDot{}
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(LiveDotsResponse{Channel: "diff-ch", Dots: dots, Cursor: next}); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(b1, want.Bytes()) {
			t.Fatalf("cursor %d: served bytes diverge from reference encoding:\n%s\n%s", cursor, b1, want.Bytes())
		}
	}
}

// TestHighlightsETagAndInvalidation pins the highlights half of the
// contract: ETags vary by k, 304 while the revision holds, and both
// SetRedDots and refine completion (SetRefined) invalidate.
func TestHighlightsETagAndInvalidation(t *testing.T) {
	init, target := trainedInitializer(t)
	store := NewStore()
	svc := &Service{Store: store, Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	dots := []core.RedDot{{Time: 10, Score: 0.9}, {Time: 20, Score: 0.8}, {Time: 30, Score: 0.7}}
	if err := store.PutVideo(VideoRecord{
		ID: "vod", Duration: target.Video.Duration, Chat: target.Chat.Log, RedDots: dots,
	}); err != nil {
		t.Fatal(err)
	}

	url := srv.URL + "/api/highlights?video=vod&k=2"
	status, etag, body := condGet(t, url, "")
	if status != 200 || etag == "" {
		t.Fatalf("GET = %d, ETag %q", status, etag)
	}
	var hr HighlightsResponse
	if err := json.Unmarshal(body, &hr); err != nil {
		t.Fatal(err)
	}
	if len(hr.Dots) != 2 {
		t.Fatalf("k=2 served %d dots", len(hr.Dots))
	}

	if s, _, b := condGet(t, url, etag); s != http.StatusNotModified || len(b) != 0 {
		t.Fatalf("conditional GET = %d with %d bytes, want bodyless 304", s, len(b))
	}
	// k is part of the resource: a different k must not share validators.
	if _, etag3, _ := condGet(t, srv.URL+"/api/highlights?video=vod&k=3", ""); etag3 == etag {
		t.Error("k=3 shares the k=2 ETag")
	}

	// SetRedDots invalidates.
	if err := store.SetRedDots("vod", []core.RedDot{{Time: 11}, {Time: 21}}); err != nil {
		t.Fatal(err)
	}
	s, etag2, body2 := condGet(t, url, etag)
	if s != 200 || etag2 == etag || bytes.Equal(body2, body) {
		t.Fatalf("after SetRedDots: status %d, etag %q vs %q — stale cache served", s, etag2, etag)
	}

	// Refine completion (SetRefined, what the refine job's onDone runs)
	// invalidates too.
	if err := store.SetRefined("vod", []core.RedDot{{Time: 12}, {Time: 22}}, []core.Interval{{Start: 12, End: 40}}); err != nil {
		t.Fatal(err)
	}
	s, etagR, bodyR := condGet(t, url, etag2)
	if s != 200 || etagR == etag2 || bytes.Equal(bodyR, body2) {
		t.Fatalf("after SetRefined: status %d, etag %q vs %q — stale cache served", s, etagR, etag2)
	}
	var refined HighlightsResponse
	if err := json.Unmarshal(bodyR, &refined); err != nil {
		t.Fatal(err)
	}
	if len(refined.Boundaries) != 1 || refined.Dots[0].Time != 12 {
		t.Fatalf("refined response stale: %+v", refined)
	}
}

// countingBackend counts SetRedDots calls — the observable footprint of a
// cold-start detection landing its result — and HighlightView loads, of
// which a request that takes detection leadership makes one more than a
// request that does not.
type countingBackend struct {
	Backend
	mu         sync.Mutex
	setRedDots int
	views      atomic.Int64
}

func (c *countingBackend) HighlightView(id string) (HighlightView, bool) {
	c.views.Add(1)
	return c.Backend.HighlightView(id)
}

func (c *countingBackend) SetRedDots(id string, dots []core.RedDot) error {
	c.mu.Lock()
	c.setRedDots++
	c.mu.Unlock()
	return c.Backend.SetRedDots(id, dots)
}

func (c *countingBackend) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.setRedDots
}

// TestHighlightsColdStartSingleFlight fires N concurrent first reads at a
// never-detected video and requires the thundering herd to collapse onto
// ONE Initializer.Detect run: exactly one SetRedDots lands, every request
// gets an identical 200.
func TestHighlightsColdStartSingleFlight(t *testing.T) {
	init, target := trainedInitializer(t)
	cb := &countingBackend{Backend: NewMemoryBackend(MemoryConfig{})}
	store := NewStoreWith(cb)
	svc := &Service{Store: store, Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if err := store.PutVideo(VideoRecord{
		ID: "cold", Duration: target.Video.Duration, Chat: target.Chat.Log,
	}); err != nil {
		t.Fatal(err)
	}

	const herd = 8
	bodies := make([][]byte, herd)
	statuses := make([]int, herd)
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Get(srv.URL + "/api/highlights?video=cold&k=3")
			if err != nil {
				t.Error(err)
				return
			}
			defer resp.Body.Close()
			statuses[i] = resp.StatusCode
			bodies[i], _ = io.ReadAll(resp.Body)
		}(i)
	}
	wg.Wait()

	for i := 0; i < herd; i++ {
		if statuses[i] != http.StatusOK {
			t.Fatalf("request %d: status %d", i, statuses[i])
		}
		if !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d served a different body:\n%s\n%s", i, bodies[i], bodies[0])
		}
	}
	if got := cb.count(); got != 1 {
		t.Fatalf("cold start ran detection %d times, want exactly 1 (single-flight)", got)
	}
}

// TestHighlightsShortVideoKeepsRefinedDots is the regression test for the
// re-detect-and-clobber bug: a video with fewer detectable dots than the
// requested k used to look "cold" on every GET, so each one re-ran Detect
// and overwrote the dots the Extractor had refined — and, on a durable
// store, logged a set_dots record and bumped the revision per request.
func TestHighlightsShortVideoKeepsRefinedDots(t *testing.T) {
	init, target := trainedInitializer(t)
	fb, err := OpenFileBackend(t.TempDir(), FileConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cb := &countingBackend{Backend: fb}
	store := NewStoreWith(cb)
	defer store.Close()
	svc := &Service{Store: store, Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	// Every dot the video has, then refined the way a finished refine job
	// persists them: times moved to the boundary starts.
	all, err := init.Detect(target.Chat.Log, target.Video.Duration, 1<<20)
	if err != nil || len(all) == 0 {
		t.Fatalf("Detect = %d dots, err %v", len(all), err)
	}
	if err := store.PutVideo(VideoRecord{
		ID: "short", Duration: target.Video.Duration, Chat: target.Chat.Log, RedDots: all,
	}); err != nil {
		t.Fatal(err)
	}
	refined := append([]core.RedDot(nil), all...)
	spans := make([]core.Interval, len(all))
	for i := range refined {
		refined[i].Time += 1.5
		spans[i] = core.Interval{Start: refined[i].Time, End: refined[i].Time + 20}
	}
	if err := store.SetRefined("short", refined, spans); err != nil {
		t.Fatal(err)
	}
	walRecords := func() int {
		fb.mu.Lock()
		defer fb.mu.Unlock()
		return fb.recs
	}
	rev, recs := store.Revision("short"), walRecords()

	url := fmt.Sprintf("%s/api/highlights?video=short&k=%d", srv.URL, len(all)+7)
	for get := 1; get <= 2; get++ {
		views := cb.views.Load()
		status, _, body := condGet(t, url, "")
		if status != http.StatusOK {
			t.Fatalf("GET %d = %d: %s", get, status, body)
		}
		var hr HighlightsResponse
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatal(err)
		}
		if len(hr.Dots) != len(refined) || len(hr.Boundaries) != len(spans) {
			t.Fatalf("GET %d served %d dots, %d boundaries; want %d refined", get, len(hr.Dots), len(hr.Boundaries), len(refined))
		}
		for i := range refined {
			if hr.Dots[i].Time != refined[i].Time || hr.Boundaries[i] != spans[i] {
				t.Fatalf("GET %d clobbered refined dot %d: served %+v %+v, want time %v span %+v",
					get, i, hr.Dots[i], hr.Boundaries[i], refined[i].Time, spans[i])
			}
		}
		if got := cb.count(); got != 0 {
			t.Fatalf("GET %d overwrote the stored dots (%d SetRedDots)", get, got)
		}
		if r, n := store.Revision("short"), walRecords(); r != rev || n != recs {
			t.Fatalf("GET %d moved the store: revision %d → %d, wal records %d → %d", get, rev, r, recs, n)
		}
		// The second GET must not even take detection leadership: its
		// only store load is the handler's own, the body comes from the
		// response cache.
		if loads := cb.views.Load() - views; get == 2 && loads != 1 {
			t.Fatalf("second GET loaded the view %d times, want 1 (no re-detection)", loads)
		}
	}
}

// TestHighlightsLargerKKeepsRefinedPrefix is the regression test for the
// larger-k overwrite: asking for more dots than are stored re-runs Detect,
// and its result used to replace the refined dots wholesale while their
// boundaries stayed, now paired with raw dot times. The stored dots must
// stay and only the new ones be appended; and a smaller k must cut the
// boundaries along with the dots.
func TestHighlightsLargerKKeepsRefinedPrefix(t *testing.T) {
	init, target := trainedInitializer(t)
	store := NewStore()
	svc := &Service{Store: store, Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	raw, err := init.Detect(target.Chat.Log, target.Video.Duration, 3)
	if err != nil || len(raw) != 3 {
		t.Fatalf("Detect = %d dots, err %v; the fixture needs 3", len(raw), err)
	}
	if err := store.PutVideo(VideoRecord{
		ID: "vod", Duration: target.Video.Duration, Chat: target.Chat.Log,
	}); err != nil {
		t.Fatal(err)
	}
	get := func(k int) HighlightsResponse {
		t.Helper()
		status, _, body := condGet(t, fmt.Sprintf("%s/api/highlights?video=vod&k=%d", srv.URL, k), "")
		if status != http.StatusOK {
			t.Fatalf("GET k=%d = %d: %s", k, status, body)
		}
		var hr HighlightsResponse
		if err := json.Unmarshal(body, &hr); err != nil {
			t.Fatal(err)
		}
		return hr
	}

	get(2)
	// A finished refine job over the two stored dots.
	refined := []core.RedDot{raw[0], raw[1]}
	spans := make([]core.Interval, len(refined))
	for i := range refined {
		refined[i].Time += 7
		spans[i] = core.Interval{Start: refined[i].Time, End: refined[i].Time + 20}
	}
	if err := store.SetRefined("vod", refined, spans); err != nil {
		t.Fatal(err)
	}

	if hr := get(1); len(hr.Dots) != 1 || len(hr.Boundaries) != 1 ||
		hr.Dots[0].Time != refined[0].Time || hr.Boundaries[0] != spans[0] {
		t.Fatalf("GET k=1 served %+v %+v, want refined dot %v with span %+v", hr.Dots, hr.Boundaries, refined[0].Time, spans[0])
	}
	hr := get(3)
	if len(hr.Dots) != 3 || len(hr.Boundaries) != 2 {
		t.Fatalf("GET k=3 served %d dots, %d boundaries; want 3 and 2", len(hr.Dots), len(hr.Boundaries))
	}
	for i := range refined {
		if hr.Dots[i].Time != refined[i].Time || hr.Boundaries[i] != spans[i] {
			t.Fatalf("GET k=3 replaced refined dot %d: served %+v %+v, want time %v span %+v",
				i, hr.Dots[i], hr.Boundaries[i], refined[i].Time, spans[i])
		}
	}
	if hr.Dots[2] != raw[2] {
		t.Fatalf("GET k=3 appended %+v, want the third detected dot %+v", hr.Dots[2], raw[2])
	}
}

// TestRefineResponsePollStability is the regression test for the
// refineResponse aliasing bug: adjusting served dot times to the refined
// boundary starts must never write through to the job's retained dots —
// repeated polls serve byte-identical payloads and the job snapshot keeps
// the original detection times.
func TestRefineResponsePollStability(t *testing.T) {
	job := engine.RefineJob{
		ID:      "refine-1",
		VideoID: "vod",
		Status:  engine.JobDone,
		Dots:    []core.RedDot{{Time: 100, Score: 0.9}, {Time: 200, Score: 0.8}},
		Results: []core.HighlightResult{
			{Dot: core.RedDot{Time: 100}, Boundary: core.Interval{Start: 90, End: 130}},
			{Dot: core.RedDot{Time: 200}, Boundary: core.Interval{Start: 185, End: 240}},
		},
	}

	first := refineResponse(job)
	second := refineResponse(job)
	if first.Dots[0].Time != 90 || first.Dots[1].Time != 185 {
		t.Fatalf("response dots not adjusted to boundary starts: %+v", first.Dots)
	}
	if job.Dots[0].Time != 100 || job.Dots[1].Time != 200 {
		t.Fatalf("refineResponse mutated the retained job dots: %+v", job.Dots)
	}
	a, err := json.Marshal(first)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("poll-twice payloads diverge:\n%s\n%s", a, b)
	}
}

// TestRefineWithoutInteractionsConflicts: a video nobody has interacted with
// has nothing to refine against — every step would see zero plays, classify
// Type I, and the job would walk each dot back MoveBack × MaxIterations and
// persist that. POST /api/refine answers 409, enqueues nothing and writes
// nothing, on the in-memory and on the durable backend.
func TestRefineWithoutInteractionsConflicts(t *testing.T) {
	init, err := core.NewInitializer(core.DefaultInitializerConfig())
	if err != nil {
		t.Fatal(err)
	}
	fb := testFileBackend(t, t.TempDir(), FileConfig{})
	defer fb.Close()
	for _, tc := range []struct {
		name  string
		store *Store
	}{
		{"memory", NewStore()},
		{"file", NewStoreWith(fb)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc := &Service{Store: tc.store, Engine: testEngine(t, init)}
			want := VideoRecord{
				ID: "vod", Duration: 600,
				RedDots:    []core.RedDot{{Time: 250, Score: 0.9}, {Time: 400, Score: 0.7}},
				Boundaries: []core.Interval{{Start: 240, End: 270}, {Start: 395, End: 420}},
			}
			if err := tc.store.PutVideo(want); err != nil {
				t.Fatal(err)
			}
			rev, recs := tc.store.Revision("vod"), fb.recs

			rec := httptest.NewRecorder()
			svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/refine?video=vod", nil))
			if rec.Code != http.StatusConflict || !strings.Contains(rec.Body.String(), "no interaction data recorded") {
				t.Fatalf("refine with an empty log = %d %q, want 409", rec.Code, rec.Body.String())
			}
			// Nothing was enqueued: the queue drains at once, and a job that
			// had run would have persisted by then.
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			if err := svc.Engine.Close(ctx); err != nil {
				t.Fatal(err)
			}
			got, _ := tc.store.Video("vod")
			if !reflect.DeepEqual(got.RedDots, want.RedDots) || !reflect.DeepEqual(got.Boundaries, want.Boundaries) {
				t.Errorf("dots %+v boundaries %+v, want them untouched: %+v %+v", got.RedDots, got.Boundaries, want.RedDots, want.Boundaries)
			}
			if tc.store.Revision("vod") != rev || fb.recs != recs {
				t.Errorf("revision %d → %d, WAL records %d → %d; a refused refine must write nothing",
					rev, tc.store.Revision("vod"), recs, fb.recs)
			}
		})
	}
}

// TestRefineStatusPollTwiceHTTP drives the same regression end to end:
// two consecutive GET /api/refine/status polls of a finished job must
// serve byte-identical payloads.
func TestRefineStatusPollTwiceHTTP(t *testing.T) {
	init, target := trainedInitializer(t)
	store := NewStore()
	svc := &Service{Store: store, Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	if err := store.PutVideo(VideoRecord{
		ID: "vod", Duration: target.Video.Duration, Chat: target.Chat.Log,
		RedDots: []core.RedDot{{Time: 50, Score: 0.9}},
	}); err != nil {
		t.Fatal(err)
	}
	if err := store.LogEvents("vod", []play.Event{
		{User: "u1", Type: play.EventPlay, Pos: 48}, {User: "u1", Type: play.EventPause, Pos: 70},
		{User: "u2", Type: play.EventPlay, Pos: 46}, {User: "u2", Type: play.EventPause, Pos: 65},
	}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(srv.URL+"/api/refine?video=vod", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var enq RefineJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&enq); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if _, err := svc.Engine.Refine().Wait(context.Background(), enq.Job); err != nil {
		t.Fatal(err)
	}

	url := srv.URL + "/api/refine/status?job=" + enq.Job
	_, _, poll1 := condGet(t, url, "")
	_, _, poll2 := condGet(t, url, "")
	if !bytes.Equal(poll1, poll2) {
		t.Fatalf("repeated status polls diverge:\n%s\n%s", poll1, poll2)
	}
	var jr RefineJobResponse
	if err := json.Unmarshal(poll1, &jr); err != nil {
		t.Fatal(err)
	}
	if jr.Status != engine.JobDone || len(jr.Dots) != 1 || len(jr.Boundaries) != 1 {
		t.Fatalf("unexpected finished job payload: %s", poll1)
	}
	if jr.Dots[0].Time != jr.Boundaries[0].Start {
		t.Errorf("served dot time %g not adjusted to boundary start %g", jr.Dots[0].Time, jr.Boundaries[0].Start)
	}
}

// countingWriter is a reusable ResponseWriter that counts body bytes and
// keeps nothing: httptest's recorder allocates per response, which would
// drown the serving path's own count.
type countingWriter struct {
	h      http.Header
	status int
	bytes  int
}

func (w *countingWriter) Header() http.Header { return w.h }
func (w *countingWriter) WriteHeader(c int)   { w.status = c }
func (w *countingWriter) Write(p []byte) (int, error) {
	w.bytes += len(p)
	return len(p), nil
}

// TestLiveDotsCacheHitZeroAlloc is the poll lane's allocation contract:
// serving a cached live-dots response — the full 200 from pre-encoded
// bytes, or the bodyless 304 a conditional steady-state poller gets —
// allocates nothing and writes exactly the cached body (or no byte).
func TestLiveDotsCacheHitZeroAlloc(t *testing.T) {
	init, target := trainedInitializer(t)
	eng := liveTestEngine(t, init)
	svc := &Service{Store: NewStore(), Engine: eng}
	sess, err := eng.Sessions().GetOrOpen("hit")
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.Ingest(target.Chat.Log.Messages()...); err != nil {
		t.Fatal(err)
	}
	// Flush returns once the mailbox has processed everything before it.
	if _, err := sess.Flush(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, n := sess.Dots(0); n == 0 {
		t.Fatal("no dots emitted; the test is vacuous")
	}
	prime := httptest.NewRecorder()
	svc.ServeLiveDots(prime, "hit", 0, "")
	if prime.Code != http.StatusOK {
		t.Fatalf("prime GET = %d %s", prime.Code, prime.Body)
	}
	etag := prime.Header().Get("ETag")

	for _, tc := range []struct {
		name, inm string
		status    int
		bytes     int
	}{
		{"hit-200", "", http.StatusOK, prime.Body.Len()},
		{"hit-304", etag, http.StatusNotModified, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := &countingWriter{h: make(http.Header, 4)}
			allocs := testing.AllocsPerRun(1000, func() {
				w.status, w.bytes = 0, 0
				svc.ServeLiveDots(w, "hit", 0, tc.inm)
				if w.status != tc.status || w.bytes != tc.bytes {
					t.Fatalf("cache-hit serve = %d with %d body bytes, want %d with %d",
						w.status, w.bytes, tc.status, tc.bytes)
				}
			})
			if allocs != 0 {
				t.Fatalf("cache-hit serve allocates %.2f allocs/op, want 0", allocs)
			}
		})
	}
}
