package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// postJSON marshals v and POSTs it, returning the response.
func postJSON(t *testing.T, url string, v any) *http.Response {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// referenceDots runs a serial uninterrupted OnlineDetector over msgs.
func referenceDots(t *testing.T, init *core.Initializer, msgs []chat.Message) []core.RedDot {
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
	od.Flush()
	return od.Emitted()
}

// refineViaAPI enqueues a refinement over the service API and polls it to
// completion, returning the refined boundaries.
func refineViaAPI(t *testing.T, baseURL, videoID string) []core.Interval {
	t.Helper()
	resp := postJSON(t, baseURL+"/api/refine?video="+videoID, nil)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("refine status = %d, want 202", resp.StatusCode)
	}
	var job RefineJobResponse
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	deadline := time.Now().Add(60 * time.Second)
	for {
		resp, err := http.Get(baseURL + "/api/refine/status?job=" + job.Job)
		if err != nil {
			t.Fatal(err)
		}
		var st RefineJobResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if st.Status == engine.JobDone {
			return st.Boundaries
		}
		if time.Now().After(deadline) {
			t.Fatalf("refine job stuck in %q", st.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestKillAndRestartRecovery is the end-to-end durability guarantee of the
// persistence layer: a server killed mid-broadcast (no graceful shutdown —
// the engine and backend are simply abandoned) must recover from -data-dir
// with every acknowledged interaction intact and its live channel resumed
// from the last checkpoint, such that the dots emitted after recovery plus
// the pre-crash history exactly equal an uninterrupted run — and refined
// boundaries over the recovered interaction log match refinement over a
// store that never crashed.
func TestKillAndRestartRecovery(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	want := referenceDots(t, init, msgs)
	if len(want) == 0 {
		t.Fatal("reference run emitted nothing; recovery test is vacuous")
	}
	half := len(msgs) / 2
	dir := t.TempDir()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// Interaction events simulated around the first reference dot.
	rng := stats.NewRand(11)
	h, _ := sim.NearestHighlight(target.Video, want[0].Time)
	var events []play.Event
	for i := 0; i < 8; i++ {
		events = append(events,
			sim.SimulateViewer(rng, fmt.Sprintf("u%d", i), target.Video, want[0].Time, h, sim.DefaultViewerBehavior())...)
	}

	// --- Incarnation 1: durable backend, real fsync. ---
	be1, err := OpenFileBackend(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store1 := NewStoreWith(be1)
	eng1, err := engine.New(init, mustExtractor(t), engine.Config{
		Warmup:             -1,
		Checkpoints:        store1,
		CheckpointInterval: -1, // deterministic: we checkpoint explicitly below
	})
	if err != nil {
		t.Fatal(err)
	}
	srv1 := httptest.NewServer((&Service{Store: store1, Engine: eng1}).Handler())

	if err := store1.PutVideo(VideoRecord{
		ID: target.Video.ID, Duration: target.Video.Duration, Chat: target.Chat.Log,
	}); err != nil {
		t.Fatal(err)
	}
	// Acknowledged interactions (204 = fsynced by the durable backend).
	resp := postJSON(t, srv1.URL+"/api/interactions?video="+target.Video.ID, events)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("interactions status = %d", resp.StatusCode)
	}

	// First half of the live broadcast, over the API in batches.
	const channel = "live1"
	for i := 0; i < half; i += 50 {
		end := i + 50
		if end > half {
			end = half
		}
		resp := postJSON(t, srv1.URL+"/api/live/chat?channel="+channel, msgs[i:end])
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("live chat status = %d", resp.StatusCode)
		}
	}
	sess, ok := eng1.Sessions().Get(channel)
	if !ok {
		t.Fatal("live session missing")
	}
	// The last checkpoint before the crash (deterministic stand-in for the
	// interval/on-emit checkpoints, which have already been written too).
	if err := sess.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}

	// KILL: no engine drain, no backend close, no snapshot — the process
	// is gone. Only what the WAL already fsynced survives.
	srv1.Close()

	// --- Incarnation 2: recover from the data dir. ---
	be2, err := OpenFileBackend(dir, FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store2 := NewStoreWith(be2)
	t.Cleanup(func() { store2.Close() })
	eng2, err := engine.New(init, mustExtractor(t), engine.Config{
		Warmup:             -1,
		Checkpoints:        store2,
		CheckpointInterval: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { eng2.Close(ctx) })
	resumed, err := eng2.ResumeSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0] != channel {
		t.Fatalf("resumed = %v, want [%s]", resumed, channel)
	}
	srv2 := httptest.NewServer((&Service{Store: store2, Engine: eng2}).Handler())
	defer srv2.Close()

	// No acknowledged interaction was lost.
	gotEvents, total := store2.EventsPage(target.Video.ID, 0, 0)
	if total != len(events) {
		t.Fatalf("recovered %d events, want %d", total, len(events))
	}
	for i := range events {
		if gotEvents[i] != events[i] {
			t.Fatalf("event %d = %+v, want %+v", i, gotEvents[i], events[i])
		}
	}

	// The resumed session continues from its watermark: the producer feeds
	// only what came after the checkpoint, never re-feeding history.
	sess2, ok := eng2.Sessions().Get(channel)
	if !ok {
		t.Fatal("resumed session not registered")
	}
	if wm := sess2.Watermark(); wm != msgs[half-1].Time {
		t.Fatalf("resumed watermark = %g, want %g", wm, msgs[half-1].Time)
	}
	for i := half; i < len(msgs); i += 50 {
		end := i + 50
		if end > len(msgs) {
			end = len(msgs)
		}
		resp := postJSON(t, srv2.URL+"/api/live/chat?channel="+channel, msgs[i:end])
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post-recovery live chat status = %d", resp.StatusCode)
		}
	}
	// End the broadcast: the response carries the channel's full emission
	// history (pre-crash + post-recovery), which must equal the
	// uninterrupted reference exactly.
	req, err := http.NewRequest(http.MethodDelete, srv2.URL+"/api/live/session?channel="+channel, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var final LiveDotsResponse
	if err := json.NewDecoder(resp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(final.Dots) != len(want) {
		t.Fatalf("recovered run emitted %d dots, want %d:\n got %v\nwant %v",
			len(final.Dots), len(want), final.Dots, want)
	}
	for i := range want {
		if final.Dots[i] != want[i] {
			t.Fatalf("dot %d = %+v, want %+v", i, final.Dots[i], want[i])
		}
	}

	// Refined boundaries over the recovered interaction log must match
	// refinement over a store that never crashed (same dots, same events).
	if err := store2.SetRedDots(target.Video.ID, want); err != nil {
		t.Fatal(err)
	}
	pristine := NewStore()
	if err := pristine.PutVideo(VideoRecord{
		ID: target.Video.ID, Duration: target.Video.Duration, Chat: target.Chat.Log,
	}); err != nil {
		t.Fatal(err)
	}
	if err := pristine.LogEvents(target.Video.ID, events); err != nil {
		t.Fatal(err)
	}
	if err := pristine.SetRedDots(target.Video.ID, want); err != nil {
		t.Fatal(err)
	}
	engP, err := engine.New(init, mustExtractor(t), engine.Config{Warmup: -1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { engP.Close(ctx) })
	srvP := httptest.NewServer((&Service{Store: pristine, Engine: engP}).Handler())
	defer srvP.Close()

	recoveredBounds := refineViaAPI(t, srv2.URL, target.Video.ID)
	pristineBounds := refineViaAPI(t, srvP.URL, target.Video.ID)
	if len(recoveredBounds) != len(pristineBounds) {
		t.Fatalf("boundary counts differ: %d vs %d", len(recoveredBounds), len(pristineBounds))
	}
	for i := range pristineBounds {
		if recoveredBounds[i] != pristineBounds[i] {
			t.Errorf("boundary %d = %+v, want %+v", i, recoveredBounds[i], pristineBounds[i])
		}
	}
}

func mustExtractor(t *testing.T) *core.Extractor {
	t.Helper()
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return ext
}

// TestInteractionsPagination drives the paginated GET /api/interactions
// endpoint end to end.
func TestInteractionsPagination(t *testing.T) {
	init, target := trainedInitializer(t)
	store := NewStore()
	if err := store.PutVideo(VideoRecord{ID: "v1", Duration: 100}); err != nil {
		t.Fatal(err)
	}
	var events []play.Event
	for i := 0; i < 30; i++ {
		events = append(events, play.Event{User: "u", Seq: i, Type: play.EventPlay, Pos: float64(i)})
	}
	if err := store.LogEvents("v1", events); err != nil {
		t.Fatal(err)
	}
	svc := &Service{Store: store, Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	_ = target

	get := func(query string) (InteractionsResponse, int) {
		t.Helper()
		resp, err := http.Get(srv.URL + "/api/interactions" + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var page InteractionsResponse
		if resp.StatusCode == http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
				t.Fatal(err)
			}
		}
		return page, resp.StatusCode
	}

	page, code := get("?video=v1&offset=0&limit=12")
	if code != http.StatusOK || page.Total != 30 || len(page.Events) != 12 || page.Events[0].Seq != 0 {
		t.Fatalf("page 1 = %+v (status %d)", page, code)
	}
	page, _ = get("?video=v1&offset=24&limit=12")
	if len(page.Events) != 6 || page.Events[0].Seq != 24 {
		t.Fatalf("last page = %+v", page)
	}
	page, _ = get("?video=v1&offset=99")
	if len(page.Events) != 0 || page.Total != 30 {
		t.Fatalf("past-the-end = %+v", page)
	}
	if _, code := get("?video=ghost"); code != http.StatusNotFound {
		t.Errorf("unknown video status = %d", code)
	}
	if _, code := get(""); code != http.StatusBadRequest {
		t.Errorf("missing video status = %d", code)
	}
	if _, code := get("?video=v1&offset=-1"); code != http.StatusBadRequest {
		t.Errorf("bad offset status = %d", code)
	}
	if _, code := get("?video=v1&limit=0"); code != http.StatusBadRequest {
		t.Errorf("bad limit status = %d", code)
	}
}
