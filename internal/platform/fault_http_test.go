package platform

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lightor/internal/cluster"
	"lightor/internal/fault"
	"lightor/internal/play"
)

// getHealthz fetches and decodes GET /api/healthz.
func getHealthz(t *testing.T, base string) HealthResponse {
	t.Helper()
	resp, err := http.Get(base + "/api/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	var hr HealthResponse
	if err := json.NewDecoder(resp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	return hr
}

// TestDegradedStoreShedsWritesServesReads is the fail-stop contract at the
// HTTP surface: once a disk fault poisons the WAL, the node keeps serving
// reads from memory, sheds every write with 503 + Retry-After and the
// "degraded" reason, and reports the mode on /api/healthz — it degrades
// instead of crashing or lying about durability.
func TestDegradedStoreShedsWritesServesReads(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	init, target := trainedInitializer(t)
	be, err := OpenFileBackend(t.TempDir(), FileConfig{})
	if err != nil {
		t.Fatal(err)
	}
	store := NewStoreWith(be)
	t.Cleanup(func() { _ = store.Close() })
	svc := &Service{Store: store, Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(srv.Close)

	// Healthy first: the video lands durably and an acknowledged batch of
	// interactions succeeds, so the later assertions are about the fault,
	// not about a broken fixture.
	if err := store.PutVideo(VideoRecord{
		ID: target.Video.ID, Duration: target.Video.Duration, Chat: target.Chat.Log,
	}); err != nil {
		t.Fatal(err)
	}
	events := []play.Event{
		{User: "u1", Seq: 1, Type: play.EventPlay, Pos: 1},
		{User: "u1", Seq: 2, Type: play.EventPause, Pos: 5},
	}
	resp := postJSON(t, srv.URL+"/api/interactions?video="+target.Video.ID, events)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("healthy interactions status = %d, want 204", resp.StatusCode)
	}
	if hr := getHealthz(t, srv.URL); hr.Degraded || len(hr.Failpoints) != 0 {
		t.Fatalf("healthy healthz reports degraded=%v failpoints=%v", hr.Degraded, hr.Failpoints)
	}

	// Disk fault: every fsync fails from here on. The next write's
	// durability wait fails, the WAL poisons, and the backend flips to
	// degraded read-only.
	if err := fault.Arm("wal/sync", "err:simulated disk fault"); err != nil {
		t.Fatal(err)
	}
	resp = postJSON(t, srv.URL+"/api/interactions?video="+target.Video.ID, events)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write during disk fault: status = %d, want 503", resp.StatusCode)
	}

	// The mode is sticky: disarming the failpoint must not resurrect the
	// writer (the page cache may have dropped the unsynced data — see the
	// WAL fail-stop contract).
	fault.DisarmAll()
	resp = postJSON(t, srv.URL+"/api/interactions?video="+target.Video.ID, events)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("write after disarm: status = %d, want 503 (degraded is one-way)", resp.StatusCode)
	}
	if got := resp.Header.Get(ShedReasonHeader); got != "degraded" {
		t.Fatalf("%s = %q, want %q", ShedReasonHeader, got, "degraded")
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After")
	}
	resp.Body.Close()

	// Reads still serve from memory: the acknowledged batch is all there.
	resp, err = http.Get(srv.URL + "/api/interactions?video=" + target.Video.ID)
	if err != nil {
		t.Fatal(err)
	}
	var page InteractionsResponse
	if err := json.NewDecoder(resp.Body).Decode(&page); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// At least the acknowledged batch is served. (A write NACKed by the
	// disk fault may or may not have reached memory before its durability
	// wait failed — that divergence is visible in RAM but can never be
	// persisted, see FileBackend.Close.)
	if resp.StatusCode != http.StatusOK || page.Total < len(events) {
		t.Fatalf("degraded read: status %d total %d, want 200 with >= %d", resp.StatusCode, page.Total, len(events))
	}

	// And healthz says so, with the root cause.
	hr := getHealthz(t, srv.URL)
	if !hr.Degraded || hr.DegradedReason == "" {
		t.Fatalf("degraded healthz: %+v", hr)
	}
	if m := hr.Shed["degraded"]; m < 2 {
		t.Fatalf("shed[degraded] = %d, want >= 2", m)
	}
}

// TestForwardRetriesTransientFault: a single injected transport failure on
// the forwarding path is absorbed by the retry loop — the producer sees
// 202 as if nothing happened, because the buffered body made the second
// attempt byte-identical.
func TestForwardRetriesTransientFault(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "retry-chan"
	nodes := startCluster(t, init, 2, nil)
	owner, other := ownerOf(t, nodes, channel)

	// Exactly the first forward attempt fails.
	if err := fault.Arm(cluster.FailpointForward, "err:injected link flap@nth:1"); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, other.srv.URL+"/api/live/chat?channel="+channel, msgs[:50])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest through flapping link: status = %d, want 202", resp.StatusCode)
	}
	if n := fault.Fires(cluster.FailpointForward); n != 1 {
		t.Fatalf("failpoint fired %d times, want 1", n)
	}
	if _, ok := owner.eng.Sessions().Get(channel); !ok {
		t.Fatal("session missing on owner after retried forward")
	}
}

// TestForwardExhaustedSheds: a peer that fails at the transport level on
// every attempt surfaces as 502 + Retry-After through the shedding path
// (reason "forward_failed"), the failure is counted on healthz, and the
// peer's circuit breaker opens so further forwards fail fast.
func TestForwardExhaustedSheds(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "dead-owner-chan"
	nodes := startCluster(t, init, 2, nil)
	owner, other := ownerOf(t, nodes, channel)

	if err := fault.Arm(cluster.FailpointForward, "err:peer unreachable"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		resp := postJSON(t, other.srv.URL+"/api/live/chat?channel="+channel, msgs[:10])
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadGateway {
			t.Fatalf("POST %d: status = %d, want 502", i, resp.StatusCode)
		}
		if got := resp.Header.Get(ShedReasonHeader); got != "forward_failed" {
			t.Fatalf("POST %d: %s = %q, want forward_failed", i, ShedReasonHeader, got)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("POST %d: missing Retry-After", i)
		}
	}
	// No attempt produced an HTTP response, so nothing was applied.
	if _, ok := owner.eng.Sessions().Get(channel); ok {
		t.Fatal("session opened on owner despite failed forwards")
	}

	hr := getHealthz(t, other.srv.URL)
	if hr.Shed["forward_failed"] < 2 {
		t.Fatalf("shed[forward_failed] = %d, want >= 2", hr.Shed["forward_failed"])
	}
	// 2 POSTs × up to 3 attempts ≥ default breaker threshold (5): the
	// breaker for the owner is open in the healthz peer detail.
	found := false
	for _, ph := range hr.PeersHealth {
		if ph.ID == owner.id {
			found = true
			if ph.Breaker != cluster.BreakerOpen {
				t.Fatalf("breaker for %s = %q, want open", owner.id, ph.Breaker)
			}
		}
	}
	if !found {
		t.Fatalf("owner %s missing from peers_health: %+v", owner.id, hr.PeersHealth)
	}
}

// TestHealthzPeersLiveness drives the heartbeat monitor end to end at the
// HTTP surface: /api/healthz reports a probed peer alive, then down after
// it dies — with no operator POST /api/cluster/down anywhere.
func TestHealthzPeersLiveness(t *testing.T) {
	init, _ := trainedInitializer(t)
	nodes := startCluster(t, init, 2, nil)
	nodes[0].node.StartHeartbeats(cluster.HeartbeatConfig{
		Interval: 15 * time.Millisecond,
		Timeout:  250 * time.Millisecond,
		Misses:   3,
	})
	t.Cleanup(nodes[0].node.StopHeartbeats)

	peerState := func() string {
		for _, ph := range getHealthz(t, nodes[0].srv.URL).PeersHealth {
			if ph.ID == nodes[1].id {
				return ph.State
			}
		}
		return "missing"
	}
	waitForState := func(want string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for time.Now().Before(deadline) {
			if peerState() == want {
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("peer %s never became %q (last: %q)", nodes[1].id, want, peerState())
	}

	waitForState("alive")
	nodes[1].srv.Close() // kill the peer; heartbeats alone must notice
	waitForState("down")
	if !nodes[0].node.Down(nodes[1].id) {
		t.Fatal("routing overlay does not reflect the heartbeat down-mark")
	}
}
