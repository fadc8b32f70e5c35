package platform

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/engine"
)

// clusterNode is one in-process cluster member for routing tests: a full
// Service + engine + store behind a real HTTP listener (forwarding and
// redirects dial peer addresses, so recorders are not enough here).
type clusterNode struct {
	id    string
	addr  string
	node  *cluster.Node
	svc   *Service
	eng   *engine.Engine
	store *Store
	srv   *httptest.Server
}

// testClusterSecret is the shared secret every test cluster runs with,
// so the /api/cluster/* auth gate is exercised by every control-plane
// call the tests make.
const testClusterSecret = "test-cluster-secret"

// startCluster stands up n cluster nodes. dirs[i] != "" gives node i a
// durable file backend (and checkpointing engine); "" keeps it in-memory.
func startCluster(t *testing.T, init *core.Initializer, n int, dirs []string) []*clusterNode {
	return startClusterWrapped(t, init, n, dirs, nil)
}

// startClusterWrapped is startCluster with a per-node handler middleware
// (nil passes the service handler through) — fault-injection tests wrap
// a node to stall or corrupt specific peer calls.
func startClusterWrapped(t *testing.T, init *core.Initializer, n int, dirs []string, wrap func(i int, h http.Handler) http.Handler) []*clusterNode {
	t.Helper()
	nodes := make([]*clusterNode, n)
	var peerSpec []string
	// Listeners first: peer addresses must exist before any Node (and
	// therefore any Handler) can be built.
	for i := range nodes {
		srv := httptest.NewUnstartedServer(http.NotFoundHandler())
		nodes[i] = &clusterNode{
			id:   fmt.Sprintf("n%d", i+1),
			addr: srv.Listener.Addr().String(),
			srv:  srv,
		}
		peerSpec = append(peerSpec, nodes[i].id+"="+nodes[i].addr)
	}
	peers, err := cluster.ParsePeers(strings.Join(peerSpec, ","))
	if err != nil {
		t.Fatal(err)
	}
	for i, cn := range nodes {
		cn.node, err = cluster.New(cn.id, peers, 0)
		if err != nil {
			t.Fatal(err)
		}
		cn.node.Secret = testClusterSecret
		cfg := engine.Config{Warmup: -1}
		if dirs != nil && dirs[i] != "" {
			be, err := OpenFileBackend(dirs[i], FileConfig{})
			if err != nil {
				t.Fatal(err)
			}
			cn.store = NewStoreWith(be)
			cfg.Checkpoints = cn.store
			cfg.CheckpointInterval = -1
		} else {
			cn.store = NewStore()
		}
		cn.eng, err = engine.New(init, mustExtractor(t), cfg)
		if err != nil {
			t.Fatal(err)
		}
		cn.svc = &Service{Store: cn.store, Engine: cn.eng, Cluster: cn.node}
		handler := http.Handler(cn.svc.Handler())
		if wrap != nil {
			if wrapped := wrap(i, handler); wrapped != nil {
				handler = wrapped
			}
		}
		cn.srv.Config.Handler = handler
		cn.srv.Start()
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for _, cn := range nodes {
			cn.srv.Close()
			_ = cn.eng.Close(ctx)
			_ = cn.store.Close()
		}
	})
	return nodes
}

// ownerOf returns the node that owns the channel, and one that does not.
func ownerOf(t *testing.T, nodes []*clusterNode, channel string) (owner, other *clusterNode) {
	t.Helper()
	id := nodes[0].node.Owner(channel)
	for _, cn := range nodes {
		if cn.id == id {
			owner = cn
		} else {
			other = cn
		}
	}
	if owner == nil || other == nil {
		t.Fatalf("could not split nodes around owner %q", id)
	}
	return owner, other
}

// TestClusterForwardedIngestByteIdentical is the forwarding edge-case
// satellite's core claim: a batched ingest POSTed to the WRONG node is
// forwarded verbatim and leaves the owner in a state bit-identical to
// direct ingest — same acks, same session state, and a WAL whose bytes
// equal a direct-ingest control run's.
func TestClusterForwardedIngestByteIdentical(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "fwd-chan"

	dirForwarded := t.TempDir()
	dirDirect := t.TempDir()

	run := func(dir string, misroute bool) []core.RedDot {
		// Every TCP connection a node accepts has its own remote address.
		var connMu sync.Mutex
		conns := make([]map[string]bool, 2)
		nodes := startClusterWrapped(t, init, 2, []string{dir, dir2(dir)}, func(i int, h http.Handler) http.Handler {
			conns[i] = map[string]bool{}
			return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				connMu.Lock()
				conns[i][r.RemoteAddr] = true
				connMu.Unlock()
				h.ServeHTTP(w, r)
			})
		})
		owner, other := ownerOf(t, nodes, channel)
		if owner.srv.Listener.Addr() == nil {
			t.Fatal("owner not listening")
		}
		// The forwarded run sends every batch to the non-owner; the
		// control run sends the same batches straight to the owner.
		dst := owner
		if misroute {
			dst = other
		}
		for i := 0; i < len(msgs); i += 50 {
			end := min(i+50, len(msgs))
			resp := postJSON(t, dst.srv.URL+"/api/live/chat?channel="+channel, msgs[i:end])
			var ack LiveIngestResponse
			if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted || ack.Accepted != end-i {
				t.Fatalf("ingest via %s: status %d accepted %d (want 202/%d)",
					dst.id, resp.StatusCode, ack.Accepted, end-i)
			}
		}
		// The session must live ONLY on the owner.
		if _, ok := other.eng.Sessions().Get(channel); ok {
			t.Fatalf("session opened on non-owner %s", other.id)
		}
		// Forwarding rides the pooled keep-alive client: one producer's
		// misrouted batches, one after another, reach the owner over one
		// connection — not one dial per request.
		if misroute {
			connMu.Lock()
			n := len(conns[indexOf(nodes, owner)])
			connMu.Unlock()
			if n != 1 {
				t.Fatalf("%d forwarded batches reached the owner over %d connections, want 1", (len(msgs)+49)/50, n)
			}
		}
		sess, ok := owner.eng.Sessions().Get(channel)
		if !ok {
			t.Fatalf("session missing on owner %s", owner.id)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := sess.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
		dots, _, _ := sess.DotsPage(0)
		// Only the owner's dir matters; return which one it was via the
		// package-level record below.
		ownerDirs[dir] = []string{dir, dir2(dir)}[indexOf(nodes, owner)]
		return dots
	}

	gotFwd := run(dirForwarded, true)
	gotDirect := run(dirDirect, false)
	if len(gotDirect) == 0 {
		t.Fatal("control run emitted nothing; test is vacuous")
	}
	if fmt.Sprint(gotFwd) != fmt.Sprint(gotDirect) {
		t.Fatalf("forwarded ingest diverged:\n fwd %v\n dir %v", gotFwd, gotDirect)
	}

	// WAL bytes on the owner: bit-equal between forwarded and direct runs
	// (same ops in the same order — headers carry no timestamps).
	walFwd := readWALs(t, ownerDirs[dirForwarded])
	walDirect := readWALs(t, ownerDirs[dirDirect])
	if len(walFwd) == 0 {
		t.Fatal("no WAL bytes on forwarded owner")
	}
	if string(walFwd) != string(walDirect) {
		t.Fatalf("owner WAL differs between forwarded (%d bytes) and direct (%d bytes) ingest",
			len(walFwd), len(walDirect))
	}
}

// ownerDirs records which data-dir belonged to the owning node per run.
var ownerDirs = map[string]string{}

func indexOf(nodes []*clusterNode, cn *clusterNode) int {
	for i := range nodes {
		if nodes[i] == cn {
			return i
		}
	}
	return -1
}

// dir2 derives the second node's data-dir from the first.
func dir2(dir string) string {
	d := dir + "-b"
	_ = os.MkdirAll(d, 0o755)
	return d
}

// readWALs concatenates a data-dir's WAL generation files in order.
func readWALs(t *testing.T, dir string) []byte {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var out []byte
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b...)
	}
	return out
}

// TestClusterRedirectPreservesConditionalHeaders: reads land as 307s, and
// Go clients repeat the request verbatim — so If-None-Match keeps earning
// 304s through a redirect, exactly as if the viewer had hit the owner.
func TestClusterRedirectPreservesConditionalHeaders(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "redir-chan"

	nodes := startCluster(t, init, 2, nil)
	owner, other := ownerOf(t, nodes, channel)
	resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[:200])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed ingest = %d", resp.StatusCode)
	}
	waitForDots(t, owner, channel)

	// Bare client: observe the 307 itself.
	bare := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
		return http.ErrUseLastResponse
	}}
	r307, err := bare.Get(other.srv.URL + "/api/live/dots?channel=" + channel)
	if err != nil {
		t.Fatal(err)
	}
	r307.Body.Close()
	if r307.StatusCode != http.StatusTemporaryRedirect {
		t.Fatalf("misrouted read = %d, want 307", r307.StatusCode)
	}
	loc := r307.Header.Get("Location")
	if !strings.Contains(loc, owner.addr) || !strings.Contains(loc, "channel="+channel) {
		t.Fatalf("redirect Location %q does not target the owner with the original query", loc)
	}

	// Following client: first read through the non-owner equals a direct
	// owner read, byte for byte.
	viaRedirect, etag := getBody(t, http.DefaultClient, other.srv.URL+"/api/live/dots?channel="+channel, "")
	direct, directETag := getBody(t, http.DefaultClient, owner.srv.URL+"/api/live/dots?channel="+channel, "")
	if viaRedirect != direct {
		t.Fatalf("redirected read differs from direct read:\n via %s\n dir %s", viaRedirect, direct)
	}
	if etag == "" || etag != directETag {
		t.Fatalf("etag mismatch: via=%q direct=%q", etag, directETag)
	}

	// Conditional GET through the redirect: If-None-Match must survive
	// the 307 and earn a 304 from the owner.
	req, err := http.NewRequest(http.MethodGet, other.srv.URL+"/api/live/dots?channel="+channel, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("If-None-Match", etag)
	cond, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cond.Body.Close()
	if cond.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET through redirect = %d, want 304", cond.StatusCode)
	}
}

// TestClusterRedirectPreservesLastEventID: an SSE resume against the
// wrong node redirects to the owner with Last-Event-ID intact, so the
// subscriber's replay starts exactly at its cursor.
func TestClusterRedirectPreservesLastEventID(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "sse-chan"

	nodes := startCluster(t, init, 2, nil)
	owner, other := ownerOf(t, nodes, channel)
	resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs)
	resp.Body.Close()
	waitForDots(t, owner, channel)
	sess, _ := owner.eng.Sessions().Get(channel)
	dots, total, _ := sess.DotsPage(0)
	if total < 2 || len(dots) != total {
		t.Skipf("need ≥2 dots for a meaningful resume, have %d", total)
	}
	cursor := total - 1

	req, err := http.NewRequest(http.MethodGet, other.srv.URL+"/api/live/stream?channel="+channel, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Last-Event-ID", fmt.Sprint(cursor))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	sresp, err := http.DefaultClient.Do(req.WithContext(ctx))
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if sresp.StatusCode != http.StatusOK {
		t.Fatalf("redirected SSE = %d, want 200", sresp.StatusCode)
	}
	// The first dots frame must resume AT the cursor: one dot (the last),
	// not the whole history — proof the header survived the 307.
	sc := bufio.NewScanner(sresp.Body)
	var data string
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "data: ") {
			data = strings.TrimPrefix(line, "data: ")
			break
		}
	}
	if data == "" {
		t.Fatalf("no SSE data frame received: %v", sc.Err())
	}
	var page LiveDotsResponse
	if err := json.Unmarshal([]byte(data), &page); err != nil {
		t.Fatalf("bad SSE payload %q: %v", data, err)
	}
	if page.Cursor != total || len(page.Dots) != total-cursor {
		t.Fatalf("resume ignored Last-Event-ID: got %d dots to cursor %d, want %d dots to %d",
			len(page.Dots), page.Cursor, total-cursor, total)
	}
}

// TestClusterForwardLoop508: when two nodes disagree about ownership (a
// split ring), the hop counter converts the would-be infinite forward
// ping-pong into a 508 Loop Detected.
func TestClusterForwardLoop508(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "loop-chan"

	nodes := startCluster(t, init, 2, nil)
	a, b := nodes[0], nodes[1]
	// Manufacture disagreement: each node pins the channel to the other.
	if err := a.node.SetOverride(channel, b.id); err != nil {
		t.Fatal(err)
	}
	if err := b.node.SetOverride(channel, a.id); err != nil {
		t.Fatal(err)
	}
	resp := postJSON(t, a.srv.URL+"/api/live/chat?channel="+channel, msgs[:10])
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusLoopDetected {
		t.Fatalf("ring-disagreement ingest = %d, want 508", resp.StatusCode)
	}
	// Neither node opened a session for the ping-ponged channel.
	if _, ok := a.eng.Sessions().Get(channel); ok {
		t.Fatal("loop still opened a session on a")
	}
	if _, ok := b.eng.Sessions().Get(channel); ok {
		t.Fatal("loop still opened a session on b")
	}
}

// TestClusterHandoffTeardownOrder is the satellite-2 regression: a live
// handoff must end push subscribers (end: closed) and drop this node's
// response-cache entries BEFORE the channel becomes routable to its new
// owner — and the handed-off channel must continue gap-free there.
func TestClusterHandoffTeardownOrder(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	want := referenceDots(t, init, msgs)
	if len(want) == 0 {
		t.Fatal("reference emitted nothing")
	}
	const channel = "handoff-chan"
	cut := len(msgs) / 2

	nodes := startCluster(t, init, 2, []string{t.TempDir(), t.TempDir()})
	owner, other := ownerOf(t, nodes, channel)

	resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[:cut])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed ingest = %d", resp.StatusCode)
	}
	waitForDots(t, owner, channel)

	// A viewer polls through the cache (populating it) and another one
	// subscribes to the push stream on the pre-handoff owner.
	getBody(t, http.DefaultClient, owner.srv.URL+"/api/live/dots?channel="+channel, "")
	if !cacheHasStream(&owner.svc.dotsCache, channel) {
		t.Fatal("poll did not populate the dots cache")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	sreq, _ := http.NewRequestWithContext(ctx, http.MethodGet,
		owner.srv.URL+"/api/live/stream?channel="+channel, nil)
	sresp, err := http.DefaultClient.Do(sreq)
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	frames := make(chan string, 16)
	go func() {
		sc := bufio.NewScanner(sresp.Body)
		for sc.Scan() {
			if line := sc.Text(); strings.HasPrefix(line, "event: ") {
				frames <- strings.TrimPrefix(line, "event: ")
			}
		}
		close(frames)
	}()

	// Hand the channel to the other node.
	hresp := clusterControlPost(t, owner.srv.URL+"/api/cluster/handoff?channel="+channel+"&target="+other.id)
	var h HandoffResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || h.Owner != other.id {
		t.Fatalf("handoff: status %d owner %q", hresp.StatusCode, h.Owner)
	}
	if h.Watermark != msgs[cut-1].Time {
		t.Errorf("handoff watermark = %g, want %g", h.Watermark, msgs[cut-1].Time)
	}

	// By the time the handoff has returned (= the channel is routable to
	// the new owner), the old owner must hold no cached frames and the
	// subscriber must have its terminal event.
	if cacheHasStream(&owner.svc.dotsCache, channel) {
		t.Error("dots cache still holds entries for a handed-off channel")
	}
	sawEnd := false
	deadline := time.After(10 * time.Second)
	for !sawEnd {
		select {
		case ev, ok := <-frames:
			if !ok {
				t.Fatal("SSE stream ended without a terminal end event")
			}
			if ev == "end" {
				sawEnd = true
			}
		case <-deadline:
			t.Fatal("timed out waiting for end: closed")
		}
	}
	if owner.node.Owner(channel) != other.id {
		t.Fatalf("old owner still routes %s to itself", channel)
	}
	// The old owner's checkpoint moved with the channel.
	if _, ok := owner.store.Checkpoints()[channel]; ok {
		t.Error("old owner kept its checkpoint after a confirmed handoff")
	}
	if _, ok := other.store.Checkpoints()[channel]; !ok {
		t.Error("new owner has no checkpoint for the adopted channel")
	}

	// Producer continues — against the OLD owner, which now forwards.
	for i := cut; i < len(msgs); i += 100 {
		end := min(i+100, len(msgs))
		resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[i:end])
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("post-handoff ingest = %d", resp.StatusCode)
		}
	}
	// Close via the old owner too (forwarded), and compare the full
	// history with the uninterrupted reference.
	creq, _ := http.NewRequestWithContext(ctx, http.MethodDelete,
		owner.srv.URL+"/api/live/session?channel="+channel, nil)
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	var final LiveDotsResponse
	if err := json.NewDecoder(cresp.Body).Decode(&final); err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("forwarded close = %d", cresp.StatusCode)
	}
	if fmt.Sprint(final.Dots) != fmt.Sprint(want) {
		t.Fatalf("handed-off history diverged:\n got %v\nwant %v", final.Dots, want)
	}
}

// TestClusterHealthz: the node-status endpoint reports identity, load,
// and drain state, in both cluster and single-node modes.
func TestClusterHealthz(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "hz-chan"

	nodes := startCluster(t, init, 2, nil)
	owner, other := ownerOf(t, nodes, channel)
	resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[:100])
	resp.Body.Close()

	var hz HealthResponse
	body, _ := getBody(t, http.DefaultClient, owner.srv.URL+"/api/healthz", "")
	if err := json.Unmarshal([]byte(body), &hz); err != nil {
		t.Fatal(err)
	}
	if hz.Node != owner.id || hz.Peers != 2 {
		t.Fatalf("healthz identity: %+v", hz)
	}
	if hz.Sessions != 1 || hz.OwnedChannels != 1 || len(hz.Channels) != 1 || hz.Channels[0] != channel {
		t.Fatalf("healthz load: %+v", hz)
	}
	if hz.Draining {
		t.Fatal("healthz reports draining on a live node")
	}

	body, _ = getBody(t, http.DefaultClient, other.srv.URL+"/api/healthz", "")
	var hzOther HealthResponse
	if err := json.Unmarshal([]byte(body), &hzOther); err != nil {
		t.Fatal(err)
	}
	if hzOther.Sessions != 0 || hzOther.OwnedChannels != 0 {
		t.Fatalf("non-owner healthz load: %+v", hzOther)
	}

	// Drain state flips after ClosePush.
	other.svc.ClosePush()
	body, _ = getBody(t, http.DefaultClient, other.srv.URL+"/api/healthz", "")
	if err := json.Unmarshal([]byte(body), &hzOther); err != nil {
		t.Fatal(err)
	}
	if !hzOther.Draining {
		t.Fatal("healthz does not report draining after ClosePush")
	}

	// Single-node mode: no cluster fields, everything owned.
	svc := &Service{Store: NewStore(), Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()
	if _, err := svc.Engine.Sessions().Open("solo"); err != nil {
		t.Fatal(err)
	}
	body, _ = getBody(t, http.DefaultClient, srv.URL+"/api/healthz", "")
	var solo HealthResponse
	if err := json.Unmarshal([]byte(body), &solo); err != nil {
		t.Fatal(err)
	}
	if solo.Node != "" || solo.Peers != 0 || solo.Sessions != 1 || solo.OwnedChannels != 1 {
		t.Fatalf("single-node healthz: %+v", solo)
	}
}

// cacheHasStream reports whether the response cache holds entries for a
// stream (white-box, for the teardown-order regression).
func cacheHasStream(c *respCache, stream string) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.m[stream]
	return ok
}

// waitForDots blocks until the channel has published at least one dot.
func waitForDots(t *testing.T, cn *clusterNode, channel string) {
	t.Helper()
	sess, ok := cn.eng.Sessions().Get(channel)
	if !ok {
		t.Fatalf("no session for %q on %s", channel, cn.id)
	}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if _, n, _ := sess.DotsPage(0); n > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("channel %q never emitted", channel)
}

// clusterControlPost POSTs to a /api/cluster/* endpoint with the shared
// cluster secret attached, as every control-plane caller must.
func clusterControlPost(t *testing.T, url string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ClusterKeyHeader, testClusterSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestClusterControlPlaneAuth: /api/cluster/* can repin routing, inject
// detector state, and mark nodes down, so it must refuse requests that
// do not present the shared cluster secret — missing and wrong keys both
// answer 403 and change nothing.
func TestClusterControlPlaneAuth(t *testing.T) {
	init, _ := trainedInitializer(t)
	nodes := startCluster(t, init, 2, nil)
	a, b := nodes[0], nodes[1]
	routeURL := a.srv.URL + "/api/cluster/route?channel=auth-chan&owner=" + b.id

	for _, tc := range []struct{ name, key string }{
		{"missing key", ""},
		{"wrong key", "not-the-secret"},
	} {
		req, err := http.NewRequest(http.MethodPost, routeURL, nil)
		if err != nil {
			t.Fatal(err)
		}
		if tc.key != "" {
			req.Header.Set(ClusterKeyHeader, tc.key)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("%s: status %d, want 403", tc.name, resp.StatusCode)
		}
		if _, pinned := a.node.Override("auth-chan"); pinned {
			t.Fatalf("%s: unauthenticated request still installed an override", tc.name)
		}
	}

	// The right key works, on every control endpoint the drill uses.
	resp := clusterControlPost(t, routeURL)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authenticated route: status %d", resp.StatusCode)
	}
	if o, _ := a.node.Override("auth-chan"); o != b.id {
		t.Fatalf("authenticated route did not install the override (got %q)", o)
	}
	resp = clusterControlPost(t, a.srv.URL+"/api/cluster/down?node="+b.id+"&down=false")
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("authenticated down: status %d", resp.StatusCode)
	}
}

// TestClusterHandoffFencesTrafficMidMove is the handoff-race regression:
// between the session detaching and the transfer confirming there is a
// full network round trip during which the source is still the ring
// owner — a producer POST in that window must NOT re-create a fresh
// empty session (silently losing its messages once the override lands);
// it gets a retryable 503 until the move settles.
func TestClusterHandoffFencesTrafficMidMove(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "fence-chan"

	stalling := make(chan struct{}, 1)
	release := make(chan struct{})
	var stall atomic.Bool
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if stall.Load() && r.URL.Path == "/api/cluster/resume" {
				stalling <- struct{}{}
				<-release
			}
			h.ServeHTTP(w, r)
		})
	}
	nodes := startClusterWrapped(t, init, 2, []string{t.TempDir(), t.TempDir()}, wrap)
	owner, other := ownerOf(t, nodes, channel)

	resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[:200])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("seed ingest = %d", resp.StatusCode)
	}

	stall.Store(true)
	handoffDone := make(chan int, 1)
	go func() {
		hresp := clusterControlPost(t, owner.srv.URL+"/api/cluster/handoff?channel="+channel+"&target="+other.id)
		hresp.Body.Close()
		handoffDone <- hresp.StatusCode
	}()
	<-stalling // the snapshot is in flight; the race window is open

	// A producer racing the transfer: the routing layer must fence, not
	// serve — and certainly not open a fresh session.
	mid := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[200:210])
	if mid.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("mid-move ingest = %d, want 503", mid.StatusCode)
	}
	if mid.Header.Get("Retry-After") == "" {
		t.Error("mid-move 503 carries no Retry-After")
	}
	mid.Body.Close()
	// Even a request that slipped past routing cannot re-create the
	// session: the engine's open bar refuses.
	if _, err := owner.eng.Sessions().GetOrOpen(channel); !errors.Is(err, engine.ErrHandoff) {
		t.Errorf("mid-move GetOrOpen err = %v, want ErrHandoff", err)
	}
	if _, ok := owner.eng.Sessions().Get(channel); ok {
		t.Error("a session exists on the source mid-move")
	}

	stall.Store(false)
	close(release)
	if code := <-handoffDone; code != http.StatusOK {
		t.Fatalf("handoff = %d", code)
	}

	// The fence lifted into the committed route: producers continue
	// through the source and land on the target, gap-free.
	resp = postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[200:400])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-move ingest = %d", resp.StatusCode)
	}
	if _, ok := owner.eng.Sessions().Get(channel); ok {
		t.Error("session re-appeared on the source after the move")
	}
	if _, ok := other.eng.Sessions().Get(channel); !ok {
		t.Error("session missing on the target after the move")
	}
}

// TestClusterHandoffTransferFailureRestoresLocally: a target that cannot
// be reached fails the transfer cleanly — the channel comes back to life
// on the source, the fence lifts, and producers continue as if the
// handoff had never been attempted.
func TestClusterHandoffTransferFailureRestoresLocally(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "failover-chan"

	nodes := startCluster(t, init, 2, []string{t.TempDir(), t.TempDir()})
	owner, other := ownerOf(t, nodes, channel)
	resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[:200])
	resp.Body.Close()
	waitForDots(t, owner, channel)

	other.srv.Close() // the target is unreachable; probe and transfer both fail
	hresp := clusterControlPost(t, owner.srv.URL+"/api/cluster/handoff?channel="+channel+"&target="+other.id)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadGateway {
		t.Fatalf("handoff to dead target = %d, want 502", hresp.StatusCode)
	}
	if owner.node.Moving(channel) {
		t.Error("move fence still up after a failed transfer")
	}
	if _, ok := owner.eng.Sessions().Get(channel); !ok {
		t.Fatal("session not restored on the source after transfer failure")
	}
	if _, ok := owner.store.Checkpoints()[channel]; !ok {
		t.Error("source lost its checkpoint across a failed transfer")
	}
	// The channel serves again, bar and fence both lifted.
	resp = postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[200:400])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-failure ingest = %d, want 202", resp.StatusCode)
	}
}

// TestClusterHandoffLostResponseCommits is the split-brain regression:
// when the target restores the channel but the transfer RESPONSE is
// lost, restoring locally on faith would leave the channel live on both
// nodes with two durable checkpoints. The source must probe the target
// and, finding the channel resident, commit the move instead.
func TestClusterHandoffLostResponseCommits(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "ghost-chan"

	var lose atomic.Bool
	wrap := func(i int, h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if lose.Load() && r.URL.Path == "/api/cluster/resume" {
				lose.Store(false)
				// The restore happens for real; only the response is lost.
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, r)
				if rec.Code != http.StatusOK {
					panic(fmt.Sprintf("stalled resume failed: %d %s", rec.Code, rec.Body.String()))
				}
				hj, ok := w.(http.Hijacker)
				if !ok {
					panic("test server response is not hijackable")
				}
				conn, _, err := hj.Hijack()
				if err != nil {
					panic(err)
				}
				conn.Close()
				return
			}
			h.ServeHTTP(w, r)
		})
	}
	nodes := startClusterWrapped(t, init, 2, []string{t.TempDir(), t.TempDir()}, wrap)
	owner, other := ownerOf(t, nodes, channel)
	resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[:200])
	resp.Body.Close()
	waitForDots(t, owner, channel)

	lose.Store(true)
	hresp := clusterControlPost(t, owner.srv.URL+"/api/cluster/handoff?channel="+channel+"&target="+other.id)
	var h HandoffResponse
	if err := json.NewDecoder(hresp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK || h.Owner != other.id {
		t.Fatalf("lost-response handoff: status %d owner %q, want 200/%q", hresp.StatusCode, h.Owner, other.id)
	}

	// Exactly one node holds the channel — the target.
	if _, ok := owner.eng.Sessions().Get(channel); ok {
		t.Error("split brain: source still holds the session")
	}
	if _, ok := other.eng.Sessions().Get(channel); !ok {
		t.Fatal("target does not hold the session")
	}
	if _, ok := owner.store.Checkpoints()[channel]; ok {
		t.Error("split brain: source kept its checkpoint")
	}
	if _, ok := other.store.Checkpoints()[channel]; !ok {
		t.Error("target has no checkpoint for the adopted channel")
	}
	if o, _ := owner.node.Override(channel); o != other.id {
		t.Errorf("source routes %q to %q, want %q", channel, o, other.id)
	}
	// And the broadcast continues through the source, forwarded.
	resp = postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[200:400])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-commit ingest = %d", resp.StatusCode)
	}
}

// TestClusterForwardBodyTooLarge: the forwarding path stages bodies in
// memory, so a misrouted POST beyond any legitimate batch size must be
// refused with 413 instead of buffered without bound.
func TestClusterForwardBodyTooLarge(t *testing.T) {
	init, _ := trainedInitializer(t)
	const channel = "big-chan"
	nodes := startCluster(t, init, 2, nil)
	_, other := ownerOf(t, nodes, channel)

	body := bytes.Repeat([]byte("x"), maxForwardBody+1)
	resp, err := http.Post(other.srv.URL+"/api/live/chat?channel="+channel,
		"application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized forward = %d, want 413", resp.StatusCode)
	}
}

// TestClusterCloseRetiresOverride: the pins a handoff spreads across the
// cluster die with the broadcast — after the handed-off channel closes,
// every node is back on pure ring placement and a successor broadcast
// with the same id opens on the ring owner again (the re-open bar is
// lifted along with the pin).
func TestClusterCloseRetiresOverride(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "retire-chan"

	nodes := startCluster(t, init, 2, []string{t.TempDir(), t.TempDir()})
	owner, other := ownerOf(t, nodes, channel)
	resp := postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[:200])
	resp.Body.Close()
	waitForDots(t, owner, channel)

	hresp := clusterControlPost(t, owner.srv.URL+"/api/cluster/handoff?channel="+channel+"&target="+other.id)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("handoff = %d", hresp.StatusCode)
	}
	for _, cn := range nodes {
		if o, pinned := cn.node.Override(channel); !pinned || o != other.id {
			t.Fatalf("after handoff, %s pins %q to %q (pinned=%v), want %q", cn.id, channel, o, pinned, other.id)
		}
	}

	// Close through the source (forwarded to the pinned owner).
	creq, err := http.NewRequest(http.MethodDelete, owner.srv.URL+"/api/live/session?channel="+channel, nil)
	if err != nil {
		t.Fatal(err)
	}
	cresp, err := http.DefaultClient.Do(creq)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("close = %d", cresp.StatusCode)
	}
	for _, cn := range nodes {
		if o, pinned := cn.node.Override(channel); pinned {
			t.Errorf("after close, %s still pins %q to %q", cn.id, channel, o)
		}
	}

	// A successor broadcast with the same channel id opens on the ring
	// owner — the old owner's bar is gone.
	resp = postJSON(t, owner.srv.URL+"/api/live/chat?channel="+channel, msgs[:50])
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("successor ingest = %d", resp.StatusCode)
	}
	if _, ok := owner.eng.Sessions().Get(channel); !ok {
		t.Error("successor broadcast did not open on the ring owner")
	}
	if _, ok := other.eng.Sessions().Get(channel); ok {
		t.Error("successor broadcast leaked onto the old handoff target")
	}
}

// getBody GETs a URL (following redirects) and returns body and ETag.
func getBody(t *testing.T, client *http.Client, url, inm string) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var sb strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		sb.WriteString(sc.Text())
	}
	return sb.String(), resp.Header.Get("Etag")
}
