package platform

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/fault"
)

// replicatedNode pairs a cluster fixture node with its replicator.
type replicatedNode struct {
	*clusterNode
	rep *Replicator
}

// startReplicatedCluster is startCluster with checkpointing file backends
// on every node plus a wired, started Replicator per node (factor
// `replicas`, fast anti-entropy cadence). The replica areas live in their
// own temp dirs, separate from the data dirs, as in production.
func startReplicatedCluster(t *testing.T, init *core.Initializer, n, replicas int) []*replicatedNode {
	t.Helper()
	dirs := make([]string, n)
	for i := range dirs {
		dirs[i] = t.TempDir()
	}
	nodes := startCluster(t, init, n, dirs)
	out := make([]*replicatedNode, n)
	for i, cn := range nodes {
		rs, err := OpenReplicaStore(filepath.Join(t.TempDir(), "replicas"))
		if err != nil {
			t.Fatal(err)
		}
		rep := NewReplicator(cn.svc, rs, replicas, 50*time.Millisecond)
		rep.Start()
		out[i] = &replicatedNode{clusterNode: cn, rep: rep}
	}
	t.Cleanup(func() {
		for _, rn := range out {
			rn.rep.Stop()
		}
	})
	return out
}

// successorOf returns the node the owner's replicator ships the channel's
// checkpoints to: the first ring successor skipping the owner itself.
func successorOf(t *testing.T, nodes []*replicatedNode, owner *replicatedNode, channel string) *replicatedNode {
	t.Helper()
	id := owner.node.Ring().OwnerSkipping(channel, func(peer string) bool { return peer == owner.id })
	for _, rn := range nodes {
		if rn.id == id {
			return rn
		}
	}
	t.Fatalf("no node for successor %q", id)
	return nil
}

func TestReplicaStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	rs, err := OpenReplicaStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Channel names with filesystem-hostile characters must round-trip.
	const ch = "room/π:42"
	if applied, err := rs.Put(ch, 5, []byte("v5")); err != nil || !applied {
		t.Fatalf("first Put = (%v, %v), want applied", applied, err)
	}
	// Duplicates and stale deliveries are dropped, not errors.
	if applied, err := rs.Put(ch, 5, []byte("dup")); err != nil || applied {
		t.Fatalf("duplicate Put = (%v, %v), want dropped", applied, err)
	}
	if applied, err := rs.Put(ch, 4, []byte("stale")); err != nil || applied {
		t.Fatalf("stale Put = (%v, %v), want dropped", applied, err)
	}
	if applied, err := rs.Put(ch, 6, []byte("v6")); err != nil || !applied {
		t.Fatalf("advancing Put = (%v, %v), want applied", applied, err)
	}
	state, wm, ok := rs.Get(ch)
	if !ok || wm != 6 || string(state) != "v6" {
		t.Fatalf("Get = (%q, %v, %v), want (v6, 6, true)", state, wm, ok)
	}
	if wms := rs.Watermarks(); len(wms) != 1 || wms[ch] != 6 {
		t.Fatalf("Watermarks = %v", wms)
	}

	// Reopen re-indexes from disk.
	rs2, err := OpenReplicaStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if state, wm, ok := rs2.Get(ch); !ok || wm != 6 || string(state) != "v6" {
		t.Fatalf("reopened Get = (%q, %v, %v)", state, wm, ok)
	}

	// Delete tombstones: the file is gone AND a late redelivery cannot
	// resurrect the channel within this process lifetime.
	if err := rs2.Delete(ch); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := rs2.Get(ch); ok {
		t.Fatal("Get succeeded after Delete")
	}
	if applied, err := rs2.Put(ch, 1e9, []byte("late")); err != nil || applied {
		t.Fatalf("post-delete Put = (%v, %v), want dropped by tombstone", applied, err)
	}
	if chs := rs2.Channels(); len(chs) != 0 {
		t.Fatalf("Channels after delete = %v", chs)
	}
	// Double delete is fine.
	if err := rs2.Delete(ch); err != nil {
		t.Fatal(err)
	}
}

func TestReplicaStoreCorruptSkip(t *testing.T) {
	dir := t.TempDir()
	rs, err := OpenReplicaStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Put("good", 3, []byte("keep")); err != nil {
		t.Fatal(err)
	}
	// A torn envelope and an undecodable name next to the healthy replica.
	if err := os.WriteFile(rs.path("torn"), []byte("not an envelope"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "zz-not-hex.rep"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}

	rs2, err := OpenReplicaStore(dir)
	if err == nil {
		t.Fatal("reopen over corrupt files reported no error")
	}
	if rs2 == nil {
		t.Fatal("corrupt neighbors took down the whole store")
	}
	if state, wm, ok := rs2.Get("good"); !ok || wm != 3 || string(state) != "keep" {
		t.Fatalf("healthy replica lost next to corrupt ones: (%q, %v, %v)", state, wm, ok)
	}
	if chs := rs2.Channels(); len(chs) != 1 || chs[0] != "good" {
		t.Fatalf("Channels = %v, want [good]", chs)
	}
}

// TestPingEndpoint: the static liveness probe answers without touching
// store, engine, or cluster state, and only on GET.
func TestPingEndpoint(t *testing.T) {
	init, _ := trainedInitializer(t)
	nodes := startCluster(t, init, 1, nil)
	resp, err := http.Get(nodes[0].srv.URL + "/api/ping")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || string(body) != "pong\n" {
		t.Fatalf("GET /api/ping = %d %q, want 200 pong", resp.StatusCode, body)
	}
	post, err := http.Post(nodes[0].srv.URL+"/api/ping", "text/plain", nil)
	if err != nil {
		t.Fatal(err)
	}
	post.Body.Close()
	if post.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /api/ping = %d, want 405", post.StatusCode)
	}
}

// TestClusterReplicaEndpointGating: the replica endpoints sit behind the
// cluster secret, and answer 503 when replication is not enabled rather
// than silently dropping deliveries.
func TestClusterReplicaEndpointGating(t *testing.T) {
	init, _ := trainedInitializer(t)
	nodes := startCluster(t, init, 2, nil) // no replicators wired

	url := nodes[0].srv.URL + "/api/cluster/replica?channel=ch&watermark=1"
	// No secret: rejected before any replication logic runs.
	resp, err := http.Post(url, "application/octet-stream", bytes.NewReader([]byte("s")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("unauthenticated POST = %d, want 403", resp.StatusCode)
	}
	// Secret but replication off: 503 so the sender's logs say why.
	resp = clusterControlPost(t, url)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("POST without replication = %d, want 503", resp.StatusCode)
	}
}

// TestClusterReplicationShipsCheckpoints is the tentpole's transport leg
// end to end: checkpoints taken on the owner arrive byte-identical in the
// ring successor's replica area, the extended /api/cluster/owned reports
// both sides' watermarks, and closing the broadcast deletes the replica.
func TestClusterReplicationShipsCheckpoints(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "rep-ship"

	nodes := startReplicatedCluster(t, init, 3, 1)
	owner := ownerNode(t, nodes, channel)
	succ := successorOf(t, nodes, owner, channel)

	ingest(t, owner.srv.URL, channel, msgs)
	sess, ok := owner.eng.Sessions().Get(channel)
	if !ok {
		t.Fatal("session missing on owner")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sess.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	want := owner.store.Checkpoints()[channel]
	if len(want) == 0 {
		t.Fatal("owner stored no checkpoint; test is vacuous")
	}

	// The successor's replica converges to the owner's stored bytes.
	var wm float64
	waitFor(t, 10*time.Second, "replica to match owner checkpoint", func() bool {
		state, w, ok := succ.rep.Store().Get(channel)
		wm = w
		return ok && bytes.Equal(state, want)
	})
	// Nothing leaked to the third node (factor 1 → exactly one standby).
	for _, rn := range nodes {
		if rn != owner && rn != succ {
			if _, _, ok := rn.rep.Store().Get(channel); ok {
				t.Fatalf("replica for %q leaked to non-successor %s", channel, rn.id)
			}
		}
	}

	// Extended owned report: the owner lists the live session, the
	// successor lists the replica watermark anti-entropy compares against.
	ownedOwner := fetchOwnedReport(t, owner.srv.URL)
	if _, ok := ownedOwner.Owned[channel]; !ok {
		t.Fatalf("owner owned report lacks %q: %+v", channel, ownedOwner)
	}
	ownedSucc := fetchOwnedReport(t, succ.srv.URL)
	if got := ownedSucc.Replicas[channel]; got != wm {
		t.Fatalf("successor replica report = %v, want %v", got, wm)
	}

	// Closing the broadcast deletes the replica everywhere.
	req, err := http.NewRequest(http.MethodDelete, owner.srv.URL+"/api/live/session?channel="+channel, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("close = %d, want 200", resp.StatusCode)
	}
	waitFor(t, 10*time.Second, "replica deletion to propagate", func() bool {
		_, _, ok := succ.rep.Store().Get(channel)
		return !ok
	})
}

// TestClusterReplicationAntiEntropy: with the send path failpointed dead
// or stalled, ingest and a blocking checkpoint still return — shipping is
// off the ack path — and no checkpoint has reached the successor when they
// do; the reconciler repairs the gap — re-shipping from the latest local
// checkpoint — as soon as the fault lifts, without new ingest.
func TestClusterReplicationAntiEntropy(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "rep-heal"

	for _, tc := range []struct{ name, spec string }{
		{"link-down", "err:replication link down"},
		// A ship that waited on the ack path would return from Checkpoint
		// only after the stalled send had delivered the replica.
		{"link-stalled", "sleep:5s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			nodes := startReplicatedCluster(t, init, 3, 1)
			owner := ownerNode(t, nodes, channel)
			succ := successorOf(t, nodes, owner, channel)

			t.Cleanup(fault.DisarmAll)
			if err := fault.Arm(cluster.FailpointReplicaSend, tc.spec); err != nil {
				t.Fatal(err)
			}

			ingest(t, owner.srv.URL, channel, msgs)
			sess, ok := owner.eng.Sessions().Get(channel)
			if !ok {
				t.Fatal("session missing on owner")
			}
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if err := sess.Checkpoint(ctx); err != nil {
				t.Fatal(err)
			}
			want := owner.store.Checkpoints()[channel]
			if _, _, ok := succ.rep.Store().Get(channel); ok {
				t.Fatal("replica arrived through a faulted send path")
			}

			fault.DisarmAll()
			waitFor(t, 15*time.Second, "anti-entropy to repair the missing replica", func() bool {
				state, _, ok := succ.rep.Store().Get(channel)
				return ok && bytes.Equal(state, want)
			})
		})
	}
}

// TestReplicaFailoverOnPeerDown: when the owner is declared down, the ring
// successor resumes the channel from its LOCAL replica alone — no manual
// resume, no read of the owner's disk — pins ownership, reports the
// source in healthz, and keeps serving ingest. The other survivor,
// holding no replica, stays out of the way.
func TestReplicaFailoverOnPeerDown(t *testing.T) {
	init, target := trainedInitializer(t)
	msgs := target.Chat.Log.Messages()
	const channel = "rep-failover"

	nodes := startReplicatedCluster(t, init, 3, 1)
	owner := ownerNode(t, nodes, channel)
	succ := successorOf(t, nodes, owner, channel)

	half := len(msgs) / 2
	ingest(t, owner.srv.URL, channel, msgs[:half])
	sess, ok := owner.eng.Sessions().Get(channel)
	if !ok {
		t.Fatal("session missing on owner")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := sess.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, "replica to reach the successor", func() bool {
		_, _, ok := succ.rep.Store().Get(channel)
		return ok
	})

	// Heartbeats would declare the owner dead on every survivor; do the
	// same by hand. The up→down transition fires each survivor's failover.
	var third *replicatedNode
	for _, rn := range nodes {
		if rn != owner {
			if err := rn.node.SetDown(owner.id, true); err != nil {
				t.Fatal(err)
			}
			if rn != succ {
				third = rn
			}
		}
	}

	waitFor(t, 10*time.Second, "successor to resume from its replica", func() bool {
		_, ok := succ.eng.Sessions().Get(channel)
		return ok
	})
	if _, ok := third.eng.Sessions().Get(channel); ok {
		t.Fatalf("non-successor %s also resumed the channel", third.id)
	}

	// The resume source is visible to operators.
	waitFor(t, 10*time.Second, "healthz to report the replica resume", func() bool {
		resp, err := http.Get(succ.srv.URL + "/api/healthz")
		if err != nil {
			return false
		}
		defer resp.Body.Close()
		var h HealthResponse
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			return false
		}
		return h.ResumedFrom[channel] == "replica"
	})

	// Ownership pin reached the other survivor, so ingest sent anywhere
	// lands on the new owner.
	waitFor(t, 10*time.Second, "ownership pin to reach the other survivor", func() bool {
		pinned, moving := third.node.Resolve(channel)
		return !moving && pinned == succ.id
	})
	ingest(t, third.srv.URL, channel, msgs[half:])
	if _, ok := third.eng.Sessions().Get(channel); ok {
		t.Fatal("post-failover ingest opened a session on the forwarding node")
	}
}

// ownerNode finds the replicated node that owns the channel.
func ownerNode(t *testing.T, nodes []*replicatedNode, channel string) *replicatedNode {
	t.Helper()
	id := nodes[0].node.Owner(channel)
	for _, rn := range nodes {
		if rn.id == id {
			return rn
		}
	}
	t.Fatalf("no node for owner %q", id)
	return nil
}

// ingest POSTs msgs to url's live chat endpoint in batches, failing the
// test on any non-202 or short ack.
func ingest(t *testing.T, url, channel string, msgs any) {
	t.Helper()
	// msgs is the concrete slice from the sim fixture; batch via reflection
	// would be overkill — one POST is fine at fixture sizes.
	resp := postJSON(t, url+"/api/live/chat?channel="+channel, msgs)
	var ack LiveIngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d (%+v), want 202", resp.StatusCode, ack)
	}
}

// fetchOwnedReport GETs the parameterless /api/cluster/owned report.
func fetchOwnedReport(t *testing.T, base string) OwnedResponse {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, base+"/api/cluster/owned", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(ClusterKeyHeader, testClusterSecret)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("owned report = %d: %s", resp.StatusCode, body)
	}
	var out OwnedResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
