package platform

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"sync"
	"time"

	"lightor/internal/cluster"
	"lightor/internal/engine"
	"lightor/internal/fault"
)

// Replicator is the sender half of checkpoint replication plus the
// replica-backed failover path. It hangs off the engine's
// CheckpointListener hook: every checkpoint the local store accepts is
// shipped — asynchronously, OFF the ack path — to the channel's ring
// successors, where a ReplicaStore files it. Durability semantics are
// unchanged (a producer's ack still means local-WAL-durable); the replica
// is a second source for failover, lagging the owner by at most one
// checkpoint interval plus transport time.
//
// Three loops cooperate:
//
//	shipper     — drains the coalesced pending map; per channel, the
//	              newest checkpoint wins (a burst of emissions ships the
//	              last state once, not every intermediate)
//	reconciler  — anti-entropy on a heartbeat-like cadence: compares each
//	              successor's replica watermarks (via the extended
//	              /api/cluster/owned) against the latest local
//	              checkpoints and re-ships missing or behind channels;
//	              because targets are recomputed every round, ring
//	              membership changes re-target replicas automatically
//	failover    — on an up→down peer transition (cluster.OnPeerDown),
//	              resumes the dead node's channels from the LOCAL replica
//	              area on whichever survivor the ring now places them,
//	              with no read of the victim's disk
type Replicator struct {
	svc   *Service
	store *ReplicaStore

	// replicas is the replication factor: how many distinct ring
	// successors receive each checkpoint (flag -replicas, default 1).
	replicas int
	// reconcileEvery is the anti-entropy cadence (default 1s, the
	// heartbeat default).
	reconcileEvery time.Duration

	mu      sync.Mutex
	pending map[string]replicaUpdate // coalesced outbound queue
	latest  map[string]replicaUpdate // last accepted checkpoint per channel
	resumed map[string]string        // channel → state source ("replica")

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

type replicaUpdate struct {
	state []byte
	wm    float64
	del   bool
}

// NewReplicator wires a replicator onto svc: it registers itself as the
// engine's checkpoint listener and as the cluster's peer-down observer,
// and sets svc.Replication so the /api/cluster/replica handlers and
// healthz find the store. Call Start to launch the loops and Stop on
// shutdown. replicas < 1 is clamped to 1.
func NewReplicator(svc *Service, store *ReplicaStore, replicas int, reconcileEvery time.Duration) *Replicator {
	if replicas < 1 {
		replicas = 1
	}
	if reconcileEvery <= 0 {
		reconcileEvery = time.Second
	}
	rep := &Replicator{
		svc:            svc,
		store:          store,
		replicas:       replicas,
		reconcileEvery: reconcileEvery,
		pending:        make(map[string]replicaUpdate),
		latest:         make(map[string]replicaUpdate),
		resumed:        make(map[string]string),
		wake:           make(chan struct{}, 1),
		stop:           make(chan struct{}),
	}
	svc.Replication = rep
	svc.Engine.Sessions().SetCheckpointListener(rep)
	svc.Cluster.OnPeerDown(rep.PeerDown)
	return rep
}

// Store returns the local replica area (the receiver side).
func (rep *Replicator) Store() *ReplicaStore { return rep.store }

// CheckpointSaved implements engine.CheckpointListener: the state is
// copied (the engine reuses its encode buffer) and queued for the shipper;
// per channel only the newest checkpoint survives coalescing. Runs on the
// session's mailbox worker, so it must stay cheap — one copy, one map
// store, one non-blocking signal.
func (rep *Replicator) CheckpointSaved(channel string, state []byte, watermark float64) {
	if math.IsInf(watermark, 0) || math.IsNaN(watermark) {
		// The session close path flushes remaining windows by driving the
		// detector clock to +Inf and checkpoints that terminal state once
		// more before dropping it. It is not a resumable position — the
		// CheckpointDropped that follows deletes the replica anyway — and
		// the replica endpoint rejects non-finite watermarks, so shipping
		// it would only race the delete and spam both nodes' logs.
		return
	}
	up := replicaUpdate{state: append([]byte(nil), state...), wm: watermark}
	rep.mu.Lock()
	rep.pending[channel] = up
	rep.latest[channel] = up
	rep.mu.Unlock()
	rep.signal()
}

// CheckpointDropped implements engine.CheckpointListener: the broadcast
// ended (or handed off), so successors delete their replicas too.
func (rep *Replicator) CheckpointDropped(channel string) {
	rep.mu.Lock()
	rep.pending[channel] = replicaUpdate{del: true}
	delete(rep.latest, channel)
	rep.mu.Unlock()
	rep.signal()
}

func (rep *Replicator) signal() {
	select {
	case rep.wake <- struct{}{}:
	default:
	}
}

// Start launches the shipper and reconciler loops. Idempotent.
func (rep *Replicator) Start() {
	rep.once.Do(func() {
		rep.wg.Add(2)
		go rep.shipLoop()
		go rep.reconcileLoop()
	})
}

// Stop halts the loops and waits for in-flight ships to finish. The
// listener hooks stay registered but only accumulate state; nothing
// ships after Stop returns.
func (rep *Replicator) Stop() {
	select {
	case <-rep.stop:
		return
	default:
	}
	close(rep.stop)
	rep.wg.Wait()
}

// ResumedFrom returns the channels this node resumed via failover and the
// source of their state — the healthz "resumed_from" payload.
func (rep *Replicator) ResumedFrom() map[string]string {
	rep.mu.Lock()
	defer rep.mu.Unlock()
	if len(rep.resumed) == 0 {
		return nil
	}
	out := make(map[string]string, len(rep.resumed))
	for ch, src := range rep.resumed {
		out[ch] = src
	}
	return out
}

// targets computes the channel's current replica set: up to rep.replicas
// DISTINCT ring successors, skipping self, already-chosen nodes, and
// down-marked members. Recomputed on every ship, so membership changes
// (a node marked down, a new ring) re-target automatically; stale copies
// on former targets are harmless (monotone Put, deleted with the
// broadcast or expired with the process).
func (rep *Replicator) targets(channel string) []string {
	c := rep.svc.Cluster
	skip := map[string]bool{c.Self(): true}
	var out []string
	for i := 0; i < rep.replicas; i++ {
		t := c.Ring().OwnerSkipping(channel, func(id string) bool {
			return skip[id] || c.Down(id)
		})
		if t == "" {
			break
		}
		skip[t] = true
		out = append(out, t)
	}
	return out
}

func (rep *Replicator) shipLoop() {
	defer rep.wg.Done()
	for {
		select {
		case <-rep.stop:
			return
		case <-rep.wake:
		}
		for {
			rep.mu.Lock()
			batch := rep.pending
			rep.pending = make(map[string]replicaUpdate)
			rep.mu.Unlock()
			if len(batch) == 0 {
				break
			}
			// Deterministic order keeps interleaved logs readable; the
			// per-channel coalescing above keeps the batch small.
			channels := make([]string, 0, len(batch))
			for ch := range batch {
				channels = append(channels, ch)
			}
			sort.Strings(channels)
			for _, ch := range channels {
				rep.ship(ch, batch[ch])
			}
		}
	}
}

// ship delivers one coalesced update to every current target. Failures
// are logged and dropped — the reconciler re-ships anything a successor
// is missing, so a lost delivery costs staleness bounded by the
// reconcile cadence, never correctness.
func (rep *Replicator) ship(channel string, up replicaUpdate) {
	c := rep.svc.Cluster
	for _, target := range rep.targets(channel) {
		addr, ok := c.Addr(target)
		if !ok {
			continue
		}
		if fault.Enabled() {
			if err := fault.Hit(cluster.FailpointReplicaSend); err != nil {
				log.Printf("platform: replica send %q -> %s: %v", channel, target, err)
				continue
			}
		}
		var err error
		if up.del {
			_, err = rep.svc.clusterDo(context.Background(), target, http.MethodDelete,
				"http://"+addr+"/api/cluster/replica?channel="+url.QueryEscape(channel), nil)
		} else {
			_, err = rep.svc.clusterDo(context.Background(), target, http.MethodPost,
				"http://"+addr+"/api/cluster/replica?channel="+url.QueryEscape(channel)+
					"&watermark="+strconv.FormatFloat(up.wm, 'g', -1, 64), up.state)
		}
		if err != nil {
			log.Printf("platform: replica ship %q -> %s: %v", channel, target, err)
		}
	}
}

func (rep *Replicator) reconcileLoop() {
	defer rep.wg.Done()
	t := time.NewTicker(rep.reconcileEvery)
	defer t.Stop()
	for {
		select {
		case <-rep.stop:
			return
		case <-t.C:
			rep.reconcile()
		}
	}
}

// reconcile is one anti-entropy round: fetch each current target's
// replica watermarks (one extended /api/cluster/owned call per peer) and
// re-queue every channel the target is missing or behind on. Down peers
// and fetch failures skip the round — the next tick retries.
func (rep *Replicator) reconcile() {
	rep.mu.Lock()
	latest := make(map[string]replicaUpdate, len(rep.latest))
	for ch, up := range rep.latest {
		latest[ch] = up
	}
	rep.mu.Unlock()
	if len(latest) == 0 {
		return
	}

	// Group channels by target so each peer is asked once per round.
	byTarget := make(map[string][]string)
	for ch := range latest {
		for _, t := range rep.targets(ch) {
			byTarget[t] = append(byTarget[t], ch)
		}
	}
	for target, channels := range byTarget {
		owned, err := rep.fetchOwned(target)
		if err != nil {
			continue
		}
		for _, ch := range channels {
			have, ok := owned.Replicas[ch]
			if ok && have >= latest[ch].wm {
				continue
			}
			rep.mu.Lock()
			// Re-queue only if nothing newer is already pending.
			if cur, pending := rep.pending[ch]; !pending || (!cur.del && cur.wm < latest[ch].wm) {
				rep.pending[ch] = latest[ch]
			}
			rep.mu.Unlock()
			rep.signal()
		}
	}
}

// fetchOwned retrieves a peer's extended owned/replica watermark report —
// a single clusterDoOnce attempt (the reconciler's cadence is the retry
// loop), breaker-accounted like every peer call.
func (rep *Replicator) fetchOwned(peer string) (OwnedResponse, error) {
	c := rep.svc.Cluster
	addr, ok := c.Addr(peer)
	if !ok {
		return OwnedResponse{}, fmt.Errorf("unknown peer %q", peer)
	}
	br := c.Breaker(peer)
	if !br.Allow() {
		return OwnedResponse{}, fmt.Errorf("peer %s circuit breaker %s", peer, br.State())
	}
	var out OwnedResponse
	if err := rep.svc.clusterDoOnce(context.Background(), http.MethodGet,
		"http://"+addr+"/api/cluster/owned", nil, br, &out); err != nil {
		return OwnedResponse{}, fmt.Errorf("owned probe of %s: %w", peer, err)
	}
	return out, nil
}

// PeerDown is the failover entry point, registered as the cluster's
// OnPeerDown observer: when dead is declared down (heartbeat misses or
// operator announcement), every replicated channel the ring now places on
// THIS node resumes from the local replica area — the victim's disk is
// never read. Channels the ring places on other survivors are left to
// them (each node runs the same deterministic placement), and a channel
// that is already live anywhere stays where it is.
func (rep *Replicator) PeerDown(dead string) {
	s := rep.svc
	c := s.Cluster
	for _, channel := range rep.store.Channels() {
		owner, moving := c.Resolve(channel)
		if moving || owner != c.Self() {
			continue
		}
		if _, live := s.Engine.Sessions().Get(channel); live {
			continue
		}
		// Split-brain guard: a channel may be live on a survivor this
		// node's routing hasn't caught up with (a handoff this node missed,
		// an operator resume). Probe the other up peers before adopting —
		// best-effort: a probe failure proceeds (the peer may be down too),
		// and the RestoreSession ErrSessionExists race below remains the
		// backstop on this node itself.
		if rep.liveElsewhere(channel, dead) {
			continue
		}
		state, wm, ok := rep.store.Get(channel)
		if !ok {
			continue
		}
		if _, err := s.Engine.Sessions().RestoreSession(channel, state); err != nil {
			if !errors.Is(err, engine.ErrSessionExists) {
				log.Printf("platform: replica failover %q: %v", channel, err)
			}
			continue
		}
		s.dotsCache.drop(channel)
		_ = c.SetOverride(channel, c.Self())
		rep.mu.Lock()
		rep.resumed[channel] = "replica"
		rep.mu.Unlock()
		log.Printf("platform: resumed channel %q from replica (watermark %.3f) after %s went down",
			channel, wm, dead)
		// Best-effort pin broadcast, as in the handoff commit: an
		// unnotified peer still converges through the ring (dead is down
		// everywhere heartbeats run), just with an extra hop.
		for _, p := range c.Peers() {
			if p.ID == c.Self() || p.ID == dead {
				continue
			}
			_, _ = s.clusterDo(context.Background(), p.ID, http.MethodPost,
				"http://"+p.Addr+"/api/cluster/route?channel="+url.QueryEscape(channel)+
					"&owner="+url.QueryEscape(c.Self()), nil)
		}
	}
}

// liveElsewhere probes the up peers (excluding dead) for a live session
// on channel. Only a definite "yes" (2xx) counts.
func (rep *Replicator) liveElsewhere(channel, dead string) bool {
	c := rep.svc.Cluster
	for _, p := range c.Peers() {
		if p.ID == c.Self() || p.ID == dead || c.Down(p.ID) {
			continue
		}
		if _, err := rep.svc.clusterDo(context.Background(), p.ID, http.MethodGet,
			"http://"+p.Addr+"/api/cluster/owned?channel="+url.QueryEscape(channel), nil); err == nil {
			return true
		}
	}
	return false
}
