package platform

import (
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"lightor/internal/stats"
)

// Admission control: the write path sheds load explicitly instead of
// queueing toward collapse. Two budgets apply, both approximate by design
// (checked before work, racy against concurrent admits — the point is
// bounding queue growth, not exact accounting):
//
//   - A global in-flight budget on write handlers (chat, interactions,
//     advance). Past it the node answers 503: it is saturated across the
//     board and the client should back off everywhere.
//   - A per-channel mailbox backlog budget on chat ingest. Past it the
//     node answers 429 for THAT channel only: one flash-crowded channel
//     sheds its own writes while cold channels keep full service. The
//     check runs before body decode, so a shed request costs a map lookup
//     and a queue-length load — overload makes requests cheaper, not
//     more expensive.
//
// Reads never shed: the read lane is lock-free snapshots plus a response
// cache and stays cheap under any write pressure. Refine admission lives
// in the engine (engine.ErrRefineBusy); session-cap, drain, and handoff
// rejections predate this file. All of them now answer through shedError,
// so every shed/capacity response carries Retry-After.

// Default admission budgets; override with the Service fields.
const (
	defaultMaxInflightWrites = 1024
	defaultMaxChannelBacklog = 256
)

// Retry-After hints (seconds) by shed cause. Transient conditions
// (a momentary burst) hint a fast retry; capacity conditions hint a
// slower one.
const (
	backlogRetryAfterSeconds  = "1"
	inflightRetryAfterSeconds = "1"
	handoffRetryAfterSeconds  = "1"
	capacityRetryAfterSeconds = "5"
	// forwardRetryAfterSeconds hints a fast retry after an exhausted
	// forward: transient peer blips heal within the heartbeat window.
	forwardRetryAfterSeconds = "1"
	// degradedRetryAfterSeconds hints a slow retry: a fail-stopped disk
	// does not heal without operator action (restart/failover).
	degradedRetryAfterSeconds = "30"
)

// ShedReasonHeader names the shed cause on every shedError response —
// machine-readable for clients (and the chaos drill) that must distinguish
// a transient backlog 503 from a fail-stop degraded 503.
const ShedReasonHeader = "X-Lightor-Shed-Reason"

// shedError writes a load-shed/capacity rejection. Every shed response in
// the service funnels through here so the contract is uniform: the status
// is 429 (per-key budget), 503 (node-wide condition), or 502 (peer
// unreachable); Retry-After is always present; the reason rides the
// X-Lightor-Shed-Reason header using the same keys as the healthz shed
// counters; and Content-Type is set before WriteHeader.
func shedError(w http.ResponseWriter, status int, retryAfterSeconds, reason, msg string) {
	h := w.Header()
	h.Set("Retry-After", retryAfterSeconds)
	h.Set(ShedReasonHeader, reason)
	h.Set("Content-Type", "text/plain; charset=utf-8")
	h.Set("X-Content-Type-Options", "nosniff")
	w.WriteHeader(status)
	fmt.Fprintln(w, msg)
}

// shedCounters counts shed responses by cause, for /api/healthz.
type shedCounters struct {
	globalInflight atomic.Uint64
	channelBacklog atomic.Uint64
	refineBusy     atomic.Uint64
	sessionsCap    atomic.Uint64
	subscribers    atomic.Uint64
	draining       atomic.Uint64
	handoff        atomic.Uint64
	forwardFailed  atomic.Uint64
	degraded       atomic.Uint64
}

// snapshot returns the counters keyed by cause. Keys are stable — they
// are the healthz schema (and the X-Lightor-Shed-Reason values).
func (c *shedCounters) snapshot() map[string]uint64 {
	return map[string]uint64{
		"global_inflight": c.globalInflight.Load(),
		"channel_backlog": c.channelBacklog.Load(),
		"refine_busy":     c.refineBusy.Load(),
		"sessions_cap":    c.sessionsCap.Load(),
		"subscribers":     c.subscribers.Load(),
		"draining":        c.draining.Load(),
		"handoff":         c.handoff.Load(),
		"forward_failed":  c.forwardFailed.Load(),
		"degraded":        c.degraded.Load(),
	}
}

func (s *Service) maxInflightWrites() int64 {
	if s.MaxInflightWrites > 0 {
		return int64(s.MaxInflightWrites)
	}
	return defaultMaxInflightWrites
}

func (s *Service) maxChannelBacklog() int {
	if s.MaxChannelBacklog > 0 {
		return s.MaxChannelBacklog
	}
	return defaultMaxChannelBacklog
}

// acquireWrite admits a request into the global write budget, answering
// 503 + Retry-After and reporting false when the node is saturated. On
// true the caller must releaseWrite when the handler returns.
func (s *Service) acquireWrite(w http.ResponseWriter) bool {
	if s.inflightWrites.Add(1) > s.maxInflightWrites() {
		s.inflightWrites.Add(-1)
		s.shed.globalInflight.Add(1)
		shedError(w, http.StatusServiceUnavailable, inflightRetryAfterSeconds, "global_inflight",
			fmt.Sprintf("write path saturated (%d requests in flight)", s.maxInflightWrites()))
		return false
	}
	return true
}

// admitStore rejects a write when the durable backend has fail-stopped
// into degraded read-only mode (disk fault): 503 + a slow Retry-After,
// reason "degraded". Reads and SSE never consult it — degraded mode keeps
// serving them from memory. Runs AFTER routing, so a degraded node still
// forwards writes it does not own to healthy owners.
func (s *Service) admitStore(w http.ResponseWriter) bool {
	if deg, reason := s.Store.Degraded(); deg {
		s.shed.degraded.Add(1)
		shedError(w, http.StatusServiceUnavailable, degradedRetryAfterSeconds, "degraded",
			"store degraded (read-only): "+reason)
		return false
	}
	return true
}

func (s *Service) releaseWrite() { s.inflightWrites.Add(-1) }

// admitChannelWrite checks the channel's mailbox backlog before decoding
// an ingest body, answering 429 + Retry-After and reporting false when
// the channel is over budget. A channel with no session yet is always
// admitted — there is nothing queued to protect.
func (s *Service) admitChannelWrite(w http.ResponseWriter, channel string) bool {
	sess, ok := s.Engine.Sessions().Get(channel)
	if !ok {
		return true
	}
	if limit := s.maxChannelBacklog(); sess.Pending() >= limit {
		s.shed.channelBacklog.Add(1)
		shedError(w, http.StatusTooManyRequests, backlogRetryAfterSeconds, "channel_backlog",
			fmt.Sprintf("channel %q over backlog budget (%d batches queued)", channel, limit))
		return false
	}
	return true
}

// endpointMetrics is one latency histogram per API endpoint, recorded by
// the timing wrapper in Handler and summarized on /api/healthz.
// /api/live/stream is deliberately absent: an SSE request's duration is
// its subscription lifetime, not a latency.
type endpointMetrics struct {
	highlights       stats.LatencyHistogram
	interactionsPost stats.LatencyHistogram
	interactionsGet  stats.LatencyHistogram
	refine           stats.LatencyHistogram
	refineStatus     stats.LatencyHistogram
	liveChat         stats.LatencyHistogram
	liveAdvance      stats.LatencyHistogram
	liveDots         stats.LatencyHistogram
	liveClose        stats.LatencyHistogram
}

// each visits every endpoint histogram with its healthz key.
func (m *endpointMetrics) each(fn func(name string, h *stats.LatencyHistogram)) {
	fn("highlights", &m.highlights)
	fn("interactions_post", &m.interactionsPost)
	fn("interactions_get", &m.interactionsGet)
	fn("refine", &m.refine)
	fn("refine_status", &m.refineStatus)
	fn("live_chat", &m.liveChat)
	fn("live_advance", &m.liveAdvance)
	fn("live_dots", &m.liveDots)
	fn("live_close", &m.liveClose)
}

// timed wraps a handler with per-request latency recording into h: two
// clock reads and one atomic increment per request, no allocations.
func timed(h *stats.LatencyHistogram, fn http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		fn(w, r)
		h.Record(time.Since(start))
	}
}

// LatencySummary is one endpoint's latency digest on /api/healthz.
// Quantiles come from the log-bucketed histogram (≤ ~3.1% overstatement,
// see stats.LatencyHistogram) and cover every request since process
// start.
type LatencySummary struct {
	Count  uint64  `json:"count"`
	P50Ms  float64 `json:"p50_ms"`
	P99Ms  float64 `json:"p99_ms"`
	P999Ms float64 `json:"p999_ms"`
	MaxMs  float64 `json:"max_ms"`
}

func summarize(h *stats.LatencyHistogram) LatencySummary {
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	return LatencySummary{
		Count:  h.Count(),
		P50Ms:  ms(h.Quantile(0.50)),
		P99Ms:  ms(h.Quantile(0.99)),
		P999Ms: ms(h.Quantile(0.999)),
		MaxMs:  ms(h.Max()),
	}
}

// latencySnapshot builds the healthz latency map, skipping endpoints that
// have served nothing (keeps quiet nodes' healthz small).
func (s *Service) latencySnapshot() map[string]LatencySummary {
	out := make(map[string]LatencySummary)
	s.metrics.each(func(name string, h *stats.LatencyHistogram) {
		if h.Count() > 0 {
			out[name] = summarize(h)
		}
	})
	return out
}
