// Package engine is LIGHTOR's concurrent session engine: the runtime that
// multiplexes many live channels, refines highlight boundaries in the
// background, and runs batch extraction of recorded videos.
//
// The paper's deployment (Section VI, Figure 5) and future-work direction
// (Section IX) describe a platform serving many concurrent broadcasts. The
// engine gives that platform its core primitives:
//
//   - SessionManager: one ordered mailbox per live channel in front of a
//     core.OnlineDetector, drained by a bounded worker pool. Any number of
//     producers may ingest concurrently; per-channel ordering is preserved
//     because exactly one worker owns a mailbox at a time.
//   - RefineQueue: Extractor.Refine as asynchronous background jobs with
//     per-dot fan-out, so refining k red dots costs one dot's latency
//     instead of k.
//   - Batch: ExtractHighlights runs Initializer.Detect over a recorded
//     video's whole chat log on the caller's goroutine, then fans
//     refinement out through the queue. Sessions are live channels only.
//
// Engine.Close drains everything gracefully: intake stops, queued chat and
// in-flight refinements complete, workers exit.
//
// # Batching contract
//
// Ingest is batch-first: every Session.Ingest call — one message or ten
// thousand — rides ONE mailbox envelope, so the per-call tax (watermark
// validation, one lock acquisition, one pool dispatch) amortizes across
// the batch, and the worker feeds the whole slice to the detector in one
// loop. Batching never changes results: a session fed the same
// messages in the same order emits bit-identical dots, watermarks,
// and checkpoints regardless of how the stream was split into batches
// (ingest order is the only contract; batch boundaries are invisible
// downstream). Batch buffers are pooled and the mailbox is a reusable
// ring, so steady-state batched ingest allocates nothing per call.
//
// # Read fast lane
//
// Serving is many-readers-per-writer: one channel's chat produces dots
// that millions of viewers poll. Emitted dots are therefore published as
// an immutable copy-on-write snapshot behind an atomic pointer:
// Session.DotsPage is a lock-free load plus a sub-slice — zero
// allocations, zero contention with ingest, checkpointing, or other
// readers — and each snapshot carries a version (strictly monotonic per
// session, unique process-wide) that response caches key on. Writers pay
// one O(history) copy per emission, which is rare; readers pay nothing.
// Session.Dots keeps the copying form for callers that want to own the
// result.
package engine

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"

	"lightor/internal/chat"
	"lightor/internal/core"
)

// Config tunes the engine. The zero value picks sensible production
// defaults.
type Config struct {
	// SessionWorkers is the size of the pool draining session mailboxes.
	// The default scales with the hardware — runtime.GOMAXPROCS(0) at
	// engine construction — so the engine uses every core it is allowed
	// without configuration; set it explicitly (any value ≥ 1) to pin the
	// pool, e.g. to isolate the engine from latency-sensitive co-tenants.
	// SessionManager.Workers reports the resolved value.
	SessionWorkers int
	// RefineWorkers bounds concurrent per-dot refinements across all jobs
	// (default GOMAXPROCS).
	RefineWorkers int
	// MaxQueuedRefines caps refine jobs admitted but not yet finished
	// (queued + running). Enqueue beyond the cap returns ErrRefineBusy —
	// explicit admission rejection instead of an unbounded goroutine pileup
	// when clients submit faster than refinement drains (default 256,
	// matching the retention cap; negative disables the bound).
	MaxQueuedRefines int
	// MaxSessions caps concurrently open live sessions (default 4096).
	// Opening beyond the cap returns ErrTooManySessions — backpressure
	// instead of unbounded memory when clients mint channel ids freely.
	MaxSessions int
	// Threshold is the online emission threshold (≤ 0 → OnlineDetector's
	// default of 0.5).
	Threshold float64
	// Warmup overrides the online warm-up horizon in seconds. Zero (the
	// zero value) keeps OnlineDetector's production default of 300 s;
	// negative disables warm-up entirely (deterministic tests and
	// benchmarks want this).
	Warmup float64
	// Checkpoints, when set, makes live sessions durable: each session's
	// detector state is snapshotted to the store on an interval, after
	// every emission, and at drain; ResumeSessions restores them at
	// startup so channels continue from their last checkpoint without
	// re-feeding history. platform.Store satisfies the interface.
	Checkpoints CheckpointStore
	// CheckpointInterval is the periodic checkpoint cadence (default 30 s
	// when Checkpoints is set; negative disables the interval loop,
	// leaving only the on-emit and on-drain checkpoints).
	CheckpointInterval time.Duration
}

func (c *Config) fillDefaults() {
	if c.SessionWorkers <= 0 {
		c.SessionWorkers = runtime.GOMAXPROCS(0)
	}
	if c.RefineWorkers <= 0 {
		c.RefineWorkers = runtime.GOMAXPROCS(0)
	}
	if c.MaxQueuedRefines == 0 {
		c.MaxQueuedRefines = maxRetainedJobs
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 4096
	}
	if c.Checkpoints != nil && c.CheckpointInterval == 0 {
		c.CheckpointInterval = 30 * time.Second
	}
}

// Engine owns the streaming runtime: live sessions and the refine queue.
type Engine struct {
	init *core.Initializer
	ext  *core.Extractor

	sessions *SessionManager
	refine   *RefineQueue

	mu     sync.Mutex
	closed bool
}

// New assembles an engine around a trained initializer and an extractor.
func New(init *core.Initializer, ext *core.Extractor, cfg Config) (*Engine, error) {
	if init == nil || ext == nil {
		return nil, errors.New("engine: needs both an initializer and an extractor")
	}
	cfg.fillDefaults()
	return &Engine{
		init: init,
		ext:  ext,
		sessions: newSessionManager(init, cfg.Threshold, cfg.Warmup,
			cfg.SessionWorkers, cfg.MaxSessions, cfg.Checkpoints, cfg.CheckpointInterval),
		refine: newRefineQueue(ext, cfg.RefineWorkers, cfg.MaxQueuedRefines),
	}, nil
}

// ResumeSessions restores every checkpointed live session from the
// configured CheckpointStore — the startup half of crash recovery. It
// returns the resumed channel ids; corrupt checkpoints are skipped and
// reported in the error while healthy channels still resume.
func (e *Engine) ResumeSessions() ([]string, error) {
	return e.sessions.ResumeSessions()
}

// Sessions exposes the live-channel multiplexer.
func (e *Engine) Sessions() *SessionManager { return e.sessions }

// Refine exposes the background refinement queue.
func (e *Engine) Refine() *RefineQueue { return e.refine }

// Extractor returns the extractor the engine refines with.
func (e *Engine) Extractor() *core.Extractor { return e.ext }

// Initializer returns the trained initializer backing all sessions.
func (e *Engine) Initializer() *core.Initializer { return e.init }

// ExtractHighlights is the batch path of Figure 1 on a recorded video: the
// initializer's full-context top-k detection runs on the caller's
// goroutine, then the resulting dots refine in parallel on the queue.
// Results keep the initializer's score order, element for element what
// Detect followed by a serial per-dot Refine returns.
func (e *Engine) ExtractHighlights(ctx context.Context, log *chat.Log, duration float64, k int, source core.InteractionSource) ([]core.HighlightResult, error) {
	e.mu.Lock()
	closed := e.closed
	e.mu.Unlock()
	if closed {
		return nil, ErrClosed
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	dots, err := e.init.Detect(log, duration, k)
	if err != nil {
		return nil, err
	}
	// Tracked so Engine.Close's drain waits for this fan-out like it does
	// for enqueued jobs.
	return e.refine.refineAllTracked(dots, source)
}

// Close gracefully drains the engine: session intake stops, queued chat
// finishes processing, in-flight refinements complete, and the worker
// pools exit. A cancelled ctx abandons the drain and returns its error.
// Both pools are always closed — a session-drain (or drain-checkpoint)
// failure must not leak the refine workers.
func (e *Engine) Close(ctx context.Context) error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	e.mu.Unlock()

	return errors.Join(e.sessions.close(ctx), e.refine.close(ctx))
}
