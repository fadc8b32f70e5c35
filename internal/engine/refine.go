package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"lightor/internal/core"
	"lightor/internal/play"
)

// ErrRefineBusy means the refine queue is over its admission budget:
// MaxQueuedRefines jobs are already admitted and not yet finished. The
// caller should retry later — the platform layer maps this to
// 429 + Retry-After. Before this sentinel existed the queue accepted
// unboundedly and the retention cap silently evicted finished history;
// now overload is an explicit, observable rejection at intake.
var ErrRefineBusy = errors.New("engine: refine queue at capacity")

// JobStatus is the lifecycle of a refinement job.
type JobStatus string

const (
	JobQueued  JobStatus = "queued"
	JobRunning JobStatus = "running"
	JobDone    JobStatus = "done"
)

// RefineJob is an asynchronous boundary-refinement job over one video's
// red dots. Fields are snapshots — safe to serve to pollers.
type RefineJob struct {
	ID      string                 `json:"id"`
	VideoID string                 `json:"video_id"`
	Status  JobStatus              `json:"status"`
	Dots    []core.RedDot          `json:"dots,omitempty"`
	Results []core.HighlightResult `json:"-"`
	Err     string                 `json:"error,omitempty"`
}

// refineJob is the queue's mutable record behind the snapshots.
type refineJob struct {
	mu   sync.Mutex
	snap RefineJob
	done chan struct{}
}

// RefineQueue turns Extractor.Refine into background jobs. Each job fans
// out one refinement goroutine per red dot — the per-dot loops are
// independent (a dot's refinement reads the interaction source, never
// another dot's state), so they run in parallel. A global semaphore bounds
// concurrent refinements across all jobs.
type RefineQueue struct {
	ext       *core.Extractor
	sem       chan struct{}
	maxQueued int // admission cap on unfinished jobs; <= 0 → unbounded

	mu     sync.Mutex
	jobs   map[string]*refineJob
	order  []string // insertion order, for bounded retention
	active int      // jobs admitted and not yet finished
	seq    int
	closed bool
	wg     sync.WaitGroup
}

// maxRetainedJobs bounds how many jobs the queue remembers for status
// polling. Once exceeded, the oldest finished jobs (and their result
// traces) are dropped; in-flight jobs are never evicted. Keeps a
// long-running server that refines periodically from growing without
// bound.
const maxRetainedJobs = 256

func newRefineQueue(ext *core.Extractor, workers, maxQueued int) *RefineQueue {
	return &RefineQueue{
		ext:       ext,
		sem:       make(chan struct{}, workers),
		maxQueued: maxQueued,
		jobs:      make(map[string]*refineJob),
	}
}

// Enqueue schedules refinement of dots against source and returns
// immediately with the job's id. onDone, when non-nil, runs exactly once
// after the job finishes (the service uses it to persist boundaries).
// Result order matches the dot order regardless of completion order.
func (q *RefineQueue) Enqueue(videoID string, dots []core.RedDot, source core.InteractionSource, onDone func(RefineJob)) (RefineJob, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return RefineJob{}, ErrClosed
	}
	if q.maxQueued > 0 && q.active >= q.maxQueued {
		q.mu.Unlock()
		return RefineJob{}, fmt.Errorf("%w (%d jobs in flight)", ErrRefineBusy, q.maxQueued)
	}
	q.active++
	q.seq++
	id := fmt.Sprintf("refine-%d", q.seq)
	j := &refineJob{
		snap: RefineJob{
			ID:      id,
			VideoID: videoID,
			Status:  JobQueued,
			Dots:    append([]core.RedDot(nil), dots...),
		},
		done: make(chan struct{}),
	}
	q.jobs[id] = j
	q.order = append(q.order, id)
	q.evictLocked()
	q.wg.Add(1)
	q.mu.Unlock()

	go q.run(j, source, onDone)
	return j.snapshot(), nil
}

func (q *RefineQueue) run(j *refineJob, source core.InteractionSource, onDone func(RefineJob)) {
	defer q.wg.Done()
	j.mu.Lock()
	dots := append([]core.RedDot(nil), j.snap.Dots...)
	j.snap.Status = JobRunning
	j.mu.Unlock()

	results := q.refineAll(dots, source)

	j.mu.Lock()
	j.snap.Results = results
	j.snap.Status = JobDone
	snap := j.snapshotLocked()
	j.mu.Unlock()
	if onDone != nil {
		onDone(snap)
	}
	// Release the admission slot before signalling completion so a waiter
	// that saw the job finish can immediately enqueue another.
	q.mu.Lock()
	q.active--
	q.mu.Unlock()
	close(j.done)
}

// lockedSource serializes InteractionSource calls. The InteractionSource
// contract predates the engine and most implementations (simulated crowds
// with a shared rng, store-backed logs) are not safe for concurrent use,
// so the fan-out below must not call them from several goroutines at
// once. Refinement's CPU-heavy work (filtering, the outlier graph,
// aggregation) still runs in parallel; only the data fetch is serialized.
type lockedSource struct {
	mu  sync.Mutex
	src core.InteractionSource
}

func (l *lockedSource) Interactions(dot float64) []play.Play {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.src.Interactions(dot)
}

// refineAllTracked runs refineAll registered against the queue's drain
// group, so close() waits for it like it waits for enqueued jobs. Returns
// ErrClosed once the queue is draining.
func (q *RefineQueue) refineAllTracked(dots []core.RedDot, source core.InteractionSource) ([]core.HighlightResult, error) {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil, ErrClosed
	}
	q.wg.Add(1)
	q.mu.Unlock()
	defer q.wg.Done()
	return q.refineAll(dots, source), nil
}

// refineAll refines every dot concurrently (bounded by the semaphore) and
// returns results in dot order. Calls into source never overlap, but
// their order across dots is unspecified — stateful sources see a
// different call sequence than the old serial loop did.
func (q *RefineQueue) refineAll(dots []core.RedDot, source core.InteractionSource) []core.HighlightResult {
	locked := &lockedSource{src: source}
	results := make([]core.HighlightResult, len(dots))
	var wg sync.WaitGroup
	for i, dot := range dots {
		wg.Add(1)
		go func(i int, dot core.RedDot) {
			defer wg.Done()
			q.sem <- struct{}{}
			defer func() { <-q.sem }()
			seed := core.Interval{Start: dot.Time, End: dot.Time + q.ext.Config().DefaultSpan}
			boundary, trace := q.ext.Refine(seed, locked)
			results[i] = core.HighlightResult{Dot: dot, Boundary: boundary, Trace: trace}
		}(i, dot)
	}
	wg.Wait()
	return results
}

// evictLocked drops the oldest finished jobs until the retention cap
// holds. Caller holds q.mu; job snapshots are taken with j.mu, which is
// never held while acquiring q.mu, so the lock order here is safe.
func (q *RefineQueue) evictLocked() {
	if len(q.jobs) <= maxRetainedJobs {
		return
	}
	kept := q.order[:0]
	for i, id := range q.order {
		j, ok := q.jobs[id]
		if !ok {
			continue
		}
		if len(q.jobs) > maxRetainedJobs && j.snapshot().Status == JobDone {
			delete(q.jobs, id)
			continue
		}
		kept = append(kept, q.order[i])
	}
	q.order = append([]string(nil), kept...)
}

// Job returns a snapshot of the job with the given id.
func (q *RefineQueue) Job(id string) (RefineJob, bool) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return RefineJob{}, false
	}
	return j.snapshot(), true
}

// Wait blocks until the job completes (or ctx expires) and returns its
// final snapshot.
func (q *RefineQueue) Wait(ctx context.Context, id string) (RefineJob, error) {
	q.mu.Lock()
	j, ok := q.jobs[id]
	q.mu.Unlock()
	if !ok {
		return RefineJob{}, fmt.Errorf("engine: unknown refine job %q", id)
	}
	select {
	case <-j.done:
		return j.snapshot(), nil
	case <-ctx.Done():
		return RefineJob{}, ctx.Err()
	}
}

// close stops intake and waits for in-flight jobs; part of Engine.Close's
// graceful drain.
func (q *RefineQueue) close(ctx context.Context) error {
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return nil
	}
	q.closed = true
	q.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		q.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("engine: refine drain interrupted: %w", ctx.Err())
	}
}

func (j *refineJob) snapshot() RefineJob {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.snapshotLocked()
}

func (j *refineJob) snapshotLocked() RefineJob {
	snap := j.snap
	snap.Dots = append([]core.RedDot(nil), j.snap.Dots...)
	snap.Results = append([]core.HighlightResult(nil), j.snap.Results...)
	return snap
}
