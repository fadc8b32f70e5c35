// Package platform implements the deployment substrate of Section VI: the
// storage layer, the web crawler against a (simulated) Twitch API, and the
// back-end web service that powers the browser extension — red dots out,
// interaction logs in.
package platform

import (
	"sync"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/play"
)

// VideoRecord is the stored state of one recorded video.
type VideoRecord struct {
	ID       string
	Duration float64
	// Chat is treated as immutable once stored: chat.Log has no mutating
	// methods, so sharing the pointer is safe.
	Chat *chat.Log
	// RedDots holds the current (possibly refined) highlight positions.
	RedDots []core.RedDot
	// Boundaries holds extractor-refined spans, aligned with RedDots once
	// refinement has run.
	Boundaries []core.Interval
}

// clone deep-copies the record's slices so the returned value shares no
// mutable backing arrays with the store (or with the caller that put it).
func (r VideoRecord) clone() VideoRecord {
	cp := r
	cp.RedDots = append([]core.RedDot(nil), r.RedDots...)
	cp.Boundaries = append([]core.Interval(nil), r.Boundaries...)
	return cp
}

// Store is the database backing the web service: chat logs, red dots,
// logged interaction events, and live-session checkpoints per video. It is
// a thin facade over a pluggable Backend — the sharded in-memory map by
// default, or the durable WAL+snapshot FileBackend for deployments that
// must survive a restart. It also implements the engine's CheckpointStore,
// so live sessions checkpoint through the same storage seam.
type Store struct {
	b Backend
	// deg caches the backend's optional degraded-mode capability so the
	// per-request admission check is a nil test + one atomic load, not a
	// type assertion.
	deg DegradedBackend

	// revMu/revs track a per-video revision counter, bumped after every
	// highlight-affecting mutation that flows through the facade
	// (PutVideo, SetRedDots, SetBoundaries, SetRefined). Revisions key
	// the read-path response cache: a bump simply stops old cache entries
	// from being addressed, so invalidation costs nothing on the read
	// side. Revisions are process-local (they restart at zero with the
	// process, exactly like the in-memory cache they key).
	revMu sync.RWMutex
	revs  map[string]uint64
}

// NewStore returns a store over a fresh unbounded in-memory backend.
func NewStore() *Store {
	return NewStoreWith(NewMemoryBackend(MemoryConfig{}))
}

// NewStoreWith wraps an explicit backend.
func NewStoreWith(b Backend) *Store {
	s := &Store{b: b, revs: make(map[string]uint64)}
	s.deg, _ = b.(DegradedBackend)
	return s
}

// Degraded reports whether the backend has fail-stopped into read-only
// mode (see FileBackend.Degraded); backends without the capability are
// never degraded.
func (s *Store) Degraded() (bool, string) {
	if s.deg == nil {
		return false, ""
	}
	return s.deg.Degraded()
}

// Close releases the backend (flushes and fsyncs a durable backend).
func (s *Store) Close() error { return s.b.Close() }

// bumpRev advances a video's revision. Called AFTER the backend mutation
// is applied, so a reader that loads the revision and then the view can
// pair an old revision with newer data (a transient re-encode on the next
// poll) but never a new revision with stale data (which would poison the
// response cache).
func (s *Store) bumpRev(id string) {
	s.revMu.Lock()
	if s.revs == nil {
		s.revs = make(map[string]uint64)
	}
	s.revs[id]++
	s.revMu.Unlock()
}

// Revision returns the video's current revision: a process-local counter
// that changes whenever the video's served highlight state may have
// changed. (id, k, Revision(id)) fully keys a highlights response.
func (s *Store) Revision(id string) uint64 {
	s.revMu.RLock()
	rev := s.revs[id]
	s.revMu.RUnlock()
	return rev
}

// PutVideo inserts or replaces a video record with deep-copy semantics.
func (s *Store) PutVideo(rec VideoRecord) error {
	if err := s.b.PutVideo(rec); err != nil {
		return err
	}
	s.bumpRev(rec.ID)
	return nil
}

// Video returns a deep copy of the record for id, or false when absent.
func (s *Store) Video(id string) (VideoRecord, bool) { return s.b.Video(id) }

// HighlightView returns the read view highlight serving needs — duration,
// dots, boundaries, chat presence — without cloning anything: the slices
// are shared with the store and immutable (every write replaces backing
// arrays wholesale). Callers must treat them as read-only.
func (s *Store) HighlightView(id string) (HighlightView, bool) {
	return s.b.HighlightView(id)
}

// HasVideo reports whether a record exists for id (no deep copy).
func (s *Store) HasVideo(id string) bool { return s.b.HasVideo(id) }

// HasChat reports whether chat for the video has been crawled already.
// A crawled-but-empty log still counts: re-crawling it would not produce
// messages that do not exist.
func (s *Store) HasChat(id string) bool { return s.b.HasChat(id) }

// SetRedDots records the current highlight positions for a video.
func (s *Store) SetRedDots(id string, dots []core.RedDot) error {
	if err := s.b.SetRedDots(id, dots); err != nil {
		return err
	}
	s.bumpRev(id)
	return nil
}

// SetBoundaries records extractor-refined highlight spans for a video.
func (s *Store) SetBoundaries(id string, spans []core.Interval) error {
	if err := s.b.SetBoundaries(id, spans); err != nil {
		return err
	}
	s.bumpRev(id)
	return nil
}

// SetRefined records refined dots and their boundaries in one critical
// section, so a concurrent reader never observes one without the other.
func (s *Store) SetRefined(id string, dots []core.RedDot, spans []core.Interval) error {
	if err := s.b.SetRefined(id, dots, spans); err != nil {
		return err
	}
	s.bumpRev(id)
	return nil
}

// LogEvents appends deep copies of interaction events for a video, subject
// to the backend's retention policy.
func (s *Store) LogEvents(id string, events []play.Event) error {
	return s.b.AppendEvents(id, events)
}

// LogEventsBatch appends a multi-video burst of interaction events as one
// batch mutation: validated as a whole, applied in order, and (on a
// durable backend) acknowledged with a single durability wait for the
// entire burst.
func (s *Store) LogEventsBatch(batch []EventBatch) error {
	return s.b.AppendEventsBatch(batch)
}

// Events returns a copy of all retained events for a video.
func (s *Store) Events(id string) []play.Event {
	evs, _ := s.b.ScanEvents(id, 0, 0)
	return evs
}

// EventsPage returns one page of a video's retained events (offset into
// the retained log, 0 = oldest) plus the total retained count — the
// paginated form GET readers should use instead of Events.
func (s *Store) EventsPage(id string, offset, limit int) ([]play.Event, int) {
	return s.b.ScanEvents(id, offset, limit)
}

// Plays sessionizes all logged events for a video into play records.
func (s *Store) Plays(id string) []play.Play {
	return play.Sessionize(s.Events(id))
}

// VideoIDs returns all stored video IDs, sorted.
func (s *Store) VideoIDs() []string { return s.b.VideoIDs() }

// PutCheckpoint stores a live session's serialized detector state; with a
// durable backend it survives a crash and feeds engine resume. Store
// thereby satisfies the engine's CheckpointStore interface.
func (s *Store) PutCheckpoint(channel string, state []byte) error {
	return s.b.PutCheckpoint(channel, state)
}

// Checkpoints returns a copy of all stored session checkpoints.
func (s *Store) Checkpoints() map[string][]byte { return s.b.Checkpoints() }

// DeleteCheckpoint removes a finished broadcast's checkpoint.
func (s *Store) DeleteCheckpoint(channel string) error {
	return s.b.DeleteCheckpoint(channel)
}
