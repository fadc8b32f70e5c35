package platform

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/play"
)

// Backend is the storage seam behind Store: everything the web service and
// the session engine persist — video records (chat, red dots, refined
// boundaries), append-only interaction event logs, and live-session
// checkpoints. Two implementations ship: the sharded in-memory map
// (MemoryBackend) and the durable file-backed WAL+snapshot store
// (FileBackend). Both must satisfy the shared conformance suite: deep-copy
// value semantics on every read and write, per-video consistency under
// concurrency, and identical pagination behavior.
type Backend interface {
	// PutVideo inserts or replaces a video record (deep-copied).
	PutVideo(rec VideoRecord) error
	// Video returns a deep copy of the record for id, or false when absent.
	Video(id string) (VideoRecord, bool)
	// HasVideo reports whether a record exists for id — the cheap
	// existence probe (no deep copy) hot read paths should use.
	HasVideo(id string) bool
	// HasChat reports whether the video exists with a crawled chat log
	// (a crawled-but-empty log counts).
	HasChat(id string) bool
	// HighlightView returns the highlight-serving read view of a video
	// WITHOUT cloning: the returned slices share the store's backing
	// arrays, which are immutable by construction (every mutation
	// replaces them wholesale; none appends or writes in place). Callers
	// must treat the view as read-only. This is the read fast lane —
	// Video()'s deep-copy tax exists for callers that mutate, which a
	// serving path never does.
	HighlightView(id string) (HighlightView, bool)
	// VideoIDs returns all stored video IDs, sorted.
	VideoIDs() []string
	// SetRedDots records the current highlight positions for a video.
	SetRedDots(id string, dots []core.RedDot) error
	// SetBoundaries records extractor-refined spans for a video.
	SetBoundaries(id string, spans []core.Interval) error
	// SetRefined records dots and boundaries in one critical section.
	SetRefined(id string, dots []core.RedDot, spans []core.Interval) error
	// AppendEvents appends interaction events to a video's log, applying
	// the backend's retention policy.
	AppendEvents(id string, events []play.Event) error
	// AppendEventsBatch appends a burst of interaction events spanning any
	// number of videos as one ATOMIC batch mutation: the whole batch is
	// validated up front (an unknown video fails the call with nothing
	// applied), entries apply in order, and no concurrent mutation can
	// interleave between them — a reader never observes the batch
	// half-applied. A durable backend acknowledges the entire burst with a
	// single durability wait instead of one per video, and the resulting
	// log replays bit-identically to the same entries appended one at a
	// time.
	AppendEventsBatch(batch []EventBatch) error
	// ScanEvents returns a page of the video's retained event log starting
	// at offset (0 = oldest retained), plus the total retained count.
	// limit <= 0 means "to the end".
	ScanEvents(id string, offset, limit int) ([]play.Event, int)
	// PutCheckpoint durably stores a live session's serialized state.
	PutCheckpoint(channel string, state []byte) error
	// Checkpoints returns a copy of all stored session checkpoints.
	Checkpoints() map[string][]byte
	// DeleteCheckpoint removes a session checkpoint (a finished broadcast).
	DeleteCheckpoint(channel string) error
	// Close releases the backend's resources, flushing anything pending.
	Close() error
}

// DegradedBackend is the optional capability behind fail-stop degraded
// mode: a durable backend that can permanently refuse writes after a disk
// fault while still serving reads from memory. FileBackend implements it;
// MemoryBackend (no disk to fault) does not. The Store facade and healthz
// surface it; the admission layer sheds writes while it reports true.
type DegradedBackend interface {
	// Degraded reports whether the backend is in read-only degraded mode
	// and, when it is, a human-readable cause. Must be cheap and
	// lock-free: it runs on every write admission check.
	Degraded() (bool, string)
}

// EventBatch is one video's slice of a multi-video interaction burst —
// the unit of Backend.AppendEventsBatch.
type EventBatch struct {
	VideoID string
	Events  []play.Event
}

// HighlightView is the zero-copy read view behind GET /api/highlights:
// everything the serving path touches, nothing it doesn't (no chat
// messages, no interaction events). The slices are shared with the store
// and immutable — snapshot-isolated from later writes, which replace the
// store's arrays rather than mutating them.
type HighlightView struct {
	ID         string
	Duration   float64
	RedDots    []core.RedDot
	Boundaries []core.Interval
	// Chat is the video's chat log (shared, immutable), nil when not yet
	// crawled. The steady-state serving path never reads it; cold-start
	// detection does.
	Chat *chat.Log
}

// MemoryConfig tunes a MemoryBackend.
type MemoryConfig struct {
	// EventRetention caps the interaction events retained per video;
	// appends beyond it compact away the oldest events. 0 means unlimited
	// (the pre-retention behavior — fine for tests, unbounded in
	// production).
	EventRetention int
}

// storeShards is the lock-shard count. Power of two, comfortably above
// typical core counts, so concurrent request handlers touching different
// videos almost never contend on the same mutex.
const storeShards = 32

// storeShard is one lock domain: a slice of the video and event maps.
type storeShard struct {
	mu     sync.RWMutex
	videos map[string]*VideoRecord
	events map[string][]play.Event
}

// MemoryBackend is the thread-safe in-memory implementation of Backend:
// keys are sharded across independently locked maps, so the store scales
// with concurrent handlers instead of serializing them on one mutex. All
// reads return deep copies and all writes store deep copies — value
// semantics hold even under concurrent mutation by callers.
type MemoryBackend struct {
	cfg    MemoryConfig
	shards [storeShards]storeShard

	ckptMu sync.RWMutex
	ckpts  map[string][]byte
}

// NewMemoryBackend returns an empty in-memory backend.
func NewMemoryBackend(cfg MemoryConfig) *MemoryBackend {
	b := &MemoryBackend{cfg: cfg, ckpts: make(map[string][]byte)}
	for i := range b.shards {
		b.shards[i].videos = make(map[string]*VideoRecord)
		b.shards[i].events = make(map[string][]play.Event)
	}
	return b
}

func (b *MemoryBackend) shardIndex(id string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(id))
	return h.Sum32() % storeShards
}

func (b *MemoryBackend) shard(id string) *storeShard {
	return &b.shards[b.shardIndex(id)]
}

// PutVideo inserts or replaces a video record. The record is stored with
// deep-copy semantics: the store keeps its own backing arrays for RedDots
// and Boundaries, so the caller may keep mutating its slices freely.
func (b *MemoryBackend) PutVideo(rec VideoRecord) error {
	if rec.ID == "" {
		return fmt.Errorf("platform: video record needs an ID")
	}
	sh := b.shard(rec.ID)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	cp := rec.clone()
	sh.videos[rec.ID] = &cp
	return nil
}

// Video returns a deep copy of the record for id, or false when absent.
func (b *MemoryBackend) Video(id string) (VideoRecord, bool) {
	sh := b.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.videos[id]
	if !ok {
		return VideoRecord{}, false
	}
	return rec.clone(), true
}

// HasVideo reports whether a record exists for id without cloning it —
// the cheap existence probe validation and serving paths want.
func (b *MemoryBackend) HasVideo(id string) bool {
	sh := b.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	_, ok := sh.videos[id]
	return ok
}

// HasChat reports whether the video exists with a crawled chat log,
// without cloning the record. A crawled-but-empty log still counts:
// re-crawling it would not produce messages that do not exist.
func (b *MemoryBackend) HasChat(id string) bool {
	sh := b.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.videos[id]
	return ok && rec.Chat != nil
}

// HighlightView returns the highlight-serving read view, sharing the
// record's immutable backing arrays instead of cloning them. Safe because
// every mutation on this backend replaces RedDots/Boundaries wholesale
// (fresh arrays under the shard lock) and chat.Log is immutable; the view
// is therefore a consistent snapshot untouched by later writes.
func (b *MemoryBackend) HighlightView(id string) (HighlightView, bool) {
	sh := b.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	rec, ok := sh.videos[id]
	if !ok {
		return HighlightView{}, false
	}
	return HighlightView{
		ID:         rec.ID,
		Duration:   rec.Duration,
		RedDots:    rec.RedDots,
		Boundaries: rec.Boundaries,
		Chat:       rec.Chat,
	}, true
}

// VideoIDs returns all stored video IDs, sorted.
func (b *MemoryBackend) VideoIDs() []string {
	var ids []string
	for i := range b.shards {
		sh := &b.shards[i]
		sh.mu.RLock()
		for id := range sh.videos {
			ids = append(ids, id)
		}
		sh.mu.RUnlock()
	}
	sort.Strings(ids)
	return ids
}

// SetRedDots records the current highlight positions for a video.
func (b *MemoryBackend) SetRedDots(id string, dots []core.RedDot) error {
	sh := b.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.videos[id]
	if !ok {
		return fmt.Errorf("platform: unknown video %q", id)
	}
	rec.RedDots = append([]core.RedDot(nil), dots...)
	return nil
}

// SetBoundaries records extractor-refined highlight spans for a video.
func (b *MemoryBackend) SetBoundaries(id string, spans []core.Interval) error {
	sh := b.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.videos[id]
	if !ok {
		return fmt.Errorf("platform: unknown video %q", id)
	}
	rec.Boundaries = append([]core.Interval(nil), spans...)
	return nil
}

// SetRefined records refined dots and their boundaries in one critical
// section, so a concurrent reader never observes one without the other.
func (b *MemoryBackend) SetRefined(id string, dots []core.RedDot, spans []core.Interval) error {
	sh := b.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	rec, ok := sh.videos[id]
	if !ok {
		return fmt.Errorf("platform: unknown video %q", id)
	}
	rec.RedDots = append([]core.RedDot(nil), dots...)
	rec.Boundaries = append([]core.Interval(nil), spans...)
	return nil
}

// AppendEvents appends deep copies of interaction events for a video.
// When EventRetention is set, the log is compacted in place: once it
// overflows the cap by 25% the oldest events are dropped down to the cap,
// so per-append cost stays amortized O(1) instead of O(cap).
func (b *MemoryBackend) AppendEvents(id string, events []play.Event) error {
	sh := b.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.videos[id]; !ok {
		return fmt.Errorf("platform: unknown video %q", id)
	}
	b.appendEventsLocked(sh, id, events)
	return nil
}

// appendEventsLocked is the append+retention body; caller holds sh.mu.
func (b *MemoryBackend) appendEventsLocked(sh *storeShard, id string, events []play.Event) {
	log := sh.events[id]
	if cap := b.cfg.EventRetention; cap > 0 && len(log)+len(events) > cap+cap/4 {
		// Keep the newest cap events of log+events in a slice with room
		// for cap/4 more: every append until the next compaction then fits,
		// and no append reallocates and copies the whole log first.
		if len(events) >= cap {
			log, events = nil, events[len(events)-cap:]
		} else {
			log = log[len(log)-(cap-len(events)):]
		}
		log = append(make([]play.Event, 0, cap+cap/4), log...)
	}
	sh.events[id] = append(log, events...)
}

// AppendEventsBatch appends a multi-video event burst atomically: every
// shard the batch touches is locked (in index order, so concurrent
// batches cannot deadlock) before anything is validated or applied, so a
// concurrent append can never interleave between the batch's entries and
// a reader never observes the batch half-applied — the same atomicity
// FileBackend gets from holding its mutex across the batch.
func (b *MemoryBackend) AppendEventsBatch(batch []EventBatch) error {
	if len(batch) == 0 {
		return nil
	}
	var touched [storeShards]bool
	for _, eb := range batch {
		touched[b.shardIndex(eb.VideoID)] = true
	}
	for i := range b.shards {
		if touched[i] {
			b.shards[i].mu.Lock()
			defer b.shards[i].mu.Unlock()
		}
	}
	for _, eb := range batch {
		sh := b.shard(eb.VideoID)
		if _, ok := sh.videos[eb.VideoID]; !ok {
			return fmt.Errorf("platform: unknown video %q", eb.VideoID)
		}
	}
	for _, eb := range batch {
		b.appendEventsLocked(b.shard(eb.VideoID), eb.VideoID, eb.Events)
	}
	return nil
}

// ScanEvents returns a page of a video's retained events plus the total
// retained count. offset indexes the retained log (0 = oldest retained
// event); limit <= 0 returns everything from offset on.
func (b *MemoryBackend) ScanEvents(id string, offset, limit int) ([]play.Event, int) {
	sh := b.shard(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	log := sh.events[id]
	total := len(log)
	if offset < 0 {
		offset = 0
	}
	if offset >= total {
		return nil, total
	}
	page := log[offset:]
	if limit > 0 && len(page) > limit {
		page = page[:limit]
	}
	return append([]play.Event(nil), page...), total
}

// PutCheckpoint stores a copy of a live session's serialized state.
func (b *MemoryBackend) PutCheckpoint(channel string, state []byte) error {
	if channel == "" {
		return fmt.Errorf("platform: checkpoint needs a channel id")
	}
	cp := append([]byte(nil), state...)
	b.ckptMu.Lock()
	b.ckpts[channel] = cp
	b.ckptMu.Unlock()
	return nil
}

// Checkpoints returns a deep copy of all stored session checkpoints.
func (b *MemoryBackend) Checkpoints() map[string][]byte {
	b.ckptMu.RLock()
	defer b.ckptMu.RUnlock()
	out := make(map[string][]byte, len(b.ckpts))
	for ch, st := range b.ckpts {
		out[ch] = append([]byte(nil), st...)
	}
	return out
}

// DeleteCheckpoint removes a session checkpoint.
func (b *MemoryBackend) DeleteCheckpoint(channel string) error {
	b.ckptMu.Lock()
	delete(b.ckpts, channel)
	b.ckptMu.Unlock()
	return nil
}

// Close is a no-op for the in-memory backend.
func (b *MemoryBackend) Close() error { return nil }
