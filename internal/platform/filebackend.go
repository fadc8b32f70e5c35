package platform

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/fault"
	"lightor/internal/play"
	"lightor/internal/wal"
)

// Failpoint sites (package fault) in the snapshot-compaction path; the WAL
// itself defines wal/write and wal/sync.
var (
	// FailpointSnapshotWrite fires as the compaction snapshot temp file is
	// written.
	FailpointSnapshotWrite = fault.Register("platform/snapshot-write")
	// FailpointSnapshotRename fires in place of the atomic rename that
	// publishes a compaction snapshot.
	FailpointSnapshotRename = fault.Register("platform/snapshot-rename")
)

// ErrDegraded is returned for every mutation once a durable backend has
// fail-stopped after a disk fault: the WAL writer is poisoned, so nothing
// can be made durable again, and rather than acknowledge writes it cannot
// keep the backend rejects them while reads keep serving from memory.
// Match with errors.Is; the HTTP layer maps it to a 503 shed response.
var ErrDegraded = errors.New("platform: store degraded (disk fault): writes rejected, reads serve from memory")

// FileConfig tunes a FileBackend. It has no commit-delay setting: durable
// mutations are group-committed by the WAL's self-clocked flusher (one
// fsync per waiter when alone, one per group under concurrency; see
// package wal), so there is no window to trade latency against batching.
type FileConfig struct {
	// EventRetention caps the interaction events retained per video
	// (0 = unlimited); it applies identically at replay, so recovered
	// state matches what a never-restarted process would hold.
	EventRetention int
	// SnapshotEvery is the number of WAL records between snapshot
	// compactions (default 4096). Each compaction writes the full
	// materialized state and retires the old log, bounding both disk
	// growth and cold-start replay time.
	SnapshotEvery int
	// NoSync disables fsync (tests and benchmarks).
	NoSync bool
}

func (c *FileConfig) fillDefaults() {
	if c.SnapshotEvery <= 0 {
		c.SnapshotEvery = 4096
	}
}

// FileBackend is the durable Backend: a materialized in-memory state
// (an embedded MemoryBackend serving all reads) in front of an append-only
// WAL plus periodic snapshot compaction.
//
// Every mutation is appended to the WAL and applied to the materialized
// state under one mutex, so replay order always equals apply order.
// Interaction events and session checkpoints — the implicit crowd signal
// the paper's deployment accumulates — are acknowledged only after their
// WAL record is fsynced (group-committed); other mutations ride the
// background sync and the snapshot written at Close.
//
// On open, the backend loads the newest snapshot, replays the WAL
// generation it names (tolerating a torn tail from a crash mid-append),
// and deletes orphaned logs from interrupted compactions. Compaction is
// crash-safe at every step: the new log is created first, the snapshot
// naming it is atomically renamed into place, and only then is the old
// log retired — a crash between any two steps recovers to a consistent
// state with no record applied twice (the WAL generation binds each log
// to the snapshot that covers everything before it, which keeps
// non-idempotent event appends exactly-once).
type FileBackend struct {
	dir string
	cfg FileConfig
	mem *MemoryBackend

	mu          sync.Mutex // orders WAL append + state apply; held across compaction
	w           *wal.Writer
	gen         uint64
	recs        int // records appended to the current log
	nextCompact int // record count that triggers the next compaction attempt
	closed      bool

	// degraded flips (once, permanently for this process) when the WAL
	// writer poisons: the backend turns read-only. Atomic so healthz and
	// the admission path can check it without taking fb.mu.
	degraded      atomic.Bool
	degradedCause atomic.Value // error
}

// WAL record operations. The payload is JSON: small, self-describing, and
// decodable by the fuzz-hardened path below (malformed records error,
// never panic).
const (
	opPutVideo      = "put_video"
	opSetDots       = "set_dots"
	opSetBoundaries = "set_bounds"
	opSetRefined    = "set_refined"
	opAppendEvents  = "events"
	opPutCkpt       = "ckpt"
	opDelCkpt       = "del_ckpt"
)

// walRecord is one logged mutation. Exactly the fields its Op needs are
// set; the rest stay empty (and omitted from the JSON). json.Marshal writes
// it; replay reads it back with scanWALRecord, which falls back to
// json.Unmarshal for any record outside the shapes it knows.
type walRecord struct {
	Op      string          `json:"op"`
	Video   *videoSnapshot  `json:"video,omitempty"`
	ID      string          `json:"id,omitempty"`
	Dots    []core.RedDot   `json:"dots,omitempty"`
	Spans   []core.Interval `json:"spans,omitempty"`
	Events  []play.Event    `json:"events,omitempty"`
	Channel string          `json:"channel,omitempty"`
	State   []byte          `json:"state,omitempty"`

	// chatLog carries the caller's already-built (and already-sorted)
	// chat.Log on the live put_video path, sparing a per-put copy+re-sort
	// of the whole message slice. Never serialized: replay rebuilds the
	// log from Video.Chat, which chat.NewLog sorts to the identical order
	// (stable sort of an already-sorted slice).
	chatLog *chat.Log `json:"-"`
}

// decodeWALRecord parses and validates one WAL payload: through
// scanWALRecord, or json.Unmarshal where that refuses. Malformed input —
// bad JSON, an unknown op, an op missing its required fields — is an
// error, never a panic: WAL payloads come off disk.
func decodeWALRecord(payload []byte) (walRecord, error) {
	rec, ok := scanWALRecord(string(payload))
	if !ok {
		// A variable of its own: json.Unmarshal moves it to the heap.
		var std walRecord
		if err := json.Unmarshal(payload, &std); err != nil {
			return std, fmt.Errorf("platform: undecodable wal record: %w", err)
		}
		rec = std
	}
	return rec, checkWALRecord(rec)
}

// checkWALRecord rejects a record whose op is unknown or lacks the field
// the op needs.
func checkWALRecord(rec walRecord) error {
	switch rec.Op {
	case opPutVideo:
		if rec.Video == nil {
			return fmt.Errorf("platform: %s record without video", rec.Op)
		}
	case opSetDots, opSetBoundaries, opSetRefined, opAppendEvents:
		if rec.ID == "" {
			return fmt.Errorf("platform: %s record without video id", rec.Op)
		}
	case opPutCkpt, opDelCkpt:
		if rec.Channel == "" {
			return fmt.Errorf("platform: %s record without channel", rec.Op)
		}
	default:
		return fmt.Errorf("platform: unknown wal op %q", rec.Op)
	}
	return nil
}

// applyWALRecord applies one decoded mutation to the materialized state —
// the single code path shared by live mutations and startup replay, so
// recovery cannot diverge from the state the process actually held.
func applyWALRecord(b *MemoryBackend, rec walRecord) error {
	switch rec.Op {
	case opPutVideo:
		vr := VideoRecord{
			ID:         rec.Video.ID,
			Duration:   rec.Video.Duration,
			RedDots:    rec.Video.RedDots,
			Boundaries: rec.Video.Boundaries,
		}
		switch {
		case rec.chatLog != nil:
			vr.Chat = rec.chatLog
		case rec.Video.Chat != nil:
			vr.Chat = chat.NewLog(rec.Video.Chat)
		}
		return b.PutVideo(vr)
	case opSetDots:
		return b.SetRedDots(rec.ID, rec.Dots)
	case opSetBoundaries:
		return b.SetBoundaries(rec.ID, rec.Spans)
	case opSetRefined:
		return b.SetRefined(rec.ID, rec.Dots, rec.Spans)
	case opAppendEvents:
		return b.AppendEvents(rec.ID, rec.Events)
	case opPutCkpt:
		return b.PutCheckpoint(rec.Channel, rec.State)
	case opDelCkpt:
		return b.DeleteCheckpoint(rec.Channel)
	default:
		return fmt.Errorf("platform: unknown wal op %q", rec.Op)
	}
}

const snapshotFile = "store.snap"

func (fb *FileBackend) walPath(gen uint64) string {
	return filepath.Join(fb.dir, fmt.Sprintf("wal-%08d.log", gen))
}

func (fb *FileBackend) walOpts() wal.Options {
	return wal.Options{NoSync: fb.cfg.NoSync}
}

// OpenFileBackend opens (creating if needed) the durable store rooted at
// dir: it loads the snapshot, replays the covering WAL generation through
// the same apply path live mutations use, truncates any torn tail, and
// deletes logs orphaned by an interrupted compaction.
func OpenFileBackend(dir string, cfg FileConfig) (*FileBackend, error) {
	cfg.fillDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("platform: %w", err)
	}
	fb := &FileBackend{
		dir: dir,
		cfg: cfg,
		mem: NewMemoryBackend(MemoryConfig{EventRetention: cfg.EventRetention}),
	}

	snapPath := filepath.Join(dir, snapshotFile)
	if f, err := os.Open(snapPath); err == nil {
		snap, rerr := readSnapshot(f)
		f.Close()
		if rerr != nil {
			return nil, rerr
		}
		if err := applySnapshot(snap, fb.mem); err != nil {
			return nil, err
		}
		fb.gen = snap.WALGen
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("platform: %w", err)
	}

	walPath := fb.walPath(fb.gen)
	w, replayed, err := wal.Open(walPath, fb.walOpts(), func(payload []byte) error {
		rec, err := decodeWALRecord(payload)
		if err != nil {
			return err
		}
		return applyWALRecord(fb.mem, rec)
	})
	if err != nil {
		return nil, err
	}
	fb.w = w
	fb.recs = replayed
	fb.nextCompact = cfg.SnapshotEvery

	// Retire logs from other generations: either already compacted into
	// the snapshot, or orphans of a compaction that crashed before the
	// snapshot rename.
	if orphans, err := filepath.Glob(filepath.Join(dir, "wal-*.log")); err == nil {
		for _, o := range orphans {
			if o != walPath {
				os.Remove(o)
			}
		}
	}
	return fb, nil
}

// validateLocked rejects a mutation that could not apply cleanly — the
// checks applyWALRecord would fail on — WITHOUT touching state, so the
// write path can run validate → WAL append → apply: a record that reaches
// the log always applies, and a record that fails to reach the log (disk
// error) is NACKed with the materialized state untouched. Caller holds
// fb.mu, so validation cannot race the apply.
func (fb *FileBackend) validateLocked(rec walRecord) error {
	switch rec.Op {
	case opPutVideo:
		if rec.Video.ID == "" {
			return fmt.Errorf("platform: video record needs an ID")
		}
	case opSetDots, opSetBoundaries, opSetRefined, opAppendEvents:
		if !fb.mem.HasVideo(rec.ID) {
			return fmt.Errorf("platform: unknown video %q", rec.ID)
		}
	case opPutCkpt, opDelCkpt:
		if rec.Channel == "" {
			return fmt.Errorf("platform: checkpoint needs a channel id")
		}
	}
	return nil
}

// mutate is the one write path: it logs a burst of mutations (usually one)
// through a single wal.AppendBatch — one staging-buffer write — and applies
// them in order to the materialized state under the backend mutex, then
// (for durable ops) waits outside the mutex for the group commit covering
// the burst, so concurrent durable mutations share fsyncs instead of
// serializing on them. Validation covers every record before any byte
// reaches the log, so a rejected burst leaves both the log and the state
// untouched; on disk a burst is bit-identical to the same records logged
// one call at a time, which keeps replay of batched and sequential
// histories interchangeable.
func (fb *FileBackend) mutate(durable bool, recs ...walRecord) error {
	if len(recs) == 0 {
		return nil
	}
	payloads := make([][]byte, len(recs))
	for i := range recs {
		p, err := json.Marshal(recs[i])
		if err != nil {
			return fmt.Errorf("platform: encoding wal record: %w", err)
		}
		payloads[i] = p
	}
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return fmt.Errorf("platform: file backend is closed")
	}
	if fb.degraded.Load() {
		fb.mu.Unlock()
		return fb.degradedError()
	}
	// Validate, append, apply — in that order. Validation errors (unknown
	// video, bad record) must not pollute the log; and a mutation the log
	// rejects must never reach the materialized state, or a later snapshot
	// compaction (which serializes that state) would persist a write the
	// caller was told failed.
	for i := range recs {
		if err := fb.validateLocked(recs[i]); err != nil {
			fb.mu.Unlock()
			return err
		}
	}
	seq, err := fb.w.AppendBatch(payloads)
	if err != nil {
		poisoned := fb.w.Err() != nil
		fb.mu.Unlock()
		if poisoned {
			fb.failStop(err)
			return fb.degradedError()
		}
		return err
	}
	for i := range recs {
		if err := applyWALRecord(fb.mem, recs[i]); err != nil {
			// Unreachable when validateLocked is in sync with applyWALRecord;
			// surface loudly rather than serve state the log disagrees with.
			fb.mu.Unlock()
			return fmt.Errorf("platform: logged mutation failed to apply: %w", err)
		}
	}
	w := fb.w
	fb.recs += len(recs)
	if fb.recs >= fb.nextCompact {
		// The burst itself has already succeeded (logged + applied), so a
		// compaction failure must NOT fail this call: a false NACK would
		// make the client retry and duplicate an append-only event. The
		// WAL still holds everything; defer the next attempt a full
		// interval rather than hammering a sick disk on every mutation,
		// and let Close's own compaction report the condition if it
		// persists.
		if err := fb.compactLocked(); err != nil {
			fb.nextCompact = fb.recs + fb.cfg.SnapshotEvery
		} else {
			fb.nextCompact = fb.cfg.SnapshotEvery
		}
	}
	fb.mu.Unlock()

	if durable {
		// If a compaction just retired w, its Close already made every
		// record durable and WaitDurable returns immediately. A wait
		// failure means the group commit's fsync failed: the burst was
		// applied to memory but its durability is unknown, so NACK it and
		// fail-stop — the poisoned writer guarantees it is never acked
		// later either.
		if err := w.WaitDurable(seq); err != nil {
			fb.failStop(err)
			return fb.degradedError()
		}
	}
	return nil
}

// failStop flips the backend into degraded read-only mode on the first
// disk fault. One-way for the life of the process: the WAL writer behind
// the fault is poisoned (see the wal package's fail-stop contract), so no
// later write could be made durable anyway. Recovery is restart-shaped —
// reopen the directory and replay the intact log.
func (fb *FileBackend) failStop(cause error) {
	if fb.degraded.CompareAndSwap(false, true) {
		fb.degradedCause.Store(cause)
		log.Printf("platform: file backend DEGRADED (read-only) after disk fault: %v", cause)
	}
}

// degradedError returns the caller-visible mutation error while degraded;
// it always matches errors.Is(err, ErrDegraded).
func (fb *FileBackend) degradedError() error {
	if cause, _ := fb.degradedCause.Load().(error); cause != nil {
		return fmt.Errorf("%w (cause: %v)", ErrDegraded, cause)
	}
	return ErrDegraded
}

// Degraded reports whether the backend has fail-stopped into read-only
// mode, and the cause. Lock-free; safe from healthz and admission paths.
func (fb *FileBackend) Degraded() (bool, string) {
	if !fb.degraded.Load() {
		return false, ""
	}
	if cause, _ := fb.degradedCause.Load().(error); cause != nil {
		return true, cause.Error()
	}
	return true, "disk fault"
}

// compactLocked (caller holds fb.mu) writes a full snapshot and swaps in a
// fresh WAL generation. Step order makes every crash window recoverable:
//
//  1. create the next generation's empty log;
//  2. write the snapshot (naming that generation) to a temp file, fsync,
//     and atomically rename it over the old snapshot;
//  3. swap writers and retire the old log.
//
// A crash before (2)'s rename leaves the old snapshot + old log
// authoritative (the new log is an orphan, deleted at open). A crash
// after it leaves the new snapshot + empty new log authoritative — the
// old log's records are all inside the snapshot and the log itself is
// deleted at open.
func (fb *FileBackend) compactLocked() error {
	newGen := fb.gen + 1
	newPath := fb.walPath(newGen)
	os.Remove(newPath) // stale orphan from an earlier interrupted compaction
	nw, err := wal.Create(newPath, fb.walOpts())
	if err != nil {
		return err
	}

	snap := snapshotBackend(fb.mem)
	snap.WALGen = newGen
	snapPath := filepath.Join(fb.dir, snapshotFile)
	tmp := snapPath + ".tmp"
	if err := fb.writeSnapshotFile(tmp, snap); err != nil {
		nw.Close()
		os.Remove(newPath)
		return err
	}
	renameErr := fault.Hit(FailpointSnapshotRename)
	if renameErr == nil {
		renameErr = os.Rename(tmp, snapPath)
	}
	if renameErr != nil {
		nw.Close()
		os.Remove(newPath)
		os.Remove(tmp)
		return renameErr
	}
	// Best-effort directory sync so the rename itself is on disk.
	if d, err := os.Open(fb.dir); err == nil {
		d.Sync()
		d.Close()
	}

	old, oldGen := fb.w, fb.gen
	fb.w, fb.gen, fb.recs = nw, newGen, 0
	old.Close() // flushes + fsyncs, releasing any in-flight WaitDurable
	os.Remove(fb.walPath(oldGen))
	return nil
}

func (fb *FileBackend) writeSnapshotFile(path string, snap storeSnapshot) error {
	if err := fault.Hit(FailpointSnapshotWrite); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeSnapshot(f, snap); err != nil {
		f.Close()
		return err
	}
	if !fb.cfg.NoSync {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// Close writes a final snapshot and releases the WAL. A degraded backend
// skips the snapshot: the memory state may include mutations whose ack
// failed (applied, then the group commit NACKed), and persisting it would
// promote un-acked writes to durable truth. The on-disk snapshot plus the
// intact WAL prefix — exactly the acknowledged history — stay
// authoritative for the restart.
func (fb *FileBackend) Close() error {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	if fb.closed {
		return nil
	}
	fb.closed = true
	if fb.degraded.Load() {
		fb.w.Close()
		return fb.degradedError()
	}
	err := fb.compactLocked()
	if cerr := fb.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- Backend interface: reads delegate to the materialized state, writes
// go through the WAL. ---

func (fb *FileBackend) PutVideo(rec VideoRecord) error {
	vs := &videoSnapshot{
		ID:         rec.ID,
		Duration:   rec.Duration,
		RedDots:    rec.RedDots,
		Boundaries: rec.Boundaries,
	}
	if rec.Chat != nil {
		vs.Chat = rec.Chat.Messages()
	}
	if rec.ID == "" {
		return fmt.Errorf("platform: video record needs an ID")
	}
	return fb.mutate(false, walRecord{Op: opPutVideo, Video: vs, chatLog: rec.Chat})
}

func (fb *FileBackend) Video(id string) (VideoRecord, bool) { return fb.mem.Video(id) }

func (fb *FileBackend) HasVideo(id string) bool { return fb.mem.HasVideo(id) }

func (fb *FileBackend) HasChat(id string) bool { return fb.mem.HasChat(id) }

func (fb *FileBackend) HighlightView(id string) (HighlightView, bool) {
	return fb.mem.HighlightView(id)
}

func (fb *FileBackend) VideoIDs() []string { return fb.mem.VideoIDs() }

func (fb *FileBackend) SetRedDots(id string, dots []core.RedDot) error {
	return fb.mutate(false, walRecord{Op: opSetDots, ID: id, Dots: dots})
}

func (fb *FileBackend) SetBoundaries(id string, spans []core.Interval) error {
	return fb.mutate(false, walRecord{Op: opSetBoundaries, ID: id, Spans: spans})
}

func (fb *FileBackend) SetRefined(id string, dots []core.RedDot, spans []core.Interval) error {
	return fb.mutate(false, walRecord{Op: opSetRefined, ID: id, Dots: dots, Spans: spans})
}

// AppendEvents is durable: the interaction events the browser extension
// reports are the crowd signal everything downstream refines from, so they
// are acknowledged only once fsynced.
func (fb *FileBackend) AppendEvents(id string, events []play.Event) error {
	return fb.mutate(true, walRecord{Op: opAppendEvents, ID: id, Events: events})
}

// AppendEventsBatch is the durable burst path: the whole multi-video batch
// is framed into one WAL staging write and acknowledged after a single
// group-commit fsync wait, instead of one durability wait per video.
func (fb *FileBackend) AppendEventsBatch(batch []EventBatch) error {
	recs := make([]walRecord, len(batch))
	for i, eb := range batch {
		recs[i] = walRecord{Op: opAppendEvents, ID: eb.VideoID, Events: eb.Events}
	}
	return fb.mutate(true, recs...)
}

func (fb *FileBackend) ScanEvents(id string, offset, limit int) ([]play.Event, int) {
	return fb.mem.ScanEvents(id, offset, limit)
}

// PutCheckpoint is durable: a checkpoint acknowledges the emitted dots it
// contains, so it must survive a crash the instant the engine relies on it.
func (fb *FileBackend) PutCheckpoint(channel string, state []byte) error {
	if channel == "" {
		return fmt.Errorf("platform: checkpoint needs a channel id")
	}
	return fb.mutate(true, walRecord{Op: opPutCkpt, Channel: channel, State: state})
}

func (fb *FileBackend) Checkpoints() map[string][]byte { return fb.mem.Checkpoints() }

func (fb *FileBackend) DeleteCheckpoint(channel string) error {
	if channel == "" {
		return fmt.Errorf("platform: checkpoint needs a channel id")
	}
	return fb.mutate(true, walRecord{Op: opDelCkpt, Channel: channel})
}
