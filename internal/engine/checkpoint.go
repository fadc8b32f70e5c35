package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"
)

// CheckpointStore is the durability seam for live sessions: the engine
// writes each session's serialized detector state (core.OnlineDetector
// snapshots) under its channel id and reads them all back at startup.
// platform.Store satisfies it, so checkpoints land in the same pluggable
// storage backend as chat logs and interaction events — with the
// file-backed backend they ride the WAL and survive a crash.
type CheckpointStore interface {
	// PutCheckpoint durably stores a session's serialized state,
	// replacing any previous checkpoint for the channel.
	PutCheckpoint(channel string, state []byte) error
	// Checkpoints returns all stored checkpoints by channel.
	Checkpoints() map[string][]byte
	// DeleteCheckpoint removes a finished broadcast's checkpoint.
	DeleteCheckpoint(channel string) error
}

// CheckpointListener observes the durable-checkpoint lifecycle of every
// session in a manager — the engine-side hook checkpoint replication hangs
// off: a cluster node registers a listener that ships each freshly written
// checkpoint to the channel's ring successors.
//
// CheckpointSaved runs synchronously on the worker that owns the session's
// mailbox (or the drain/restore path), immediately after the local
// checkpoint store accepted the write. state is the serialized detector
// snapshot and is only valid for the duration of the call — the encode
// buffer is reused by the next checkpoint — so implementations must copy
// anything they retain. watermark is the detector clock the snapshot
// captures: the position a producer resumes from if this state is ever
// restored. It must not block for long (it stalls that channel's mailbox).
//
// CheckpointDropped runs after a channel's checkpoint was removed from the
// local store: the broadcast ended (CloseSession) or the channel's durable
// home moved to another node (ForgetCheckpoint after a confirmed handoff).
type CheckpointListener interface {
	CheckpointSaved(channel string, state []byte, watermark float64)
	CheckpointDropped(channel string)
}

// checkpointLocked serializes the session's detector into the store.
// Caller holds s.detMu, so the snapshot is consistent with every envelope
// processed so far and no message can land mid-serialization.
func (s *Session) checkpointLocked() error {
	if s.mgr.ckpt == nil {
		return nil
	}
	s.snapBuf = s.det.AppendSnapshot(s.snapBuf[:0])
	if err := s.mgr.ckpt.PutCheckpoint(s.channel, s.snapBuf); err != nil {
		return err
	}
	// Replication hook — only after the local store accepted the write, so
	// a replica never holds state the owner's own disk rejected (a degraded
	// owner freezes its replicas at the last durable state, consistent with
	// what a local restart would resume).
	if lp := s.mgr.ckptListener.Load(); lp != nil {
		// The detector clock, not the session watermark: the mailbox
		// watermark advances at enqueue time and may run ahead of the state
		// this checkpoint serializes.
		(*lp).CheckpointSaved(s.channel, s.snapBuf, s.det.Now())
	}
	return nil
}

// checkpointNow takes the detector lock and checkpoints immediately. Used
// at drain time, when no worker owns the session anymore.
func (s *Session) checkpointNow() error {
	s.detMu.Lock()
	defer s.detMu.Unlock()
	return s.checkpointLocked()
}

// requestCheckpoint enqueues a non-blocking checkpoint envelope: it is
// processed in mailbox order, so the snapshot reflects every batch
// accepted before it. Closed sessions are skipped.
func (s *Session) requestCheckpoint() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.enqueueLocked(envelope{checkpoint: true})
}

// Checkpoint enqueues a checkpoint and blocks until it has been written to
// the store (or ctx expires). It returns ErrClosed on a draining session
// and an error if the manager has no checkpoint store.
func (s *Session) Checkpoint(ctx context.Context) error {
	if s.mgr.ckpt == nil {
		return errors.New("engine: no checkpoint store configured")
	}
	res := make(chan error, 1)
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.enqueueLocked(envelope{checkpoint: true, ckptRes: res})
	s.mu.Unlock()
	select {
	case err := <-res:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Watermark returns the highest timestamp the session has accepted — the
// position a resumed producer should continue feeding from. Note that
// ingest rejects only strictly-older timestamps (chat messages may
// legitimately share a timestamp), so a producer that cannot track its
// own cursor and re-sends messages equal to the watermark will double-feed
// them; exact-once resumption at a shared-timestamp boundary needs the
// producer's own position, which the batch-level Ingest ack gives it.
func (s *Session) Watermark() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.watermark
}

// checkpointLoop periodically checkpoints every live session until the
// manager drains. Interval checkpoints bound the replay a producer must
// re-feed after a crash even on channels that never emit.
func (m *SessionManager) checkpointLoop() {
	t := time.NewTicker(m.ckptEvery)
	defer t.Stop()
	for {
		select {
		case <-m.ckptStop:
			return
		case <-t.C:
			m.mu.Lock()
			sessions := make([]*Session, 0, len(m.sessions))
			for _, s := range m.sessions {
				sessions = append(sessions, s)
			}
			m.mu.Unlock()
			for _, s := range sessions {
				s.requestCheckpoint()
			}
		}
	}
}

// ResumeSessions reopens a live session for every checkpoint in the store,
// restoring each detector bit-identically to its checkpointed state: the
// session continues from its watermark without re-feeding history, and its
// emission history (cursor space included) is intact. Returns the resumed
// channel ids, sorted. Corrupt or incompatible checkpoints are skipped and
// reported joined into the returned error; healthy channels still resume.
func (m *SessionManager) ResumeSessions() ([]string, error) {
	if m.ckpt == nil {
		return nil, nil
	}
	var resumed []string
	var errs []error
	for channel, state := range m.ckpt.Checkpoints() {
		// restoreFromState (shared with live handoff, handoff.go) seeds
		// the watermark and emission history between prepare and register,
		// so no reader can observe a restored watermark with an empty dot
		// history and no concurrent ingest can interleave its publishDots
		// with the wholesale restore.
		if _, err := m.restoreFromState(channel, state); err != nil {
			errs = append(errs, fmt.Errorf("engine: resuming %q: %w", channel, err))
			continue
		}
		resumed = append(resumed, channel)
	}
	sort.Strings(resumed)
	return resumed, errors.Join(errs...)
}
