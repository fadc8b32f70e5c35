package platform

import (
	"encoding/json"
	"fmt"
	"io"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/play"
	"lightor/internal/wal"
)

// storeSnapshot is the JSON payload of FileBackend's store.snap: everything
// needed to restart the service without re-crawling or re-collecting
// interactions, including live-session checkpoints so broadcasts resume
// mid-stream.
type storeSnapshot struct {
	Version int                     `json:"version"`
	Videos  []videoSnapshot         `json:"videos"`
	Events  map[string][]play.Event `json:"events,omitempty"`
	// Checkpoints carries serialized live-session detector state keyed by
	// channel ([]byte marshals as base64).
	Checkpoints map[string][]byte `json:"checkpoints,omitempty"`
	// WALGen names the write-ahead-log generation this snapshot covers
	// through; only the FileBackend sets it.
	WALGen uint64 `json:"wal_gen,omitempty"`
}

type videoSnapshot struct {
	ID         string          `json:"id"`
	Duration   float64         `json:"duration"`
	Chat       []chat.Message  `json:"chat"`
	RedDots    []core.RedDot   `json:"red_dots,omitempty"`
	Boundaries []core.Interval `json:"boundaries,omitempty"`
}

// storeVersion 2 wraps the JSON payload in a checksummed envelope
// (wal.WriteEnvelope): format name, version, exact length, and CRC32 are
// validated before any payload byte is trusted, so truncated or corrupted
// snapshot files fail loudly instead of loading partial state.
const (
	storeVersion = 2
	storeFormat  = "lightor-store"
)

// snapshotBackend captures a backend's full state. Each video is copied
// under its own lock, so the snapshot is per-video (not cross-video)
// consistent — the same guarantee serving reads get.
func snapshotBackend(b Backend) storeSnapshot {
	snap := storeSnapshot{Version: storeVersion}
	for _, id := range b.VideoIDs() {
		rec, ok := b.Video(id)
		if !ok {
			continue
		}
		vs := videoSnapshot{
			ID:         rec.ID,
			Duration:   rec.Duration,
			RedDots:    rec.RedDots,
			Boundaries: rec.Boundaries,
		}
		if rec.Chat != nil {
			vs.Chat = rec.Chat.Messages()
		}
		snap.Videos = append(snap.Videos, vs)
		if evs, _ := b.ScanEvents(id, 0, 0); len(evs) > 0 {
			if snap.Events == nil {
				snap.Events = map[string][]play.Event{}
			}
			snap.Events[id] = evs
		}
	}
	if ckpts := b.Checkpoints(); len(ckpts) > 0 {
		snap.Checkpoints = ckpts
	}
	return snap
}

// applySnapshot loads a decoded snapshot into a backend.
func applySnapshot(snap storeSnapshot, b Backend) error {
	for _, vs := range snap.Videos {
		rec := VideoRecord{
			ID:         vs.ID,
			Duration:   vs.Duration,
			RedDots:    vs.RedDots,
			Boundaries: vs.Boundaries,
		}
		if vs.Chat != nil {
			rec.Chat = chat.NewLog(vs.Chat)
		}
		if err := b.PutVideo(rec); err != nil {
			return err
		}
	}
	for id, evs := range snap.Events {
		if err := b.AppendEvents(id, evs); err != nil {
			return fmt.Errorf("platform: restoring events for %q: %w", id, err)
		}
	}
	for ch, state := range snap.Checkpoints {
		if err := b.PutCheckpoint(ch, state); err != nil {
			return fmt.Errorf("platform: restoring checkpoint for %q: %w", ch, err)
		}
	}
	return nil
}

// writeSnapshot encodes a snapshot as a checksummed envelope.
func writeSnapshot(w io.Writer, snap storeSnapshot) error {
	payload, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("platform: encoding store: %w", err)
	}
	if err := wal.WriteEnvelope(w, storeFormat, storeVersion, payload); err != nil {
		return fmt.Errorf("platform: writing store snapshot: %w", err)
	}
	return nil
}

// readSnapshot decodes a checksummed snapshot envelope, rejecting
// truncated or corrupted input before parsing the payload.
func readSnapshot(r io.Reader) (storeSnapshot, error) {
	var snap storeSnapshot
	_, payload, err := wal.ReadEnvelope(r, storeFormat, storeVersion)
	if err != nil {
		return snap, fmt.Errorf("platform: reading store snapshot: %w", err)
	}
	if err := json.Unmarshal(payload, &snap); err != nil {
		return snap, fmt.Errorf("platform: decoding store: %w", err)
	}
	if snap.Version != storeVersion {
		return snap, fmt.Errorf("platform: unsupported store version %d", snap.Version)
	}
	return snap, nil
}
