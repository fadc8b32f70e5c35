package engine

import (
	"context"
	"sync"
	"testing"
	"time"

	"lightor/internal/core"
)

// memCheckpoints is a minimal in-memory CheckpointStore for engine tests
// (the real deployments wire platform.Store here).
type memCheckpoints struct {
	mu    sync.Mutex
	m     map[string][]byte
	puts  int
	fail  error // when set, PutCheckpoint returns it
	delCh []string
}

func newMemCheckpoints() *memCheckpoints {
	return &memCheckpoints{m: make(map[string][]byte)}
}

func (c *memCheckpoints) PutCheckpoint(channel string, state []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fail != nil {
		return c.fail
	}
	c.m[channel] = append([]byte(nil), state...)
	c.puts++
	return nil
}

func (c *memCheckpoints) Checkpoints() map[string][]byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string][]byte, len(c.m))
	for k, v := range c.m {
		out[k] = append([]byte(nil), v...)
	}
	return out
}

func (c *memCheckpoints) DeleteCheckpoint(channel string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	delete(c.m, channel)
	c.delCh = append(c.delCh, channel)
	return nil
}

func (c *memCheckpoints) putCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.puts
}

func sameDotSlices(a, b []core.RedDot) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestResumeThenContinueEquivalence is the engine-level replay-equivalence
// guarantee: ingest half a stream, checkpoint, tear the engine down
// mid-broadcast (drain, as a crash-with-warning would), resume from the
// store in a fresh engine, feed the second half, and require the combined
// emission history to equal an uninterrupted serial run exactly.
func TestResumeThenContinueEquivalence(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)
	if len(want) == 0 {
		t.Fatal("reference emitted nothing; test is vacuous")
	}
	half := len(msgs) / 2

	store := newMemCheckpoints()
	eng1 := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	s, err := eng1.Sessions().Open("ch")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs[:half]...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := eng1.Close(ctx); err != nil {
		t.Fatal(err)
	}

	// Fresh engine, resumed from the store.
	eng2 := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	resumed, err := eng2.ResumeSessions()
	if err != nil {
		t.Fatal(err)
	}
	if len(resumed) != 1 || resumed[0] != "ch" {
		t.Fatalf("resumed = %v", resumed)
	}
	s2, ok := eng2.Sessions().Get("ch")
	if !ok {
		t.Fatal("resumed session not registered")
	}
	if wm := s2.Watermark(); wm != msgs[half-1].Time {
		t.Errorf("resumed watermark = %g, want %g", wm, msgs[half-1].Time)
	}
	if err := s2.Ingest(msgs[half:]...); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDotSlices(got, want) {
		t.Fatalf("resumed run diverged:\n got %v\nwant %v", got, want)
	}
}

// TestDrainCheckpointsSessions: Engine.Close must leave a checkpoint for
// every live session even when nobody asked for one explicitly, and a
// resume from those drain checkpoints must continue equivalently.
func TestDrainCheckpointsSessions(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)
	cut := 2 * len(msgs) / 3

	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	s, err := eng.Sessions().Open("drained")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs[:cut]...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := eng.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Checkpoints()["drained"]; !ok {
		t.Fatal("drain did not checkpoint the live session")
	}

	eng2 := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	if _, err := eng2.ResumeSessions(); err != nil {
		t.Fatal(err)
	}
	s2, _ := eng2.Sessions().Get("drained")
	if err := s2.Ingest(msgs[cut:]...); err != nil {
		t.Fatal(err)
	}
	got, err := s2.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDotSlices(got, want) {
		t.Fatalf("drain-resume diverged:\n got %v\nwant %v", got, want)
	}
}

// TestConcurrentIngestWhileCheckpointing hammers one session with chat
// batches from a producer goroutine while the main goroutine checkpoints
// in a loop — the -race test for the checkpoint/ingest interleaving. The
// final checkpoint must still resume to a state that matches the serial
// reference.
func TestConcurrentIngestWhileCheckpointing(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, true)

	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: time.Millisecond})
	s, err := eng.Sessions().Open("busy")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	done := make(chan error, 1)
	go func() {
		const batch = 16
		for i := 0; i < len(msgs); i += batch {
			end := i + batch
			if end > len(msgs) {
				end = len(msgs)
			}
			if err := s.Ingest(msgs[i:end]...); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < 25; i++ {
		if err := s.Checkpoint(ctx); err != nil {
			t.Fatal(err)
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if store.putCount() == 0 {
		t.Fatal("no checkpoints were written")
	}
	// The stream as processed must be unperturbed by the checkpointing.
	got, err := s.Flush(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDotSlices(got, want) {
		t.Fatalf("checkpointed stream diverged:\n got %v\nwant %v", got, want)
	}
}

// TestCheckpointOnEmit: with no interval loop and no explicit Checkpoint
// calls, an emission alone must persist a checkpoint containing the
// emitted dot.
func TestCheckpointOnEmit(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()
	want := referenceOnline(t, init, msgs, false)
	if len(want) == 0 {
		t.Skip("stream emits nothing before flush; cannot observe on-emit checkpoints")
	}

	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	s, err := eng.Sessions().Open("emitting")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs...); err != nil {
		t.Fatal(err)
	}
	// Each emission checkpoints as it happens; poll the store until the
	// latest checkpoint carries the full pre-flush emission history.
	deadline := time.Now().Add(10 * time.Second)
	var got []core.RedDot
	for time.Now().Before(deadline) {
		if state, ok := store.Checkpoints()["emitting"]; ok {
			od, err := core.NewOnlineDetector(init, 0)
			if err != nil {
				t.Fatal(err)
			}
			if err := od.RestoreSnapshot(state); err != nil {
				t.Fatal(err)
			}
			got = od.Emitted()
			if sameDotSlices(got, want) {
				return
			}
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("on-emit checkpoint never reached the emitted history: last %v, want %v", got, want)
}

// TestCloseSessionDeletesCheckpoint: ending a broadcast removes its
// checkpoint so a restart does not resurrect the channel.
func TestCloseSessionDeletesCheckpoint(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()

	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	s, err := eng.Sessions().Open("ending")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs[:100]...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Checkpoints()["ending"]; !ok {
		t.Fatal("checkpoint missing before close")
	}
	if _, err := eng.Sessions().CloseSession(ctx, "ending"); err != nil {
		t.Fatal(err)
	}
	if _, ok := store.Checkpoints()["ending"]; ok {
		t.Error("checkpoint survived CloseSession")
	}
}

// TestResumeSkipsCorruptCheckpoint: one bad checkpoint must not block the
// healthy channels from resuming.
func TestResumeSkipsCorruptCheckpoint(t *testing.T) {
	init, target := trainedFixture(t)
	msgs := target.Chat.Log.Messages()

	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	s, err := eng.Sessions().Open("good")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Ingest(msgs[:50]...); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Checkpoint(ctx); err != nil {
		t.Fatal(err)
	}
	if err := store.PutCheckpoint("bad", []byte("definitely not a snapshot")); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(ctx); err != nil {
		t.Fatal(err)
	}

	eng2 := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	resumed, err := eng2.ResumeSessions()
	if err == nil {
		t.Error("corrupt checkpoint did not surface an error")
	}
	if len(resumed) != 1 || resumed[0] != "good" {
		t.Fatalf("resumed = %v, want [good]", resumed)
	}
}

// TestExtractHighlightsLeavesNoCheckpoint: the batch path runs on an engine
// with a checkpoint store but must never leave checkpoints behind.
func TestExtractHighlightsLeavesNoCheckpoint(t *testing.T) {
	init, target := trainedFixture(t)
	store := newMemCheckpoints()
	eng := newTestEngine(t, init, Config{Checkpoints: store, CheckpointInterval: -1})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := eng.ExtractHighlights(ctx, target.Chat.Log, target.Video.Duration, 3,
		fixedSource(nil)); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if n := len(store.Checkpoints()); n != 0 {
		t.Errorf("batch extraction left %d checkpoints", n)
	}
}
