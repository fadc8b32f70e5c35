package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"lightor/internal/fault"
)

// replayAll reopens the log at path with a collecting apply func and
// returns the replayed payloads.
func replayAll(t *testing.T, path string) []string {
	t.Helper()
	var got []string
	w, _, err := Open(path, Options{NoSync: true}, func(p []byte) error {
		got = append(got, string(p))
		return nil
	})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("close reopened writer: %v", err)
	}
	return got
}

// TestFsyncFailurePoisonsWriter is the fail-stop contract test: a record
// whose group-commit fsync fails is never acknowledged durable, the writer
// stays poisoned (no later append, sync, or close can succeed — and in
// particular no retried fsync ever produces an ack), and every record that
// WAS acknowledged before the fault survives recovery.
func TestFsyncFailurePoisonsWriter(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := Create(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	// Two acked records, each its own group commit.
	if err := w.AppendDurable([]byte("r1")); err != nil {
		t.Fatalf("r1: %v", err)
	}
	if err := w.AppendDurable([]byte("r2")); err != nil {
		t.Fatalf("r2: %v", err)
	}

	// Third commit's fsync fails.
	if err := fault.Arm(FailpointSync, "err:disk gone"); err != nil {
		t.Fatal(err)
	}
	err = w.AppendDurable([]byte("r3"))
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("r3 acked through a failed fsync: err=%v", err)
	}

	// Writer is poisoned: appends fail fast with the original error, even
	// after the "disk" heals (failpoint disarmed).
	fault.DisarmAll()
	if _, err := w.Append([]byte("r4")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append to poisoned writer: err=%v", err)
	}
	if err := w.Err(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Err() = %v, want sticky injected error", err)
	}
	if err := w.Sync(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Sync on poisoned writer: err=%v", err)
	}
	// WaitDurable for the failed record keeps reporting the failure.
	if err := w.WaitDurable(3); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("WaitDurable(3) = %v", err)
	}
	if err := w.Close(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("Close on poisoned writer: err=%v", err)
	}

	// Recovery: every acked record is there. r3 (flushed, never fsynced,
	// never acked) may or may not survive the "crash" — both are legal,
	// which is exactly why its ack never went out.
	got := replayAll(t, path)
	if len(got) < 2 || got[0] != "r1" || got[1] != "r2" {
		t.Fatalf("replayed %q, want acked prefix [r1 r2]", got)
	}
	if len(got) > 3 || (len(got) == 3 && got[2] != "r3") {
		t.Fatalf("replayed %q, want at most [r1 r2 r3]", got)
	}
}

// TestTornWriteRecoveryReplaysOnlyAckedRecords: a partial (torn) device
// write poisons the writer and recovery replays exactly the acknowledged
// records — the torn record is truncated away.
func TestTornWriteRecoveryReplaysOnlyAckedRecords(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := Create(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}

	if err := w.AppendDurable([]byte("r1")); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDurable([]byte("r2")); err != nil {
		t.Fatal(err)
	}

	// The third record tears 5 bytes in: frame written, payload lost.
	if err := fault.Arm(FailpointWrite, "partial:5"); err != nil {
		t.Fatal(err)
	}
	if err := w.AppendDurable([]byte("r3-never-acked")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn append acked: err=%v", err)
	}
	fault.DisarmAll()
	if _, err := w.Append([]byte("r4")); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("append to poisoned writer: err=%v", err)
	}
	_ = w.Close()

	got := replayAll(t, path)
	if len(got) != 2 || got[0] != "r1" || got[1] != "r2" {
		t.Fatalf("replayed %q, want exactly the acked records [r1 r2]", got)
	}
}

// TestTornBatchWritePoisons: the batch path honors the same contract.
func TestTornBatchWritePoisons(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := Create(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := w.AppendBatchDurable([][]byte{[]byte("a1"), []byte("a2")}); err != nil {
		t.Fatal(err)
	}
	// Tear mid-batch: the first record of the batch fits, the second tears.
	if err := fault.Arm(FailpointWrite, fmt.Sprintf("partial:%d", frameSize+2+frameSize)); err != nil {
		t.Fatal(err)
	}
	err = w.AppendBatchDurable([][]byte{[]byte("b1"), []byte("b2")})
	if !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("torn batch acked: err=%v", err)
	}
	fault.DisarmAll()
	if _, err := w.AppendBatch([][]byte{[]byte("c1")}); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("batch append to poisoned writer: err=%v", err)
	}
	_ = w.Close()

	// b1 reached the file intact but was never acked (the batch ack is
	// all-or-nothing); b2 is a torn frame and must not replay.
	got := replayAll(t, path)
	if len(got) < 2 || got[0] != "a1" || got[1] != "a2" {
		t.Fatalf("replayed %q, want acked prefix [a1 a2]", got)
	}
	for _, p := range got {
		if p == "b2" {
			t.Fatalf("torn record b2 replayed: %q", got)
		}
	}
}
