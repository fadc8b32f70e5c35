package wal

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"lightor/internal/fault"
)

// The commit-policy tests assert on counts — how many syncs the flusher
// started (fault.Fires counts a sync as it begins) — and on events, not on
// how long anything slept, so a slow machine cannot fail them.

func newTestWriter(t *testing.T) (*Writer, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log.wal")
	w, err := Create(path, Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w, path
}

func appended(w *Writer) uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.seq
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out after %v waiting for %s", d, what)
		}
		time.Sleep(50 * time.Microsecond)
	}
}

// TestGroupCommitSharesInFlightSync: every waiter that arrives while an
// fsync is in flight is covered by exactly one following fsync — batching
// comes from the sync's latency, one sync per waiter would be 33 fires and
// a timer-paced flusher could be any number.
func TestGroupCommitSharesInFlightSync(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	const followers = 32
	// The scenario needs all followers appended while the first sync is
	// still stalled. 20ms is ample; a machine too loaded for it gets a
	// longer stall instead of a wrong verdict.
	for stall := 20 * time.Millisecond; ; stall *= 5 {
		w, _ := newTestWriter(t)
		if err := fault.Arm(FailpointSync, "sleep:"+stall.String()); err != nil {
			t.Fatal(err)
		}
		errs := make(chan error, 1+followers)
		go func() { errs <- w.AppendDurable([]byte("leader")) }()
		waitFor(t, 10*time.Second, "the first sync to start", func() bool {
			return fault.Fires(FailpointSync) == 1
		})
		for i := 0; i < followers; i++ {
			go func(i int) { errs <- w.AppendDurable([]byte(fmt.Sprintf("follower-%d", i))) }(i)
		}
		waitFor(t, 10*time.Second, "all followers to append", func() bool {
			return appended(w) == 1+followers
		})
		arrivedInFlight := fault.Fires(FailpointSync) == 1
		for i := 0; i < 1+followers; i++ {
			if err := <-errs; err != nil {
				t.Fatalf("durable append: %v", err)
			}
		}
		if !arrivedInFlight {
			if stall > time.Second {
				t.Fatalf("followers never arrived within a %v sync", stall)
			}
			t.Logf("followers outlived a %v sync; retrying with a longer one", stall)
			continue
		}
		if got := fault.Fires(FailpointSync); got != 2 {
			t.Fatalf("%d syncs for 1 leader + %d followers behind it, want exactly 2", got, followers)
		}
		return
	}
}

// TestDurableAppendDoesNotWaitForATimer: with nothing in flight a durable
// append is acknowledged by its own immediate sync. Under the old 2ms
// commit window these 200 took at least 400ms.
func TestDurableAppendDoesNotWaitForATimer(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	w, path := newTestWriter(t)
	if err := fault.Arm(FailpointSync, "sleep:0s"); err != nil {
		t.Fatal(err)
	}
	const n = 200
	start := time.Now()
	for i := 0; i < n; i++ {
		if err := w.AppendDurable([]byte("rec")); err != nil {
			t.Fatal(err)
		}
	}
	if took := time.Since(start); took >= 100*time.Millisecond {
		t.Errorf("%d sequential durable appends took %v, want < 100ms", n, took)
	}
	if got := fault.Fires(FailpointSync); got != n {
		t.Errorf("%d syncs for %d sequential durable appends, want one each", got, n)
	}
	// Acknowledged means on the file, not merely buffered.
	if records, _, err := ScanFile(path, func([]byte) error { return nil }); err != nil || records != n {
		t.Errorf("ScanFile = %d records, err %v; want %d", records, err, n)
	}
}

// TestLazySyncStillCoversBufferedAppends: records nobody waits for still
// reach the file on their own, within the lazy bound.
func TestLazySyncStillCoversBufferedAppends(t *testing.T) {
	w, path := newTestWriter(t)
	const n = 10
	for i := 0; i < n; i++ {
		if _, err := w.Append([]byte("lazy")); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 50*time.Millisecond, "the lazy sync", func() bool {
		records, _, err := ScanFile(path, func([]byte) error { return nil })
		if err != nil {
			t.Fatal(err)
		}
		return records == n
	})
}

// stressWriter hammers one writer from 8 goroutines with every append
// flavour and returns, per payload, whether its durable ack arrived, plus
// every error a call returned. A call that never returns is a lost wake-up
// and fails the test at the deadline.
func stressWriter(t *testing.T, w *Writer, halfway func()) (acked map[string]bool, errs []error) {
	t.Helper()
	const goroutines, each = 8, 500
	var (
		mu      sync.Mutex
		wg      sync.WaitGroup
		reached atomic.Int64
	)
	acked = map[string]bool{}
	record := func(err error, payloads ...[]byte) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, err)
			return
		}
		for _, p := range payloads {
			acked[string(p)] = true
		}
	}
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				if reached.Add(1) == goroutines*each/2 {
					halfway()
				}
				p := []byte(fmt.Sprintf("g%d-%d", g, i))
				switch i % 4 {
				case 0:
					record(w.AppendDurable(p), p)
				case 1: // buffered only: never acknowledged, so never recorded
					if _, err := w.Append(p); err != nil {
						record(err)
					}
				case 2:
					batch := [][]byte{p, append(p[:len(p):len(p)], "-b"...), append(p[:len(p):len(p)], "-c"...)}
					record(w.AppendBatchDurable(batch), batch...)
				case 3:
					seq, err := w.Append(p)
					if err == nil {
						err = w.WaitDurable(seq)
					}
					record(err, p)
				}
			}
		}(g)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("appends still blocked after 60s: lost wake-up")
	}
	return acked, errs
}

func assertAckedOnFile(t *testing.T, path string, acked map[string]bool) {
	t.Helper()
	onFile := map[string]bool{}
	if _, _, err := ScanFile(path, func(p []byte) error {
		onFile[string(p)] = true
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for p := range acked {
		if !onFile[p] {
			t.Errorf("record %q was acknowledged durable but is not on the file", p)
		}
	}
}

// TestGroupCommitStressWithClose: a Close part-way through a storm of mixed
// appends strands nobody — every call returns, either acknowledged (and
// then on the file) or refused because the writer closed.
func TestGroupCommitStressWithClose(t *testing.T) {
	w, path := newTestWriter(t)
	acked, errs := stressWriter(t, w, func() {
		if err := w.Close(); err != nil {
			t.Errorf("close: %v", err)
		}
	})
	if len(acked) == 0 || len(errs) == 0 {
		t.Fatalf("want acks before the close and refusals after it; got %d acks, %d errors", len(acked), len(errs))
	}
	for _, err := range errs {
		if err.Error() != "wal: writer closed" {
			t.Fatalf("unexpected error: %v", err)
		}
	}
	assertAckedOnFile(t, path, acked)
}

// TestGroupCommitStressPoisonedSync: once a sync fails part-way through the
// same storm, no later call is acknowledged and every one of them — waiter
// or appender — reports the first error.
func TestGroupCommitStressPoisonedSync(t *testing.T) {
	t.Cleanup(fault.DisarmAll)
	w, path := newTestWriter(t)
	acked, errs := stressWriter(t, w, func() {
		if err := fault.Arm(FailpointSync, "err:disk gone"); err != nil {
			t.Errorf("arm: %v", err)
		}
	})
	first := w.Err()
	if !errors.Is(first, fault.ErrInjected) {
		t.Fatalf("writer not poisoned by the failed sync: Err() = %v", first)
	}
	if len(acked) == 0 || len(errs) == 0 {
		t.Fatalf("want acks before the fault and failures after it; got %d acks, %d errors", len(acked), len(errs))
	}
	for _, err := range errs {
		if err != first {
			t.Fatalf("call failed with %v, want the first error %v", err, first)
		}
	}
	assertAckedOnFile(t, path, acked)
}
