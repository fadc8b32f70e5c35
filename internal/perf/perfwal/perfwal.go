// Package perfwal holds the shared benchmark bodies for the durable
// persistence layer: WAL append throughput, live-session checkpoint
// latency, and cold-start recovery time. Both the go-test benchmarks
// (bench_test.go) and the machine-readable perf reporter
// (cmd/lightor-bench -bench-json) run these exact bodies, so the recorded
// perf trajectory and the CI smoke measure the same workloads.
package perfwal

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/platform"
	"lightor/internal/play"
	"lightor/internal/wal"
)

// AppendRecordBytes is the payload size used by the append benchmark —
// the ballpark of one JSON-encoded interaction-events record.
const AppendRecordBytes = 256

// Append measures raw WAL append throughput: framing, CRC, and buffered
// write of AppendRecordBytes-byte records (fsync disabled, so the number
// tracks the CPU cost the log adds to every accepted mutation; b.SetBytes
// makes `go test -bench` report MB/s).
func Append(dir string) func(*testing.B) {
	return func(b *testing.B) {
		w, _, err := wal.Open(filepath.Join(dir, "bench.log"), wal.Options{NoSync: true},
			func([]byte) error { return nil })
		if err != nil {
			b.Fatal(err)
		}
		defer w.Close()
		payload := make([]byte, AppendRecordBytes)
		for i := range payload {
			payload[i] = byte(i)
		}
		b.SetBytes(AppendRecordBytes)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := w.Append(payload); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// CheckpointLatency measures one live-session checkpoint: serializing a
// warmed OnlineDetector's full incremental state (open window, pending
// windows, norm bounds, emission history) into a reusable buffer and
// writing it to a durable file backend. This is the cost the engine pays
// per interval tick and per emission — it rides a mailbox envelope, so it
// must stay off the per-message Feed path (which the zero-alloc gate
// protects separately).
func CheckpointLatency(init *core.Initializer, msgs []chat.Message) func(*testing.B) {
	return func(b *testing.B) {
		od, err := core.NewOnlineDetector(init, 0.5)
		if err != nil {
			b.Fatal(err)
		}
		od.SetWarmup(0)
		// Warm the detector over a realistic stream prefix so the snapshot
		// carries a live mid-window state, pending windows, and dots.
		n := len(msgs)
		if n > 2000 {
			n = 2000
		}
		for _, m := range msgs[:n] {
			if _, err := od.Feed(m); err != nil {
				b.Fatal(err)
			}
		}
		// With fsync disabled the measurement is the serialize+log CPU
		// cost plus the hand-off to the group-commit flusher.
		be, err := platform.OpenFileBackend(b.TempDir(), platform.FileConfig{NoSync: true})
		if err != nil {
			b.Fatal(err)
		}
		defer be.Close()
		var buf []byte
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			buf = od.AppendSnapshot(buf[:0])
			if err := be.PutCheckpoint("bench", buf); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(len(buf)), "snapshot_bytes")
	}
}

// BuildRecoveryFixture writes a data dir holding a video plus `records`
// durable event appends and no snapshot — the worst-case cold start, where
// the whole log must replay. It returns the dir.
func BuildRecoveryFixture(parent string, records int) (string, error) {
	dir := filepath.Join(parent, "fixture")
	be, err := platform.OpenFileBackend(dir, platform.FileConfig{
		NoSync: true,
		// Keep every record in one generation: the fixture measures replay,
		// not snapshot loading.
		SnapshotEvery: records + 2,
	})
	if err != nil {
		return "", err
	}
	if err := be.PutVideo(platform.VideoRecord{ID: "v1", Duration: 3600}); err != nil {
		return "", err
	}
	for i := 0; i < records; i++ {
		err := be.AppendEvents("v1", []play.Event{
			{User: fmt.Sprintf("u%d", i%97), Seq: i, Type: play.EventPlay, Pos: float64(i % 3600)},
			{User: fmt.Sprintf("u%d", i%97), Seq: i + 1, Type: play.EventStop, Pos: float64(i%3600) + 30},
		})
		if err != nil {
			return "", err
		}
	}
	// Abandon without Close: no snapshot is written, exactly like a crash.
	return dir, nil
}

// copyDir clones the fixture into dst (recreated from scratch).
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range entries {
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err != nil {
			in.Close()
			return err
		}
		_, err = io.Copy(out, in)
		in.Close()
		if cerr := out.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// ColdStartRecovery measures OpenFileBackend over the recovery fixture:
// scanning the WAL, CRC-checking every frame, decoding every record, and
// rebuilding the materialized state. Each iteration recovers a fresh copy
// of the fixture (restore time is excluded from the measurement).
func ColdStartRecovery(fixtureDir string, records int) func(*testing.B) {
	return func(b *testing.B) {
		work := filepath.Join(b.TempDir(), "work")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			if err := copyDir(fixtureDir, work); err != nil {
				b.Fatal(err)
			}
			b.StartTimer()
			be, err := platform.OpenFileBackend(work, platform.FileConfig{NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			if _, total := be.ScanEvents("v1", 0, 1); total == 0 {
				b.Fatal("recovery produced no events")
			}
			be.Close()
			b.StartTimer()
		}
		b.StopTimer()
		b.ReportMetric(float64(records), "wal_records")
	}
}
