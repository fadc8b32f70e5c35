package platform

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/play"
)

func testFileBackend(t *testing.T, dir string, cfg FileConfig) *FileBackend {
	t.Helper()
	cfg.NoSync = true
	fb, err := OpenFileBackend(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return fb
}

// seedBackend writes a small representative state.
func seedBackend(t *testing.T, b Backend) {
	t.Helper()
	log := chat.NewLog([]chat.Message{{Time: 1, User: "a", Text: "gg wp"}})
	if err := b.PutVideo(VideoRecord{ID: "v1", Duration: 120, Chat: log}); err != nil {
		t.Fatal(err)
	}
	if err := b.SetRedDots("v1", []core.RedDot{{Time: 33, Score: 0.8}}); err != nil {
		t.Fatal(err)
	}
	if err := b.AppendEvents("v1", []play.Event{
		{User: "u", Seq: 0, Type: play.EventPlay, Pos: 30},
		{User: "u", Seq: 1, Type: play.EventStop, Pos: 60},
	}); err != nil {
		t.Fatal(err)
	}
	if err := b.PutCheckpoint("live-ch", []byte{7, 7, 7}); err != nil {
		t.Fatal(err)
	}
}

func checkSeededState(t *testing.T, b Backend) {
	t.Helper()
	rec, ok := b.Video("v1")
	if !ok || rec.Duration != 120 || rec.Chat == nil || rec.Chat.Len() != 1 {
		t.Fatalf("video state = %+v, %v", rec, ok)
	}
	if len(rec.RedDots) != 1 || rec.RedDots[0].Time != 33 {
		t.Errorf("red dots = %v", rec.RedDots)
	}
	evs, total := b.ScanEvents("v1", 0, 0)
	if total != 2 || len(evs) != 2 || evs[1].Pos != 60 {
		t.Errorf("events = %v (total %d)", evs, total)
	}
	if ck := b.Checkpoints(); !bytes.Equal(ck["live-ch"], []byte{7, 7, 7}) {
		t.Errorf("checkpoints = %v", ck)
	}
}

// TestFileBackendRecoversWithoutClose simulates a crash: the first backend
// is abandoned (never Closed, so no final snapshot is written) and a second
// backend must rebuild the full state from the WAL alone.
func TestFileBackendRecoversWithoutClose(t *testing.T) {
	dir := t.TempDir()
	fb := testFileBackend(t, dir, FileConfig{})
	seedBackend(t, fb)
	// Flush OS buffers so the data is visible to the reopen (a real crash
	// relies on the durable-append fsync; NoSync tests rely on Sync here).
	if err := fb.w.Sync(); err != nil {
		t.Fatal(err)
	}
	// Crash: no Close, no snapshot.

	fb2 := testFileBackend(t, dir, FileConfig{})
	defer fb2.Close()
	checkSeededState(t, fb2)
}

// TestFileBackendRecoversAfterClose: a graceful Close writes a snapshot;
// reopening must load it (and replay nothing).
func TestFileBackendRecoversAfterClose(t *testing.T) {
	dir := t.TempDir()
	fb := testFileBackend(t, dir, FileConfig{})
	seedBackend(t, fb)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	fb2 := testFileBackend(t, dir, FileConfig{})
	defer fb2.Close()
	checkSeededState(t, fb2)

	// State keeps accumulating across generations.
	if err := fb2.AppendEvents("v1", []play.Event{{User: "u2", Seq: 2, Pos: 90}}); err != nil {
		t.Fatal(err)
	}
	if _, total := fb2.ScanEvents("v1", 0, 0); total != 3 {
		t.Errorf("events after reopen-append = %d, want 3", total)
	}
}

// TestFileBackendCompactionKeepsStateExact: crossing the SnapshotEvery
// threshold compacts the WAL; the materialized state must be unchanged and
// a reopen must reproduce it exactly — including exactly-once events (the
// compaction protocol must not double-apply appends).
func TestFileBackendCompactionKeepsStateExact(t *testing.T) {
	dir := t.TempDir()
	fb := testFileBackend(t, dir, FileConfig{SnapshotEvery: 10})
	if err := fb.PutVideo(VideoRecord{ID: "v1", Duration: 60}); err != nil {
		t.Fatal(err)
	}
	const appends = 57 // crosses the threshold several times
	for i := 0; i < appends; i++ {
		if err := fb.AppendEvents("v1", []play.Event{{User: "u", Seq: i, Pos: float64(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	if _, total := fb.ScanEvents("v1", 0, 0); total != appends {
		t.Fatalf("pre-reopen total = %d, want %d", total, appends)
	}
	// The old generations must have been retired.
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files = %v (err %v), want exactly 1", logs, err)
	}
	if err := fb.w.Sync(); err != nil {
		t.Fatal(err)
	}

	// Crash-reopen (no Close): snapshot + current WAL must reproduce the
	// event log exactly once.
	fb2 := testFileBackend(t, dir, FileConfig{SnapshotEvery: 10})
	defer fb2.Close()
	evs, total := fb2.ScanEvents("v1", 0, 0)
	if total != appends {
		t.Fatalf("post-reopen total = %d, want %d (events doubled or lost)", total, appends)
	}
	for i, e := range evs {
		if e.Seq != i {
			t.Fatalf("event %d has seq %d: order or dedup broken", i, e.Seq)
		}
	}
}

// TestFileBackendTornTailIsTolerated: appending garbage to the live WAL
// (as a torn write would) must cost only the torn record.
func TestFileBackendTornTailIsTolerated(t *testing.T) {
	dir := t.TempDir()
	fb := testFileBackend(t, dir, FileConfig{})
	seedBackend(t, fb)
	if err := fb.w.Sync(); err != nil {
		t.Fatal(err)
	}
	walPath := fb.walPath(fb.gen)

	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0x13, 0x00, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fb2 := testFileBackend(t, dir, FileConfig{})
	defer fb2.Close()
	checkSeededState(t, fb2)
	// And the torn tail must have been truncated: fresh appends land after
	// the valid prefix and survive another reopen.
	if err := fb2.AppendEvents("v1", []play.Event{{User: "u3", Seq: 9, Pos: 10}}); err != nil {
		t.Fatal(err)
	}
	if err := fb2.w.Sync(); err != nil {
		t.Fatal(err)
	}
	fb3 := testFileBackend(t, dir, FileConfig{})
	defer fb3.Close()
	if _, total := fb3.ScanEvents("v1", 0, 0); total != 3 {
		t.Errorf("events after torn-tail recovery = %d, want 3", total)
	}
}

// TestFileBackendRecoversZeroByteLog: power loss right after a compaction
// created the next generation's log can leave that file empty (dirent
// durable, content not). Open must treat it as fresh — the snapshot holds
// every acknowledged record — never brick the data dir.
func TestFileBackendRecoversZeroByteLog(t *testing.T) {
	dir := t.TempDir()
	fb := testFileBackend(t, dir, FileConfig{})
	seedBackend(t, fb)
	if err := fb.Close(); err != nil { // writes store.snap + fresh wal
		t.Fatal(err)
	}
	logs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("wal files = %v (err %v)", logs, err)
	}
	if err := os.Truncate(logs[0], 0); err != nil {
		t.Fatal(err)
	}
	fb2 := testFileBackend(t, dir, FileConfig{})
	defer fb2.Close()
	checkSeededState(t, fb2)
}

// TestFileBackendRejectedMutationNotServed: a mutation the WAL cannot log
// must not surface in reads (nor, later, in snapshots).
func TestFileBackendRejectedMutationNotServed(t *testing.T) {
	dir := t.TempDir()
	fb := testFileBackend(t, dir, FileConfig{})
	if err := fb.PutVideo(VideoRecord{ID: "v1", Duration: 60}); err != nil {
		t.Fatal(err)
	}
	// Force every subsequent append to fail: close the WAL writer out from
	// under the backend (sticky writer error).
	if err := fb.w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fb.AppendEvents("v1", []play.Event{{User: "u", Seq: 0, Pos: 5}}); err == nil {
		t.Fatal("append with a dead log succeeded")
	}
	if _, total := fb.ScanEvents("v1", 0, 0); total != 0 {
		t.Fatalf("rejected events visible in reads: total = %d", total)
	}
}

// TestFileBackendCorruptSnapshotRejected: a flipped bit in the snapshot
// file must fail open loudly, not load partial state.
func TestFileBackendCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	fb := testFileBackend(t, dir, FileConfig{})
	seedBackend(t, fb)
	if err := fb.Close(); err != nil {
		t.Fatal(err)
	}
	snapPath := filepath.Join(dir, snapshotFile)
	data, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(snapPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileBackend(dir, FileConfig{NoSync: true}); err == nil {
		t.Fatal("corrupt snapshot accepted")
	}
}

// TestFileBackendDurableAppendSurvivesAbandonedWriter: AppendEvents
// acknowledges only after fsync, so an event acknowledged before a crash
// must be present after recovery even with real syncing enabled.
func TestFileBackendDurableAppendSurvivesAbandonedWriter(t *testing.T) {
	dir := t.TempDir()
	fb, err := OpenFileBackend(dir, FileConfig{}) // real fsync
	if err != nil {
		t.Fatal(err)
	}
	if err := fb.PutVideo(VideoRecord{ID: "v1", Duration: 60}); err != nil {
		t.Fatal(err)
	}
	if err := fb.AppendEvents("v1", []play.Event{{User: "u", Seq: 0, Pos: 5}}); err != nil {
		t.Fatal(err)
	}
	// Abandon fb without Close: the acknowledged append must already be
	// on disk.
	fb2, err := OpenFileBackend(dir, FileConfig{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer fb2.Close()
	if _, total := fb2.ScanEvents("v1", 0, 0); total != 1 {
		t.Fatalf("acknowledged event lost: total = %d", total)
	}
}

// FuzzDecodeWALRecord: the WAL record decoder must reject malformed
// payloads with an error — never panic — and applying any decodable record
// to a fresh backend must not panic either. It is differential: the
// reflection-free scanner and json.Unmarshal must agree on accept/reject
// and decode reflect.DeepEqual records, nil and empty slices told apart.
func FuzzDecodeWALRecord(f *testing.F) {
	f.Add([]byte(`{"op":"put_video","video":{"id":"v1","duration":10,"chat":[]}}`))
	f.Add([]byte(`{"op":"events","id":"v1","events":[{"user":"u","seq":1,"type":0,"pos":3}]}`))
	f.Add([]byte(`{"op":"ckpt","channel":"c","state":"AQI="}`))
	f.Add([]byte(`{"op":"nonsense"}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Add([]byte(`{"op":"put_video","video":{"id":"v1","duration":10,"chat":null}}`))
	f.Add([]byte(`{"op":"put_video","video":null}`))
	f.Add([]byte(`{"op":"events","id":"v1","events":[]}`))
	f.Add([]byte(`{"op":"events","id":"v1","events":[{"user":"a","seq":1}],"events":[{"seq":2}]}`))
	f.Add([]byte(`{"op":"ckpt","op":"del_ckpt","channel":"c"}`))
	f.Add([]byte(`{"op":"put_video","video":{"id":"v\u00e9","duration":1,"chat":[{"time":1,"user":"a\tb","text":"\u003c3 R\u0026D \"gg\""}]}}`))
	f.Add([]byte(`{"op":"set_refined","id":"v1","dots":[{"Time":5,"Peak":2}],"spans":[{"Start":1,"End":9}]}`))
	f.Add([]byte(`{"op":"ckpt","channel":"c","state":"not base64!"}`))
	f.Add([]byte(`{"op":"ckpt","channel":"c","state":""}`))
	f.Add([]byte(`{"OP":"del_ckpt","channel":"c"}`))
	f.Fuzz(func(t *testing.T, payload []byte) {
		var want walRecord
		wantErr := json.Unmarshal(payload, &want)
		if wantErr == nil {
			wantErr = checkWALRecord(want)
		}
		rec, err := decodeWALRecord(payload)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("decodeWALRecord(%q) err = %v, json.Unmarshal says %v", payload, err, wantErr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(rec, want) {
			t.Fatalf("decodeWALRecord(%q) = %+v, json.Unmarshal = %+v", payload, rec, want)
		}
		b := NewMemoryBackend(MemoryConfig{})
		_ = applyWALRecord(b, rec) // must not panic
	})
}

// TestFileBackendBatchedWALBitIdentical is the persistence half of the
// batching contract: one AppendEventsBatch must leave a WAL byte-identical
// to the same entries appended sequentially, and a crash-recovery replay of
// either log must materialize the same state.
func TestFileBackendBatchedWALBitIdentical(t *testing.T) {
	dir := t.TempDir()
	entries := []EventBatch{
		{VideoID: "v1", Events: []play.Event{{User: "a", Seq: 0, Type: play.EventPlay, Pos: 5}}},
		{VideoID: "v2", Events: []play.Event{{User: "b", Seq: 0, Type: play.EventPlay, Pos: 7}, {User: "b", Seq: 1, Type: play.EventStop, Pos: 9}}},
		{VideoID: "v1", Events: []play.Event{{User: "a", Seq: 1, Type: play.EventStop, Pos: 11}}},
	}

	setup := func(sub string) *FileBackend {
		fb := testFileBackend(t, filepath.Join(dir, sub), FileConfig{})
		for _, id := range []string{"v1", "v2"} {
			if err := fb.PutVideo(VideoRecord{ID: id, Duration: 100}); err != nil {
				t.Fatal(err)
			}
		}
		return fb
	}

	seq := setup("seq")
	for _, e := range entries {
		if err := seq.AppendEvents(e.VideoID, e.Events); err != nil {
			t.Fatal(err)
		}
	}
	batch := setup("batch")
	if err := batch.AppendEventsBatch(entries); err != nil {
		t.Fatal(err)
	}

	// Flush both logs without compaction (Close would snapshot), then
	// compare raw WAL bytes.
	if err := seq.w.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := batch.w.Sync(); err != nil {
		t.Fatal(err)
	}
	seqWAL, err := os.ReadFile(seq.walPath(seq.gen))
	if err != nil {
		t.Fatal(err)
	}
	batchWAL, err := os.ReadFile(batch.walPath(batch.gen))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(seqWAL, batchWAL) {
		t.Fatalf("batched WAL differs from sequential WAL (%d vs %d bytes)",
			len(batchWAL), len(seqWAL))
	}

	// Abandon both (crash) and recover: replayed state must match too.
	for _, sub := range []string{"seq", "batch"} {
		fb := testFileBackend(t, filepath.Join(dir, sub), FileConfig{})
		v1, t1 := fb.ScanEvents("v1", 0, 0)
		v2, t2 := fb.ScanEvents("v2", 0, 0)
		if t1 != 2 || t2 != 2 || v1[1].Pos != 11 || v2[1].Pos != 9 {
			t.Errorf("%s replay: v1=%v v2=%v", sub, v1, v2)
		}
		fb.Close()
	}
}

// TestFileBackendBatchDurability: an acknowledged AppendEventsBatch must
// survive an abandoned writer (the crash-after-ack guarantee, now for the
// one-wait burst path).
func TestFileBackendBatchDurability(t *testing.T) {
	dir := t.TempDir()
	fb := testFileBackend(t, dir, FileConfig{})
	if err := fb.PutVideo(VideoRecord{ID: "v1", Duration: 100}); err != nil {
		t.Fatal(err)
	}
	if err := fb.AppendEventsBatch([]EventBatch{
		{VideoID: "v1", Events: []play.Event{{User: "u", Seq: 0, Pos: 1}}},
		{VideoID: "v1", Events: []play.Event{{User: "u", Seq: 1, Pos: 2}}},
	}); err != nil {
		t.Fatal(err)
	}
	// Crash without Close: replay must hold every acknowledged event.
	re := testFileBackend(t, dir, FileConfig{})
	defer re.Close()
	evs, total := re.ScanEvents("v1", 0, 0)
	if total != 2 || evs[1].Seq != 1 {
		t.Fatalf("acknowledged batch lost: %v (total %d)", evs, total)
	}
}
