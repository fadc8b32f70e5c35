package core_test

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"lightor/internal/core"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite internal/core/testdata/*.snap from this build (only when the snapshot format is MEANT to change)")

// TestGoldenSnapshot pins the detector's wire format and its arithmetic to
// fixtures recorded at the commit BEFORE the tokenizer and window vocabulary
// were replaced: a snapshot taken mid-window (open accumulator, pending
// windows, memoized scores) and the snapshot of the same stream after its
// closing flush (every emitted dot). A build passes only if
//
//   - feeding the same stream reproduces both fixtures byte for byte — same
//     token ids, same float sums in the same order, same dots;
//   - the old mid-window snapshot restores, re-encodes to the same bytes,
//     and the restored detector finishes the stream with dots bit-identical
//     to the uninterrupted run.
func TestGoldenSnapshot(t *testing.T) {
	init, test := trainedInit(t, 412)
	msgs := test[0].Chat.Log.Messages()
	if len(msgs) > 900 {
		msgs = msgs[:900]
	}
	const cut = 600
	size := init.Config().WindowSize
	if math.Floor(msgs[cut-1].Time/size) != math.Floor(msgs[cut].Time/size) {
		t.Fatalf("messages %d and %d straddle a window boundary; the fixture must be taken mid-window", cut-1, cut)
	}

	od, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	od.SetWarmup(0)
	feedAll(t, od, msgs[:cut])
	mid := od.Snapshot()
	feedAll(t, od, msgs[cut:])
	od.Flush()
	final := od.Snapshot()
	want := od.Emitted()
	if len(want) == 0 {
		t.Fatal("the stream emitted nothing; the fixture is vacuous")
	}

	midPath := filepath.Join("testdata", "online_midwindow.snap")
	finalPath := filepath.Join("testdata", "online_flushed.snap")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(midPath, mid, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(finalPath, final, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	goldenMid, err := os.ReadFile(midPath)
	if err != nil {
		t.Fatal(err)
	}
	goldenFinal, err := os.ReadFile(finalPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mid, goldenMid) {
		t.Errorf("mid-window snapshot (%d bytes) differs from the fixture (%d bytes)", len(mid), len(goldenMid))
	}
	if !bytes.Equal(final, goldenFinal) {
		t.Errorf("flushed snapshot (%d bytes) differs from the fixture (%d bytes): detection changed", len(final), len(goldenFinal))
	}

	resumed, err := core.NewOnlineDetector(init, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.RestoreSnapshot(goldenMid); err != nil {
		t.Fatalf("restoring the fixture: %v", err)
	}
	if again := resumed.Snapshot(); !bytes.Equal(again, goldenMid) {
		t.Errorf("re-encoding the restored fixture changed its bytes (%d -> %d)", len(goldenMid), len(again))
	}
	feedAll(t, resumed, msgs[cut:])
	resumed.Flush()
	if got := resumed.Emitted(); !sameDots(got, want) {
		t.Errorf("resumed from the fixture: dots %v, uninterrupted run %v", got, want)
	}
	if again := resumed.Snapshot(); !bytes.Equal(again, goldenFinal) {
		t.Errorf("resumed detector's flushed snapshot differs from the fixture")
	}
}
