package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the fixtures under internal/core/testdata from this build (only when the snapshot format or Algorithm 2's output is MEANT to change)")

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

// refineGolden is the fixture format of TestGoldenRefineTrace: per crowd and
// dot, the full per-iteration trace and the final boundary. encoding/json
// writes a float64 as the shortest decimal that round-trips, so equal bytes
// mean equal bits.
type refineGolden struct {
	Crowd    string
	Dot      float64
	Trace    []core.StepResult
	Boundary core.Interval
}

// TestGoldenRefineTrace pins Algorithm 2's arithmetic to a fixture recorded
// at the commit BEFORE the extractor kernel was rewritten. Two recorded
// crowds of a few hundred plays each — "walk": viewers who clicked an
// overshooting dot and every position the walk back visits, a static log in
// which Type I and Type II verdicts alternate for the full iteration budget;
// "settled": viewers who all clicked one usable dot, dense in tied starts,
// which converges — are each refined from an overshooting (Type I) and a
// usable (Type II) dot, serially and through the engine's fan-out. Every
// iteration's dot, surviving play count, class and boundary must reproduce
// exactly.
func TestGoldenRefineTrace(t *testing.T) {
	rng := stats.NewRand(2020)
	v := sim.GenerateVideo(rng, sim.Dota2Profile(), "golden")
	h := v.Highlights[len(v.Highlights)/2]
	overshoot, usable := h.End+30, h.Start+5
	viewers := 0
	crowd := func(n int, at, jitter float64) []play.Event {
		var events []play.Event
		for i := 0; i < n; i++ {
			dot := at + stats.Uniform(rng, -jitter, jitter)
			events = append(events, sim.SimulateViewer(rng, fmt.Sprintf("viewer%04d", viewers), v, dot, h, sim.DefaultViewerBehavior())...)
			viewers++
		}
		return events
	}
	var walk []play.Event
	for at := overshoot; at > h.Start-20; at -= 20 {
		walk = append(walk, crowd(60, at, 6)...)
	}
	crowds := []struct {
		name   string
		source staticSource
	}{
		{"walk", staticSource(play.Sessionize(walk))},
		{"settled", staticSource(play.Sessionize(crowd(400, usable, 0)))},
	}

	ext := mustNewExtractor(t, core.DefaultExtractorConfig(), nil)
	eng, err := engine.New(mustNewInitializer(t, core.DefaultInitializerConfig()), ext, engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	defer eng.Close(ctx)

	dots := []core.RedDot{{Time: overshoot}, {Time: usable}}
	var got []refineGolden
	for _, c := range crowds {
		job, err := eng.Refine().Enqueue("golden", dots, c.source, nil)
		if err != nil {
			t.Fatal(err)
		}
		done, err := eng.Refine().Wait(ctx, job.ID)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range dots {
			boundary, trace := ext.Refine(core.Interval{Start: d.Time, End: d.Time + ext.Config().DefaultSpan}, c.source)
			got = append(got, refineGolden{Crowd: c.name, Dot: d.Time, Trace: trace, Boundary: boundary})
			if res := done.Results[i]; res.Boundary != boundary || !reflect.DeepEqual(res.Trace, trace) {
				t.Errorf("%s dot %d through the engine: boundary %v, trace %+v; serial %v, %+v",
					c.name, i, res.Boundary, res.Trace, boundary, trace)
			}
		}
	}
	if first := got[0].Trace[0].Class; first != core.TypeI {
		t.Fatalf("the walk must open on a Type I dot, got %v", first)
	}
	if last := got[3].Trace[len(got[3].Trace)-1]; last.Class != core.TypeII || !last.Converged {
		t.Fatalf("the settled crowd must converge on its usable dot, ended %+v", last)
	}

	encoded, err := json.MarshalIndent(got, "", "\t")
	if err != nil {
		t.Fatal(err)
	}
	encoded = append(encoded, '\n')
	path := filepath.Join("testdata", "refine_trace.json")
	if *updateGolden {
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encoded, golden) {
		t.Errorf("refinement trace differs from the fixture:\n got %s\nwant %s", encoded, golden)
	}
}

// staticSource answers every dot with the same recorded plays, as the
// platform's per-job snapshot does.
type staticSource []play.Play

func (s staticSource) Interactions(float64) []play.Play { return s }
