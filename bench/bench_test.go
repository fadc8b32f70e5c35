package main

import (
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"lightor/bench/inputs"
)

// TestSmoke runs all four workloads end to end at one slice of one second
// (with a shrunken crash-seeding phase) and checks what the driver relies
// on: the workload and metric names and units are exactly BENCHMARK.json's,
// every metric is a finite non-zero number, nothing failed and every output
// matched the reference.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness runs %d", len(sp.Workloads), len(workloads))
	}
	e, err := newEnv(root, -1, runtime.NumCPU()) // not confined to one CPU: a test binary does not exec itself again
	if err != nil {
		t.Fatal(err)
	}
	defer e.cleanup()
	refineSeedPosts, setupRounds = 200, 2
	sh := shape{warmup: 200 * time.Millisecond, slice: time.Second, rest: 100 * time.Millisecond, slices: 1}
	for i, wl := range workloads {
		if sp.Workloads[i].Name != wl.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the harness %q", i, sp.Workloads[i].Name, wl.name)
		}
		res, err := runOnce(e, wl.run, inputs.DefaultSeed, sh)
		if err != nil {
			t.Fatalf("%s: %v", wl.name, err)
		}
		res.printTable(os.Stdout, sp.EndToEnd, res.e2e)
		if err := res.check(sp.EndToEnd, res.e2e); err != nil {
			t.Error(err)
		}
		for name, v := range res.e2e {
			if v.v == 0 || math.IsNaN(v.v) {
				t.Errorf("%s: %s = %v", wl.name, name, v.v)
			}
		}
		if !res.correct() {
			t.Errorf("%s: outputs differ from the reference: %v", wl.name, res.wrongs)
		}
		if res.failed != 0 || res.attempted == 0 {
			t.Errorf("%s: %d of %d operations failed", wl.name, res.failed, res.attempted)
		}
		// The per-layer numbers an end-to-end run contributes must be among
		// the ones BENCHMARK.json names.
		for name := range res.extra {
			if !hasMetric(sp.PerLayer, name) {
				t.Errorf("%s: per-layer metric %s is not in BENCHMARK.json", wl.name, name)
			}
		}
	}
}

func TestOverSlices(t *testing.T) {
	thickSlices := make([][]float64, 3)
	for s := range thickSlices {
		for i := 1; i <= 400; i++ {
			thickSlices[s] = append(thickSlices[s], float64(i+s))
		}
	}
	// p95 of 1..400 is 380.05; the slices are shifted by 0, 1, 2: median 381.05.
	if got := overSlices(thickSlices, 0.95); got.merged != 1 || got.blocks != 3 || !near(got.value, 381.05) || got.samples != 1200 {
		t.Errorf("thick slices: %+v", got)
	}
	// Eighteen slices of 100 samples: p95 needs 200 per block, so pairs.
	var thin [][]float64
	for s := 0; s < 18; s++ {
		var sl []float64
		for i := 1; i <= 100; i++ {
			sl = append(sl, float64(i))
		}
		thin = append(thin, sl)
	}
	if got := overSlices(thin, 0.95); got.merged != 2 || got.blocks != 9 || !near(got.value, 95.05) {
		t.Errorf("thin slices must merge in pairs: %+v", got)
	}
	// One outlier slice cannot move a median over blocks.
	thin[4] = []float64{1e6, 1e6, 1e6}
	if got := overSlices(thin, 0.95); !near(got.value, 95.05) {
		t.Errorf("a stalled slice reached the result: %+v", got)
	}
	// Too thin even six at a time: three blocks, never one pooled percentile.
	var sparse [][]float64
	for s := 0; s < 18; s++ {
		sparse = append(sparse, []float64{float64(s)})
	}
	if got := overSlices(sparse, 0.95); got.blocks != 3 || got.merged != 6 || !near(got.value, 10.75) {
		t.Errorf("sparse slices: %+v", got)
	}
	if !math.IsNaN(overSlices([][]float64{nil}, 0.5).value) {
		t.Error("no samples must give NaN, which result.check rejects")
	}
}

// TestIQRShare holds the spread arithmetic to the driver's: Python's
// statistics.quantiles(range(1, 11), n=4) is [2.75, 5.5, 8.25].
func TestIQRShare(t *testing.T) {
	v := []float64{7, 1, 10, 4, 2, 9, 3, 8, 5, 6}
	if got := iqrShare(v); !near(got, (8.25-2.75)/5.5) {
		t.Errorf("iqrShare(1..10) = %v, want 1", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestWindowSlicesAndRests(t *testing.T) {
	start := time.Unix(1000, 0)
	w := window{shape: shape{slice: time.Second, rest: 200 * time.Millisecond, slices: 3}, start: start}
	for _, c := range []struct {
		at          time.Duration
		slice, rest int
	}{
		{-time.Millisecond, -1, -1},
		{0, -1, 0}, {199 * time.Millisecond, -1, 0},
		{200 * time.Millisecond, 0, -1}, {1199 * time.Millisecond, 0, -1},
		{1200 * time.Millisecond, -1, 1},
		{1400 * time.Millisecond, 1, -1},
		{3599 * time.Millisecond, 2, -1},
		{3600 * time.Millisecond, -1, 3}, {3799 * time.Millisecond, -1, 3},
		{3800 * time.Millisecond, -1, -1},
	} {
		at := start.Add(c.at)
		if got := w.sliceOf(at); got != c.slice {
			t.Errorf("sliceOf(start+%v) = %d, want %d", c.at, got, c.slice)
		}
		if got := w.restOf(at); got != c.rest {
			t.Errorf("restOf(start+%v) = %d, want %d", c.at, got, c.rest)
		}
	}
	if !w.end().Equal(start.Add(3800 * time.Millisecond)) {
		t.Errorf("end = start+%v", w.end().Sub(start))
	}
	if unmeasured.restOf(time.Now()) != -1 || unmeasured.sliceOf(time.Now()) != -1 {
		t.Error("a window without slices has no rests either")
	}
}

func TestSlowdown(t *testing.T) {
	atRest := reading{spin: spinAtRest, walk: walkAtRest}
	crowded := reading{spin: spinAtRest, walk: 1.5 * walkAtRest}
	for _, c := range []struct {
		rs       []reading
		memShare float64
		want     float64
	}{
		{nil, 0.5, 1},
		{[]reading{atRest, atRest}, 0.5, 1},
		{[]reading{crowded}, 0, 1},
		{[]reading{crowded}, 1, 1.5},
		{[]reading{crowded, atRest}, 0.4, 1.1},
	} {
		if got := slowdown(c.rs, c.memShare); !near(got, c.want) {
			t.Errorf("slowdown(%v, %v) = %v, want %v", c.rs, c.memShare, got, c.want)
		}
	}
}
