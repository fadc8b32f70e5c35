package core

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"lightor/internal/play"
	"lightor/internal/stats"
)

// The routines below are Algorithm 2 as it was written before the kernel in
// extractor.go replaced it — the overlap graph as an n×n matrix, the filter
// as two appended passes, the medians by copy-and-sort. They stay here as
// the reference the kernel is compared with, play for play and bit for bit.

func referenceFilter(e *Extractor, plays []play.Play, dot float64) []play.Play {
	near := play.Near(plays, dot, e.cfg.Delta)
	kept := near[:0:0]
	for _, p := range near {
		d := p.Duration()
		if d < e.cfg.MinPlaySeconds || d > e.cfg.MaxPlaySeconds {
			continue
		}
		kept = append(kept, p)
	}
	return kept
}

func referenceRemoveGraphOutliers(plays []play.Play) []play.Play {
	n := len(plays)
	if n <= 2 {
		return plays
	}
	adj := make([][]bool, n)
	degree := make([]int, n)
	for i := range adj {
		adj[i] = make([]bool, n)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if plays[i].Overlaps(plays[j]) {
				adj[i][j], adj[j][i] = true, true
				degree[i]++
				degree[j]++
			}
		}
	}
	center := 0
	for i := 1; i < n; i++ {
		if degree[i] > degree[center] {
			center = i
		}
	}
	var kept []play.Play
	for i := 0; i < n; i++ {
		if i == center || adj[center][i] {
			kept = append(kept, plays[i])
		}
	}
	return kept
}

func referenceStep(e *Extractor, h Interval, plays []play.Play) StepResult {
	dot := h.Start
	filtered := referenceFilter(e, plays, dot)
	class := e.classifier.Classify(ExtractTypeFeatures(filtered, dot))
	res := StepResult{Dot: dot, Plays: len(filtered), Class: class}
	if class == TypeII {
		var kept []play.Play
		for _, p := range referenceRemoveGraphOutliers(filtered) {
			if p.End >= dot {
				kept = append(kept, p)
			}
		}
		if len(kept) == 0 {
			res.Refined = h
			res.Converged = true
			return res
		}
		start := stats.Median(play.Starts(kept))
		end := stats.Median(play.Ends(kept))
		if end <= start {
			end = start + e.cfg.DefaultSpan
		}
		res.Refined = Interval{Start: start, End: end}
		res.Converged = abs(start-dot) < e.cfg.Epsilon
	} else {
		start := dot - e.cfg.MoveBack
		if start < 0 {
			start = 0
		}
		res.Refined = Interval{Start: start, End: h.End}
	}
	return res
}

// samePlays compares element for element and bit for bit (a NaN position
// equals itself here; nil and empty are both "no plays").
func samePlays(a, b []play.Play) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].User != b[i].User ||
			math.Float64bits(a[i].Start) != math.Float64bits(b[i].Start) ||
			math.Float64bits(a[i].End) != math.Float64bits(b[i].End) {
			return false
		}
	}
	return true
}

// gridPlays reads spans off fuzz bytes, three per play: start and length on
// a coarse grid — so ties, duplicates, touching endpoints and zero-length
// spans are dense — and a selector that now and then inverts the span or
// makes a position NaN or infinite, which only RemoveOutliers' public entry
// can be handed.
func gridPlays(data []byte) []play.Play {
	var plays []play.Play
	for i := 0; i+2 < len(data) && len(plays) < 400; i += 3 {
		start := float64(data[i] % 64)
		p := play.Play{User: string(rune('a' + i%26)), Start: start, End: start + float64(data[i+1]%16)}
		switch data[i+2] {
		case 0:
			p.Start, p.End = p.End, p.Start
		case 1:
			p.Start = math.NaN()
		case 2:
			p.End = math.NaN()
		case 3:
			p.End = math.Inf(1)
		case 4:
			p.Start = math.Inf(-1)
		case 5:
			p.Start, p.End = math.Inf(1), math.Inf(1)
		}
		plays = append(plays, p)
	}
	return plays
}

// gridBytes is gridPlays' inverse for well-formed plays, to seed the corpus
// from recorded ones.
func gridBytes(plays []play.Play) []byte {
	var data []byte
	for _, p := range plays {
		data = append(data, byte(int(p.Start)%64), byte(int(p.Duration())%16), 255)
	}
	return data
}

// vodRefinePlays are the plays of one vod-refine POST body (bench/inputs,
// seed 20200420, first video, first body).
func vodRefinePlays(t testing.TB) []play.Play {
	t.Helper()
	body, err := os.ReadFile("../play/testdata/vod_refine_post.json")
	if err != nil {
		t.Fatal(err)
	}
	var events []play.Event
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatal(err)
	}
	return play.Sessionize(events)
}

// FuzzRemoveOutliers: the sorted-endpoint degree count keeps exactly the
// plays the overlap matrix kept, in the same order, whatever the spans —
// and the input is left as it was.
func FuzzRemoveOutliers(f *testing.F) {
	f.Add(gridBytes(vodRefinePlays(f)))
	f.Add([]byte{0, 4, 9, 4, 0, 9, 4, 4, 9, 8, 0, 9, 30, 2, 9})         // touching chain, zero-length spans
	f.Add([]byte{5, 5, 9, 5, 5, 9, 5, 5, 9, 40, 1, 9, 40, 1, 9})        // duplicates, tied degrees
	f.Add([]byte{5, 5, 0, 5, 5, 0, 6, 3, 9, 2, 9, 1, 7, 2, 2, 1, 1, 5}) // inverted, NaN, +Inf spans
	e := mustExtractor(f, ExtractorConfig{}, nil)
	f.Fuzz(func(t *testing.T, data []byte) {
		plays := gridPlays(data)
		input := append([]play.Play(nil), plays...)
		got := e.RemoveOutliers(plays)
		want := referenceRemoveGraphOutliers(input)
		if !samePlays(got, want) {
			t.Fatalf("plays %+v:\n kernel kept %+v\n matrix kept %+v", input, got, want)
		}
		if !samePlays(plays, input) {
			t.Fatalf("RemoveOutliers modified its input: %+v, was %+v", plays, input)
		}
	})
}

// TestStepMatchesReference drives whole iterations — filter, classify,
// graph, medians — over random crowds on a half-second grid, with dots that
// are ordinary, far away, NaN and infinite, and compares every StepResult
// with the reference's. Refine must produce the same trace as iterating the
// reference by hand, which also shows its reused scratch carries nothing
// from one iteration into the next.
func TestStepMatchesReference(t *testing.T) {
	e := mustExtractor(t, ExtractorConfig{}, nil)
	rng := stats.NewRand(23)
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -5}
	for round := 0; round < 400; round++ {
		n := rng.Intn(60)
		if round%10 == 0 {
			n = 300 + rng.Intn(200)
		}
		centre := 500 + 100*rng.Float64()
		plays := make([]play.Play, n)
		for i := range plays {
			start := centre + math.Round(2*rng.NormFloat64()*25)/2
			plays[i] = play.Play{Start: start, End: start + math.Round(2*rng.Float64()*40)/2}
			switch rng.Intn(40) {
			case 0:
				plays[i].End += 200 // a binge
			case 1:
				plays[i].Start = special[rng.Intn(len(special))]
			case 2:
				plays[i].End = special[rng.Intn(len(special))]
			case 3:
				plays[i].Start, plays[i].End = math.Inf(1), math.Inf(1)
			}
		}
		dot := centre + math.Round(rng.NormFloat64()*30)
		if round%25 == 0 {
			dot = special[rng.Intn(len(special))]
		}
		h := Interval{Start: dot, End: dot + 30}

		got, want := e.Step(h, plays), referenceStep(e, h, plays)
		if !reflect.DeepEqual(statBits(got), statBits(want)) {
			t.Fatalf("round %d, dot %v, %d plays: Step %+v, reference %+v", round, dot, n, got, want)
		}
		if f, r := e.Filter(plays, dot), referenceFilter(e, plays, dot); !samePlays(f, r) {
			t.Fatalf("round %d, dot %v: Filter kept %d plays, reference %d", round, dot, len(f), len(r))
		}

		_, trace := e.Refine(h, scriptedStatic(plays))
		for i, step := range trace {
			want := referenceStep(e, h, plays)
			want.Iteration = i
			if !reflect.DeepEqual(statBits(step), statBits(want)) {
				t.Fatalf("round %d, dot %v, iteration %d: Refine %+v, reference %+v", round, dot, i, step, want)
			}
			h = want.Refined
		}
	}
}

// statBits is a StepResult with its floats as bit patterns, so that NaN
// results compare equal to themselves.
func statBits(r StepResult) [8]uint64 {
	conv := uint64(0)
	if r.Converged {
		conv = 1
	}
	return [8]uint64{uint64(r.Iteration), math.Float64bits(r.Dot), uint64(r.Plays), uint64(r.Class),
		math.Float64bits(r.Refined.Start), math.Float64bits(r.Refined.End), conv}
}

type scriptedStatic []play.Play

func (s scriptedStatic) Interactions(float64) []play.Play { return s }

// shiftingSource rewrites one crowd in place to start 10–30 s after whatever
// dot it is asked about: every iteration is a Type II step that moves the dot
// by more than Epsilon, so a Refine runs its whole budget through the graph
// step and the medians — and the source itself allocates nothing.
type shiftingSource []play.Play

func (s shiftingSource) Interactions(dot float64) []play.Play {
	for i := range s {
		s[i].Start = dot + 10 + float64(i%20)
		s[i].End = s[i].Start + 10 + float64(i%7)
	}
	return s
}

// TestRefineAllocsIndependentOfPlays pins the loop's memory contract: the
// allocations of a full ten-iteration Refine are its scratch and its trace,
// so their number does not depend on how many plays surround the dot.
func TestRefineAllocsIndependentOfPlays(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are taken without the race detector")
	}
	e := mustExtractor(t, ExtractorConfig{}, nil)
	allocs := func(n int) float64 {
		var source InteractionSource = make(shiftingSource, n) // boxed once, outside the measured call
		return testing.AllocsPerRun(20, func() {
			_, trace := e.Refine(Interval{Start: 1000, End: 1030}, source)
			if len(trace) != 10 || trace[9].Class != TypeII || trace[9].Plays != n {
				t.Fatalf("want ten Type II iterations over %d plays, got %d ending %+v", n, len(trace), trace[len(trace)-1])
			}
		})
	}
	small, large := allocs(50), allocs(2000)
	if small != large || large > 8 {
		t.Errorf("a 10-iteration Refine allocates %v times over 50 plays and %v over 2,000; want the same, at most 8", small, large)
	}
}
