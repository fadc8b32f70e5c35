package chat

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

func msgs(times ...float64) []Message {
	out := make([]Message, len(times))
	for i, t := range times {
		out[i] = Message{Time: t, User: "u", Text: "hi"}
	}
	return out
}

func TestNewLogSortsByTime(t *testing.T) {
	l := NewLog(msgs(5, 1, 3))
	got := l.Messages()
	if got[0].Time != 1 || got[1].Time != 3 || got[2].Time != 5 {
		t.Errorf("not sorted: %v", got)
	}
}

func TestNewLogStableOnTies(t *testing.T) {
	in := []Message{
		{Time: 2, User: "a"},
		{Time: 2, User: "b"},
	}
	l := NewLog(in)
	if l.At(0).User != "a" || l.At(1).User != "b" {
		t.Error("tie order not preserved")
	}
}

func TestNewLogCopiesInput(t *testing.T) {
	in := msgs(1, 2)
	l := NewLog(in)
	in[0].Time = 99
	if l.At(0).Time == 99 {
		t.Error("Log aliased caller's slice")
	}
}

func TestBetween(t *testing.T) {
	l := NewLog(msgs(0, 10, 20, 30, 40))
	got := l.Between(10, 30)
	if len(got) != 2 || got[0].Time != 10 || got[1].Time != 20 {
		t.Errorf("Between(10,30) = %v", got)
	}
	if n := l.CountBetween(0, 100); n != 5 {
		t.Errorf("CountBetween full = %d, want 5", n)
	}
	if n := l.CountBetween(41, 100); n != 0 {
		t.Errorf("CountBetween empty = %d, want 0", n)
	}
}

func TestDuration(t *testing.T) {
	if d := NewLog(nil).Duration(); d != 0 {
		t.Errorf("empty Duration = %g", d)
	}
	if d := NewLog(msgs(3, 7)).Duration(); d != 7 {
		t.Errorf("Duration = %g, want 7", d)
	}
}

func TestRatePerHour(t *testing.T) {
	l := NewLog(msgs(1, 2, 3, 4, 5))
	if r := l.RatePerHour(3600); r != 5 {
		t.Errorf("RatePerHour = %g, want 5", r)
	}
	if r := l.RatePerHour(1800); r != 10 {
		t.Errorf("RatePerHour half hour = %g, want 10", r)
	}
	if r := l.RatePerHour(0); r != 0 {
		t.Errorf("RatePerHour zero duration = %g, want 0", r)
	}
}

func TestValidate(t *testing.T) {
	if err := NewLog(msgs(1, 2)).Validate(10); err != nil {
		t.Errorf("valid log rejected: %v", err)
	}
	if err := NewLog(msgs(-1)).Validate(10); err == nil {
		t.Error("negative timestamp accepted")
	}
	if err := NewLog(msgs(11)).Validate(10); err == nil {
		t.Error("timestamp beyond duration accepted")
	}
	if err := NewLog(msgs(11)).Validate(0); err != nil {
		t.Errorf("duration 0 should skip upper check: %v", err)
	}
}

// TestNewLogMatchesSliceStable checks NewLog against the sort.SliceStable
// it replaced, element for element and bit for bit: ties keep input order,
// -0 ties with +0, and NaN lands wherever SliceStable puts it.
func TestNewLogMatchesSliceStable(t *testing.T) {
	rng := rand.New(rand.NewSource(20200420))
	negZero := math.Copysign(0, -1)
	times := map[string]func(i, n int) float64{
		"sorted":   func(i, n int) float64 { return float64(i / 3) },
		"reversed": func(i, n int) float64 { return float64((n - i) / 3) },
		"ties":     func(i, n int) float64 { return float64(rng.Intn(4)) },
		"zeros": func(i, n int) float64 {
			return []float64{0, negZero, 1, -1}[rng.Intn(4)]
		},
		"random": func(i, n int) float64 { return rng.Float64() * 100 },
		"nan": func(i, n int) float64 {
			if rng.Intn(5) == 0 {
				return math.NaN()
			}
			return float64(rng.Intn(8))
		},
		"nan-sorted": func(i, n int) float64 {
			if i == n/2 {
				return math.NaN()
			}
			return float64(i)
		},
		"sorted-runs": func(i, n int) float64 { return float64(i % 25) },
		// Every adjacent pair is in order (NaN compares false both ways),
		// yet the stable sort moves the run after the NaN forward.
		"nan-between-runs": func(i, n int) float64 {
			switch {
			case i < 20:
				return float64(10 + i)
			case i == 20:
				return math.NaN()
			}
			return float64(i - 21)
		},
		"inf": func(i, n int) float64 {
			return []float64{math.Inf(1), math.Inf(-1), 3, negZero}[rng.Intn(4)]
		},
	}
	for name, at := range times {
		for _, n := range []int{0, 1, 2, 19, 20, 21, 64, 257, 1000} {
			in := make([]Message, n)
			for i := range in {
				in[i] = Message{Time: at(i, n), User: fmt.Sprint(i)}
			}
			want := slices.Clone(in)
			sort.SliceStable(want, func(i, j int) bool { return want[i].Time < want[j].Time })
			before := slices.Clone(in)
			got := NewLog(in).Messages()
			if !sameMessages(got, want) {
				t.Fatalf("%s, n=%d: NewLog order differs from sort.SliceStable", name, n)
			}
			if !sameMessages(in, before) {
				t.Fatalf("%s, n=%d: NewLog modified its input", name, n)
			}
			if owned := newOwnedLog(slices.Clone(in)).Messages(); !sameMessages(owned, want) {
				t.Fatalf("%s, n=%d: newOwnedLog order differs from sort.SliceStable", name, n)
			}
		}
	}
}

// TestNewLogSortedOneAllocation: ordered input costs NewLog its copy and
// nothing else (no key slice, no sort). The Log itself stays on the stack
// here, where NewLog is inlined into a caller that does not keep it.
func TestNewLogSortedOneAllocation(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	in := msgs(1, 2, 2, 3, 5, 8, 13)
	allocs := testing.AllocsPerRun(100, func() {
		if NewLog(in).Len() != len(in) {
			t.Fatal("NewLog dropped messages")
		}
	})
	if allocs != 1 {
		t.Errorf("NewLog of ordered input took %.0f allocations, want 1", allocs)
	}
}
