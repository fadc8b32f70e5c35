package play

import (
	"testing"
	"testing/quick"
)

func TestPlayBasics(t *testing.T) {
	p := Play{User: "u", Start: 10, End: 30}
	if p.Duration() != 20 {
		t.Errorf("Duration = %g, want 20", p.Duration())
	}
	if err := p.Validate(); err != nil {
		t.Errorf("valid play rejected: %v", err)
	}
	if err := (Play{Start: 5, End: 1}).Validate(); err == nil {
		t.Error("inverted play accepted")
	}
	if err := (Play{Start: -1, End: 1}).Validate(); err == nil {
		t.Error("negative start accepted")
	}
}

func TestPlayOverlaps(t *testing.T) {
	a := Play{Start: 0, End: 10}
	cases := []struct {
		b    Play
		want bool
	}{
		{Play{Start: 5, End: 15}, true},
		{Play{Start: 10, End: 20}, true}, // touching counts
		{Play{Start: 11, End: 20}, false},
		{Play{Start: -5, End: -1}, false},
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("Overlaps(%v) = %v, want %v", c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("Overlaps not symmetric for %v", c.b)
		}
	}
}

func TestSessionizeBasic(t *testing.T) {
	events := []Event{
		{User: "alice", Seq: 0, Type: EventPlay, Pos: 100},
		{User: "alice", Seq: 1, Type: EventPause, Pos: 120},
		{User: "alice", Seq: 2, Type: EventPlay, Pos: 200},
		{User: "alice", Seq: 3, Type: EventStop, Pos: 215},
	}
	plays := Sessionize(events)
	if len(plays) != 2 {
		t.Fatalf("plays = %v, want 2 records", plays)
	}
	if plays[0] != (Play{User: "alice", Start: 100, End: 120}) {
		t.Errorf("first play = %+v", plays[0])
	}
	if plays[1] != (Play{User: "alice", Start: 200, End: 215}) {
		t.Errorf("second play = %+v", plays[1])
	}
}

func TestSessionizeSeekClosesSpan(t *testing.T) {
	events := []Event{
		{User: "u", Seq: 0, Type: EventPlay, Pos: 50},
		{User: "u", Seq: 1, Type: EventSeek, Pos: 70}, // watched 50..70, then jumped
		{User: "u", Seq: 2, Type: EventPlay, Pos: 90},
		{User: "u", Seq: 3, Type: EventStop, Pos: 95},
	}
	plays := Sessionize(events)
	if len(plays) != 2 || plays[0].End != 70 || plays[1].Start != 90 {
		t.Errorf("plays = %v", plays)
	}
}

func TestSessionizeDanglingOpenDropped(t *testing.T) {
	events := []Event{{User: "u", Seq: 0, Type: EventPlay, Pos: 10}}
	if plays := Sessionize(events); len(plays) != 0 {
		t.Errorf("dangling open produced %v", plays)
	}
}

func TestSessionizeZeroLengthDropped(t *testing.T) {
	events := []Event{
		{User: "u", Seq: 0, Type: EventPlay, Pos: 10},
		{User: "u", Seq: 1, Type: EventPause, Pos: 10},
	}
	if plays := Sessionize(events); len(plays) != 0 {
		t.Errorf("zero-length span produced %v", plays)
	}
}

func TestSessionizeDoublePlayContinues(t *testing.T) {
	events := []Event{
		{User: "u", Seq: 0, Type: EventPlay, Pos: 10},
		{User: "u", Seq: 1, Type: EventPlay, Pos: 15}, // redundant
		{User: "u", Seq: 2, Type: EventPause, Pos: 20},
	}
	plays := Sessionize(events)
	if len(plays) != 1 || plays[0].Start != 10 || plays[0].End != 20 {
		t.Errorf("plays = %v, want single [10,20]", plays)
	}
}

func TestSessionizeMultiUserDeterministicOrder(t *testing.T) {
	events := []Event{
		{User: "zoe", Seq: 0, Type: EventPlay, Pos: 1},
		{User: "zoe", Seq: 1, Type: EventStop, Pos: 2},
		{User: "amy", Seq: 0, Type: EventPlay, Pos: 3},
		{User: "amy", Seq: 1, Type: EventStop, Pos: 4},
	}
	plays := Sessionize(events)
	if len(plays) != 2 || plays[0].User != "amy" || plays[1].User != "zoe" {
		t.Errorf("user order not deterministic: %v", plays)
	}
}

func TestNear(t *testing.T) {
	plays := []Play{
		{Start: 100, End: 120}, // inside
		{Start: 30, End: 35},   // far before
		{Start: 139, End: 150}, // clips the window edge
		{Start: 300, End: 310}, // far after
	}
	got := Near(plays, 100, 40) // window [60, 140]
	if len(got) != 2 {
		t.Fatalf("Near = %v, want 2 plays", got)
	}
	if got[0].Start != 100 || got[1].Start != 139 {
		t.Errorf("Near kept wrong plays: %v", got)
	}
}

func TestStartsEnds(t *testing.T) {
	plays := []Play{{Start: 1, End: 2}, {Start: 3, End: 4}}
	s, e := Starts(plays), Ends(plays)
	if s[0] != 1 || s[1] != 3 || e[0] != 2 || e[1] != 4 {
		t.Errorf("Starts/Ends = %v / %v", s, e)
	}
}

// Property: every play produced by Sessionize has positive duration and
// plays from one user never overlap in production order.
func TestSessionizeInvariants(t *testing.T) {
	f := func(raw []uint8) bool {
		var events []Event
		for i, b := range raw {
			events = append(events, Event{
				User: "u",
				Seq:  i,
				Type: EventType(b % 4),
				Pos:  float64(b),
			})
		}
		for _, p := range Sessionize(events) {
			if p.Duration() <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventTypeString(t *testing.T) {
	if EventPlay.String() != "play" || EventSeek.String() != "seek" {
		t.Error("EventType String wrong")
	}
	if EventType(9).String() == "" {
		t.Error("unknown EventType should still render")
	}
}
