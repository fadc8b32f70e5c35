// Package play models viewer interaction data: raw player events (play,
// pause, seek) and the play records the Highlight Extractor consumes.
// A play record ⟨user, play(s, e)⟩ means the user played the video from
// position s to position e without interruption (Section V-A of the paper).
package play

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Play is one uninterrupted viewing span by one user.
type Play struct {
	User  string  `json:"user"`
	Start float64 `json:"start"` // video position, seconds
	End   float64 `json:"end"`
}

// Duration returns the length of the play in seconds.
func (p Play) Duration() float64 { return p.End - p.Start }

// Overlaps reports whether two plays share any span. Touching endpoints
// count as overlap, which is what the extractor's outlier graph wants: two
// viewers whose plays abut are watching the same thing.
func (p Play) Overlaps(o Play) bool {
	return p.Start <= o.End && o.Start <= p.End
}

// Validate returns an error if the play is inverted or negative.
func (p Play) Validate() error {
	if p.End < p.Start {
		return fmt.Errorf("play: inverted span [%g, %g]", p.Start, p.End)
	}
	if p.Start < 0 {
		return fmt.Errorf("play: negative start %g", p.Start)
	}
	return nil
}

// EventType enumerates raw player interactions.
type EventType int

const (
	// EventPlay starts playback at Pos.
	EventPlay EventType = iota
	// EventPause stops playback at Pos.
	EventPause
	// EventSeek jumps from the current position to Pos. If playback was
	// running, the span up to the seek origin becomes a play record.
	EventSeek
	// EventStop ends the session at Pos (tab closed, video ended).
	EventStop
)

// String implements fmt.Stringer for diagnostics.
func (t EventType) String() string {
	switch t {
	case EventPlay:
		return "play"
	case EventPause:
		return "pause"
	case EventSeek:
		return "seek"
	case EventStop:
		return "stop"
	default:
		return fmt.Sprintf("EventType(%d)", int(t))
	}
}

// Event is one raw player interaction from one user's session. Seq orders
// events within a session (wall-clock arrival order).
type Event struct {
	User string    `json:"user"`
	Seq  int       `json:"seq"`
	Type EventType `json:"type"`
	Pos  float64   `json:"pos"` // video position the event refers to
}

// Sessionize converts raw events into play records. Events are grouped per
// user and ordered by Seq; a play span opens at EventPlay and closes at the
// next Pause/Seek/Stop. Dangling opens (no terminating event) are dropped —
// we cannot know where the viewer stopped watching. Zero-length spans are
// dropped too; they carry no highlight evidence. Plays come out by user in
// lexical order, each user's in Seq order (arrival order among equal Seqs);
// the result is nil when there are none. events is not modified.
func Sessionize(events []Event) []Play {
	// Intern users to dense ids in order of first appearance, counting each
	// user's events.
	ids := make(map[string]int32)
	var users []string
	var counts []int
	uid := make([]int32, len(events))
	for i := range events {
		// A session's events arrive together: most events repeat the
		// previous one's user and skip the map.
		if i > 0 && events[i].User == events[i-1].User {
			uid[i] = uid[i-1]
			counts[uid[i]]++
			continue
		}
		id, ok := ids[events[i].User]
		if !ok {
			id = int32(len(users))
			ids[events[i].User] = id
			users = append(users, events[i].User)
			counts = append(counts, 0)
		}
		uid[i] = id
		counts[id]++
	}
	// Lay the groups out in user order, then counting-sort the events into
	// them: within a group, arrival order survives.
	order := make([]int32, len(users))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(users[a], users[b]) })
	next := make([]int, len(users))
	at := 0
	for _, id := range order {
		next[id] = at
		at += counts[id]
	}
	grouped := make([]Event, len(events))
	for i := range events {
		grouped[next[uid[i]]] = events[i]
		next[uid[i]]++
	}

	// A play takes an opening and a closing event: at most one per two.
	plays := make([]Play, 0, len(events)/2)
	bySeq := func(a, b Event) int { return cmp.Compare(a.Seq, b.Seq) }
	at = 0
	for _, id := range order {
		evs := grouped[at : at+counts[id]]
		at += counts[id]
		// Clients send Seq ascending; only a group that arrived out of
		// order pays for the stable sort.
		if !slices.IsSortedFunc(evs, bySeq) {
			slices.SortStableFunc(evs, bySeq)
		}
		playing := false
		var start float64
		for _, e := range evs {
			switch e.Type {
			case EventPlay:
				// A second Play while playing is a no-op position update in
				// real players; treat it as continuing the current span.
				if !playing {
					playing = true
					start = e.Pos
				}
			case EventPause, EventSeek, EventStop:
				if playing && e.Pos > start {
					plays = append(plays, Play{User: users[id], Start: start, End: e.Pos})
				}
				playing = false
			}
		}
	}
	if len(plays) == 0 {
		return nil
	}
	return plays
}

// Near returns the plays that lie within [dot−delta, dot+delta], the
// association window around a red dot (Δ = 60 s by default in the paper).
// A play qualifies if any part of it intersects the window.
func Near(plays []Play, dot, delta float64) []Play {
	lo, hi := dot-delta, dot+delta
	var out []Play
	for _, p := range plays {
		if p.End >= lo && p.Start <= hi {
			out = append(out, p)
		}
	}
	return out
}

// Starts extracts the start positions of plays.
func Starts(plays []Play) []float64 {
	out := make([]float64, len(plays))
	for i, p := range plays {
		out[i] = p.Start
	}
	return out
}

// Ends extracts the end positions of plays.
func Ends(plays []Play) []float64 {
	out := make([]float64, len(plays))
	for i, p := range plays {
		out[i] = p.End
	}
	return out
}
