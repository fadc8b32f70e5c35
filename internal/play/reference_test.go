package play

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"testing"
)

// referenceSessionize is Sessionize as it was written before the one-pass
// version in play.go replaced it — a slice of events per user in a map, a
// stable sort of every group — kept as the reference the new one is compared
// with.
func referenceSessionize(events []Event) []Play {
	byUser := map[string][]Event{}
	var users []string
	for _, e := range events {
		if _, ok := byUser[e.User]; !ok {
			users = append(users, e.User)
		}
		byUser[e.User] = append(byUser[e.User], e)
	}
	sort.Strings(users)

	var plays []Play
	for _, u := range users {
		evs := byUser[u]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].Seq < evs[j].Seq })
		playing := false
		var start float64
		for _, e := range evs {
			switch e.Type {
			case EventPlay:
				if !playing {
					playing = true
					start = e.Pos
				}
			case EventPause, EventSeek, EventStop:
				if playing && e.Pos > start {
					plays = append(plays, Play{User: u, Start: start, End: e.Pos})
				}
				playing = false
			}
		}
	}
	return plays
}

// vodRefineBody is one POST /api/interactions body of the vod-refine
// workload (bench/inputs, seed 20200420, first video, first body).
func vodRefineBody(t testing.TB) []byte {
	t.Helper()
	body, err := os.ReadFile("testdata/vod_refine_post.json")
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// fuzzEvents reads events off fuzz bytes, three per event: few users (low
// nibble), small Seqs that collide and go backwards (high nibble), types past
// the known four, positions on a coarse grid.
func fuzzEvents(data []byte) []Event {
	var events []Event
	for i := 0; i+2 < len(data); i += 3 {
		events = append(events, Event{
			User: fmt.Sprintf("u%d", data[i]&0x0f%5),
			Seq:  int(data[i]>>4) - 4,
			Type: EventType(data[i+1] % 6),
			Pos:  float64(data[i+2] % 32),
		})
	}
	return events
}

// eventBytes is fuzzEvents' inverse, near enough to seed the corpus from
// recorded events.
func eventBytes(events []Event) []byte {
	users := map[string]int{}
	var data []byte
	for _, e := range events {
		if _, ok := users[e.User]; !ok {
			users[e.User] = len(users)
		}
		data = append(data, byte(users[e.User]%5|(e.Seq+4)<<4), byte(e.Type), byte(int(e.Pos)%32))
	}
	return data
}

// FuzzSessionize: the one-pass Sessionize returns the reference's plays, in
// its order, and leaves its input as it found it.
func FuzzSessionize(f *testing.F) {
	var recorded []Event
	if err := json.Unmarshal(vodRefineBody(f), &recorded); err != nil {
		f.Fatal(err)
	}
	f.Add(eventBytes(recorded))
	f.Add([]byte{0x00, 0, 1, 0x10, 1, 9, 0x21, 0, 3, 0x11, 3, 7}) // two users interleaved
	f.Add([]byte{0x30, 1, 9, 0x10, 0, 2, 0x10, 0, 4, 0x00, 5, 1}) // Seq backwards, repeated Play, unknown type
	f.Fuzz(func(t *testing.T, data []byte) {
		checkSessionize(t, fuzzEvents(data))
	})
}

// checkSessionize compares Sessionize with the reference on one input.
func checkSessionize(t *testing.T, events []Event) {
	t.Helper()
	input := append([]Event(nil), events...)
	got, want := Sessionize(events), referenceSessionize(input)
	if len(got) != len(want) {
		t.Fatalf("events %+v:\n got %+v\nwant %+v", input, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("events %+v: play %d = %+v, want %+v", input, i, got[i], want[i])
		}
	}
	for i := range input {
		if events[i] != input[i] {
			t.Fatalf("Sessionize modified its input at %d: %+v, was %+v", i, events[i], input[i])
		}
	}
}

// TestSessionizeRecordedBody is plain `go test` coverage of the counting
// sort and of the sort-only-when-out-of-order branch: the recorded
// vod-refine body, a shuffled and Seq-colliding variant of it, and no events.
func TestSessionizeRecordedBody(t *testing.T) {
	var events []Event
	if err := json.Unmarshal(vodRefineBody(t), &events); err != nil {
		t.Fatal(err)
	}
	if len(Sessionize(events)) == 0 {
		t.Fatal("the recorded body sessionizes to nothing")
	}
	shuffled := append([]Event(nil), events...)
	for i := range shuffled {
		j := (i * 37) % len(shuffled)
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		shuffled[i].Seq /= 2
	}
	for _, in := range [][]Event{events, shuffled, nil} {
		checkSessionize(t, in)
	}
}

// decodeFirstEvents is the reference AppendEventsJSON must agree with:
// json.Decoder reading the FIRST value (trailing bytes ignored), which is
// what the interaction endpoint falls back to. It also returns how many
// bytes that value took.
func decodeFirstEvents(data []byte) ([]Event, int, error) {
	var events []Event
	dec := json.NewDecoder(bytes.NewReader(data))
	err := dec.Decode(&events)
	return events, int(dec.InputOffset()), err
}

// FuzzAppendEventsJSON: whenever the fast path accepts a body, encoding/json
// accepts it too, decodes the identical events and consumes the same bytes;
// the fast path may bail on valid JSON (the caller re-decodes) but never
// accepts what the stdlib rejects.
func FuzzAppendEventsJSON(f *testing.F) {
	f.Add(vodRefineBody(f))
	f.Add([]byte(`[{"user":"a","seq":1,"type":2,"pos":1.5},{"seq":-0,"pos":-0}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"seq":1},]`))
	f.Add([]byte(`[{"seq":1.0}]`))
	f.Add([]byte(`[{"seq":1e2,"type":01}]`))
	f.Add([]byte(`[{"seq":9223372036854775808}]`))
	f.Add([]byte(`[{"pos":1e999}]`))
	f.Add([]byte(`[{"user":"esc\t"}] trailing`))
	f.Add([]byte("[{\"user\":\"\xf0\x9f\x8e\x89\",\"user\":\"bad \xff\"}]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, next, ok := AppendEventsJSON(nil, data)
		if !ok {
			return
		}
		want, consumed, err := decodeFirstEvents(data)
		if err != nil {
			t.Fatalf("fast path accepted %q but stdlib rejects: %v", data, err)
		}
		if next != consumed {
			t.Fatalf("fast path consumed %d bytes of %q, stdlib %d", next, data, consumed)
		}
		if len(got) != len(want) {
			t.Fatalf("length mismatch on %q: fast=%d std=%d", data, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("element %d mismatch on %q: fast=%+v std=%+v", i, data, got[i], want[i])
			}
		}
	})
}

// TestAppendEventsJSONDifferential checks the fast path against the stdlib
// on representative bodies: the shapes it must take itself, and the ones it
// must hand over.
func TestAppendEventsJSONDifferential(t *testing.T) {
	accept := []string{
		`[]`,
		` [ ] `,
		string(vodRefineBody(t)),
		`[{"user":"a","seq":1,"type":2,"pos":10.5}]`,
		`[{"seq":1},{"pos":2e3,"user":"b"},{"type":7}]`,
		"\n[ {\"seq\": -1} ,\t{\"pos\": -0.0} ]\n",
		`[{"user":"ユーザー"}]`,
		`[{}]`,
		`[{"seq":1,"seq":2}]`,
		`[{"seq":5}] trailing`,
	}
	for _, c := range accept {
		got, next, ok := AppendEventsJSON(nil, []byte(c))
		if !ok {
			t.Errorf("AppendEventsJSON(%.60q) bailed on a simple body", c)
			continue
		}
		want, consumed, err := decodeFirstEvents([]byte(c))
		if err != nil {
			t.Fatalf("stdlib rejected %.60q: %v", c, err)
		}
		if next != consumed || c[next-1] != ']' {
			t.Errorf("AppendEventsJSON(%.60q) next = %d, stdlib consumed %d", c, next, consumed)
		}
		if len(got) != len(want) {
			t.Fatalf("AppendEventsJSON(%.60q) = %d events, want %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("AppendEventsJSON(%.60q)[%d] = %+v, want %+v", c, i, got[i], want[i])
			}
		}
	}
	bail := []string{
		``, `{}`, `null`, `[`, `[}`, `[{"seq":1},]`, `[{"seq":1}`, `[1,2]`,
		`[{"user":"a\nb"}]`, `[{"seq":1,"extra":2}]`, `[{"Seq":1}]`,
		`[{"seq":1.0}]`, `[{"seq":1e2}]`, `[{"seq":01}]`, `[{"seq":-}]`, `[{"type":"play"}]`,
		`[{"seq":9223372036854775808}]`, `[{"pos":1e999}]`, `[{"pos":1.}]`, `[{"user":null}]`,
		`[null]`, `[[{"seq":1}]]`,
	}
	for _, c := range bail {
		if _, _, ok := AppendEventsJSON(nil, []byte(c)); ok {
			t.Errorf("AppendEventsJSON(%q) accepted; must defer to stdlib", c)
		}
	}
	// Appending preserves dst's existing prefix, and no decoded User aliases
	// the caller's buffer — the endpoint refills it with the next request.
	body := []byte(`[{"user":"viewer","seq":1}]`)
	out, _, ok := AppendEventsJSON([]Event{{User: "keep", Seq: 99}}, body)
	clear(body)
	if !ok || len(out) != 2 || out[0].User != "keep" || out[1] != (Event{User: "viewer", Seq: 1}) {
		t.Fatalf("append semantics broken: %+v ok=%v", out, ok)
	}
}
