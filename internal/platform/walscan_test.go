package platform

import (
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"unsafe"

	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/play"
)

func testEvents(n int) []play.Event {
	evs := make([]play.Event, n)
	for i := range evs {
		evs[i] = play.Event{User: fmt.Sprintf("viewer%d", i/6), Seq: i, Type: play.EventType(i % 4), Pos: 1000 + float64(i)*1.25}
	}
	return evs
}

func testChat(n int) []chat.Message {
	msgs := make([]chat.Message, n)
	for i := range msgs {
		msgs[i] = chat.Message{Time: float64(i) * 0.75, User: fmt.Sprintf("viewer%d", i%17), Text: fmt.Sprintf("what a play %d", i)}
	}
	return msgs
}

// walShapes are records as the write path marshals them.
func walShapes() map[string]walRecord {
	return map[string]walRecord{
		"put_video":            {Op: opPutVideo, Video: &videoSnapshot{ID: "dota2-c0v0", Duration: 3600, Chat: testChat(100)}},
		"put_video chatless":   {Op: opPutVideo, Video: &videoSnapshot{ID: "v", Duration: 1}},
		"put_video empty chat": {Op: opPutVideo, Video: &videoSnapshot{ID: "v", Duration: 1, Chat: []chat.Message{}}},
		"events":               {Op: opAppendEvents, ID: "dota2-c0v0", Events: testEvents(64)},
		"ckpt":                 {Op: opPutCkpt, Channel: "ch-3", State: []byte("detector state \x00\xff")},
		"del_ckpt":             {Op: opDelCkpt, Channel: "ch-3"},
	}
}

// TestScanWALRecordFastPath: the records the write path logs for videos,
// events and checkpoints take the fast path and decode to what
// json.Unmarshal makes of them (the differential fuzz target alone would
// pass if every record fell back).
func TestScanWALRecordFastPath(t *testing.T) {
	for name, rec := range walShapes() {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := scanWALRecord(string(payload))
		if !ok {
			t.Errorf("%s: %.80s did not take the fast path", name, payload)
			continue
		}
		var want walRecord
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: scanWALRecord = %+v, json.Unmarshal = %+v", name, got, want)
		}
	}
	// Records outside the fast shape go to json.Unmarshal.
	for _, rec := range []walRecord{
		{Op: opSetRefined, ID: "v", Dots: []core.RedDot{{Time: 5}}, Spans: []core.Interval{{Start: 1, End: 9}}},
		{Op: opPutVideo, Video: &videoSnapshot{ID: "v", RedDots: []core.RedDot{{Time: 5}}}},
		// json.Marshal writes "<3" as "\u003c3"; escapes are encoding/json's.
		{Op: opPutVideo, Video: &videoSnapshot{ID: "v", Chat: []chat.Message{{Time: 1, User: "a", Text: "<3"}}}},
	} {
		payload, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := scanWALRecord(string(payload)); ok {
			t.Errorf("%s took the fast path; it must defer to json.Unmarshal", payload)
		}
	}
}

// TestScanWALRecordPacksStrings: the strings a decoded record keeps lie end
// to end in one block, with none of the payload's JSON between them — the
// recovered state pins their bytes and nothing else.
func TestScanWALRecordPacksStrings(t *testing.T) {
	for _, name := range []string{"put_video", "events"} {
		payload, err := json.Marshal(walShapes()[name])
		if err != nil {
			t.Fatal(err)
		}
		rec, ok := scanWALRecord(string(payload))
		if !ok {
			t.Fatalf("%s did not take the fast path", name)
		}
		strs := []string{rec.ID}
		for _, e := range rec.Events {
			strs = append(strs, e.User)
		}
		if v := rec.Video; v != nil {
			strs = append(strs, v.ID)
			for _, m := range v.Chat {
				strs = append(strs, m.User, m.Text)
			}
		}
		strs = slices.DeleteFunc(strs, func(s string) bool { return s == "" }) // an empty string points anywhere
		for i := 1; i < len(strs); i++ {
			prev := unsafe.StringData(strs[i-1])
			if unsafe.StringData(strs[i]) != (*byte)(unsafe.Add(unsafe.Pointer(prev), len(strs[i-1]))) {
				t.Fatalf("%s: string %d (%q) does not follow string %d (%q) in one block", name, i, strs[i], i-1, strs[i-1])
			}
		}
	}
}

// TestDecodeWALRecordAllocs pins replay's decode cost: the payload copy, the
// block the kept strings are packed into and the growth of the record's
// slices — where json.Unmarshal pays per field (81 allocations for the
// 64-event record, 219 for the 100-message video).
func TestDecodeWALRecordAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	shapes := walShapes()
	for _, c := range []struct {
		shape string
		max   float64
	}{
		{"events", 10},
		{"put_video", 12},
	} {
		payload, err := json.Marshal(shapes[c.shape])
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if _, err := decodeWALRecord(payload); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > c.max {
			t.Errorf("decoding a %s record took %.0f allocations, want <= %.0f", c.shape, allocs, c.max)
		}
	}
}
