package platform

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/play"
)

// decodeEvents runs one body through the interaction endpoint's parser.
func decodeEvents(in *arrayIngest[play.Event], body string) ([]play.Event, error) {
	return in.decode(strings.NewReader(body), play.AppendEventsJSON)
}

// TestEventIngestDecode covers the interaction body parser across its three
// paths — fast array parse, stdlib fallback, and rejection — plus the
// pooling hygiene: one instance serves many bodies, and no field from an
// earlier request may leak into a later one.
func TestEventIngestDecode(t *testing.T) {
	in := &arrayIngest[play.Event]{}

	events, err := decodeEvents(in, `[{"user":"a","seq":1,"type":2,"pos":10.5},{"user":"b","seq":2,"type":3,"pos":12}]`)
	if err != nil || len(events) != 2 || events[1] != (play.Event{User: "b", Seq: 2, Type: play.EventStop, Pos: 12}) {
		t.Fatalf("first decode = %+v, %v", events, err)
	}

	// Second body's elements omit fields the first body set: nothing stale
	// may bleed through, on the fast path or (escaped user) the fallback.
	for _, body := range []string{`[{"pos":3}]`, `[{"pos":3,"user":"\u0061"},{"pos":3}]`} {
		events, err = decodeEvents(in, body)
		if err != nil || len(events) == 0 {
			t.Fatalf("decode(%q) = %+v, %v", body, events, err)
		}
		if last := events[len(events)-1]; last != (play.Event{Pos: 3}) {
			t.Fatalf("decode(%q): stale fields leaked across requests: %+v", body, last)
		}
	}
	if events[0].User != "a" {
		t.Fatalf("fallback decoded %+v", events[0])
	}

	// Empty array, leading/trailing whitespace.
	for _, body := range []string{`[]`, "  [ ] \n", "\t[{\"seq\":9}]\n\n"} {
		if _, err := decodeEvents(in, body); err != nil {
			t.Fatalf("decode(%q): %v", body, err)
		}
	}

	// Non-array, truncated, wrongly typed and empty bodies: rejected, and
	// the instance still serves the next body.
	for _, body := range []string{`{"seq":1}`, `7`, `[{"seq":1}`, `[{"seq":`, `[{"seq":1.5}]`, `[{"user":7}]`, `[1]`, ``} {
		if _, err := decodeEvents(in, body); err == nil {
			t.Errorf("decode(%q) accepted", body)
		}
	}

	// Trailing bytes after the array are ignored — the endpoint's
	// historical json.Decoder first-value semantics, on both paths.
	for _, body := range []string{`[{"seq":5}]garbage`, `[{"seq":5,"user":"esc\t"}] trailing`} {
		events, err = decodeEvents(in, body)
		if err != nil || len(events) != 1 || events[0].Seq != 5 {
			t.Errorf("decode(%q) = %+v, %v; trailing bytes must be tolerated", body, events, err)
		}
	}
	in.release(&eventIngestPool)
}

// TestEventIngestPoolCycle exercises the real pool path under -race:
// concurrent decodes with interleaved fallback and malformed bodies must
// stay correct.
func TestEventIngestPoolCycle(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				in := eventIngestPool.Get().(*arrayIngest[play.Event])
				switch i % 7 {
				case 3:
					if _, err := decodeEvents(in, `[{"seq":1}`); err == nil {
						t.Error("malformed body accepted")
					}
				case 5:
					events, err := decodeEvents(in, `[{"seq":1,"user":"esc\t"}]`)
					if err != nil || len(events) != 1 || events[0].User != "esc\t" {
						t.Errorf("fallback = %+v, %v", events, err)
					}
				default:
					events, err := decodeEvents(in, `[{"seq":1,"user":"u","pos":4},{"seq":2}]`)
					if err != nil || len(events) != 2 || events[0].User != "u" || events[1] != (play.Event{Seq: 2}) {
						t.Errorf("decode = %+v, %v", events, err)
					}
				}
				in.release(&eventIngestPool)
			}
		}()
	}
	wg.Wait()
}

// TestInteractionsDecodeOneAlloc pins the interaction endpoint's decode
// cost: a 64-event body of the fast shape costs one allocation — the string
// copy of the body the Users point into — like chat's.
func TestInteractionsDecodeOneAlloc(t *testing.T) {
	var body bytes.Buffer
	body.WriteByte('[')
	for i := 0; i < 64; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"user":"viewer%d","seq":%d,"type":%d,"pos":%g}`, i/6, i, i%4, 1000+float64(i)*1.25)
	}
	body.WriteByte(']')
	in := &arrayIngest[play.Event]{}
	r := bytes.NewReader(nil)
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(body.Bytes())
		events, err := in.decode(r, play.AppendEventsJSON)
		if err != nil || len(events) != 64 {
			t.Fatalf("decode = %d events, %v", len(events), err)
		}
	})
	if allocs != 1 {
		t.Errorf("decoding a 64-event body costs %v allocations, want 1", allocs)
	}
}

// TestWriteJSONStatusPooledEncoder: repeated responses through the pooled
// encoder must each carry exactly one complete JSON body.
func TestWriteJSONStatusPooledEncoder(t *testing.T) {
	for i := 0; i < 50; i++ {
		rec := httptest.NewRecorder()
		writeJSONStatus(rec, 202, LiveIngestResponse{Channel: "ch", Accepted: i})
		if rec.Code != 202 {
			t.Fatalf("status = %d", rec.Code)
		}
		if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
			t.Fatalf("content-type = %q", ct)
		}
		want := `{"channel":"ch","accepted":` // prefix; Accepted varies
		if body := rec.Body.String(); !strings.HasPrefix(body, want) || strings.Count(body, "{") != 1 {
			t.Fatalf("body %d = %q", i, body)
		}
	}
	// Unencodable value: clean 500, not a torn 2xx.
	rec := httptest.NewRecorder()
	writeJSONStatus(rec, 200, map[string]any{"bad": func() {}})
	if rec.Code != 500 {
		t.Fatalf("unencodable value: status = %d, body = %q", rec.Code, rec.Body.String())
	}
}

// TestChatIngestDecode covers the live-chat body parser across its three
// paths — fast array parse, stdlib fallback, and rejection — plus the
// pooling hygiene: no field from an earlier body may survive into a later
// one, even across the fast/fallback boundary.
func TestChatIngestDecode(t *testing.T) {
	ci := &arrayIngest[chat.Message]{}

	msgs, err := decodeChat(ci, `[{"time":1,"user":"a","text":"gg"},{"time":2}]`)
	if err != nil || len(msgs) != 2 || msgs[0].Text != "gg" || msgs[1] != (chat.Message{Time: 2}) {
		t.Fatalf("fast path = %+v, %v", msgs, err)
	}

	// Escape sequence: outside the fast shape, must fall back to stdlib
	// and decode correctly — with no stale fields from the prior body.
	msgs, err = decodeChat(ci, `[{"time":3,"text":"line\nbreak"},{"time":4}]`)
	if err != nil || len(msgs) != 2 {
		t.Fatalf("fallback path = %+v, %v", msgs, err)
	}
	if msgs[0].Text != "line\nbreak" || msgs[0].User != "" {
		t.Fatalf("fallback decoded %+v", msgs[0])
	}
	if msgs[1] != (chat.Message{Time: 4}) {
		t.Fatalf("stale fields leaked into fallback slot: %+v", msgs[1])
	}

	// After a fallback, the fast path must again be clean.
	msgs, err = decodeChat(ci, `[{"time":9}]`)
	if err != nil || len(msgs) != 1 || msgs[0] != (chat.Message{Time: 9}) {
		t.Fatalf("post-fallback fast path = %+v, %v", msgs, err)
	}

	// Malformed bodies error through the stdlib arbiter.
	for _, body := range []string{``, `{"time":1}`, `[{"time":1}`, `[1]`} {
		if _, err := decodeChat(ci, body); err == nil {
			t.Errorf("decode(%q) accepted", body)
		}
	}

	// Trailing bytes after the array are ignored — the endpoint's
	// historical json.Decoder first-value semantics, on both the fast path
	// and the fallback.
	for _, body := range []string{`[{"time":20}] trailing`, `[{"time":21,"text":"esc\t"}] trailing`} {
		msgs, err := decodeChat(ci, body)
		if err != nil || len(msgs) != 1 {
			t.Errorf("decode(%q) = %+v, %v; trailing bytes must be tolerated", body, msgs, err)
		}
	}

	// And a clean body still decodes after errors.
	if msgs, err := decodeChat(ci, `[{"time":10,"user":"z"}]`); err != nil || len(msgs) != 1 || msgs[0].User != "z" {
		t.Fatalf("post-error decode = %+v, %v", msgs, err)
	}
	ci.release(&chatIngestPool)
}

// decodeChat runs one body through the live-chat endpoint's parser.
func decodeChat(in *arrayIngest[chat.Message], body string) ([]chat.Message, error) {
	return in.decode(strings.NewReader(body), chat.AppendMessagesJSON)
}

// TestChatIngestPoolCycle hammers the real pool under -race with mixed
// clean/fallback/malformed bodies.
func TestChatIngestPoolCycle(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ci := chatIngestPool.Get().(*arrayIngest[chat.Message])
				switch i % 3 {
				case 0:
					msgs, err := decodeChat(ci, `[{"time":1,"text":"a"},{"time":2}]`)
					if err != nil || len(msgs) != 2 || msgs[1].Text != "" {
						t.Errorf("fast = %+v, %v", msgs, err)
					}
				case 1:
					msgs, err := decodeChat(ci, `[{"time":1,"text":"esc\t"}]`)
					if err != nil || len(msgs) != 1 || msgs[0].Text != "esc\t" {
						t.Errorf("fallback = %+v, %v", msgs, err)
					}
				case 2:
					if _, err := decodeChat(ci, `[{"time":`); err == nil {
						t.Error("malformed accepted")
					}
				}
				ci.release(&chatIngestPool)
			}
		}()
	}
	wg.Wait()
}

// TestIngestBodyLimit: the two public write endpoints refuse a body one
// byte over maxIngestBody with 413 and ingest nothing — the owner-side twin
// of TestClusterForwardBodyTooLarge — while a body of exactly the limit is
// still parsed.
func TestIngestBodyLimit(t *testing.T) {
	init, target := trainedInitializer(t)
	store := NewStore()
	if err := store.PutVideo(VideoRecord{ID: target.Video.ID, Duration: target.Video.Duration, Chat: target.Chat.Log}); err != nil {
		t.Fatal(err)
	}
	svc := &Service{Store: store, Engine: testEngine(t, init)}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const channel = "big-chan"
	cases := []struct {
		name, path, elem string
		wantOK           int
		ingested         func() int
	}{
		{"live chat", "/api/live/chat?channel=" + channel, `{"time":1,"user":"u","text":"gg"}`, http.StatusAccepted,
			func() int {
				if _, ok := svc.Engine.Sessions().Get(channel); ok {
					return 1
				}
				return 0
			}},
		{"interactions", "/api/interactions?video=" + target.Video.ID, `{"user":"u","seq":1,"type":2,"pos":10}`, http.StatusNoContent,
			func() int { return len(store.Events(target.Video.ID)) }},
	}
	for _, tc := range cases {
		// One element, then whitespace: body[:maxIngestBody] is a complete
		// array of exactly the limit, the full slice is one byte over.
		body := bytes.Repeat([]byte(" "), maxIngestBody+1)
		copy(body, "["+tc.elem)
		body[maxIngestBody-1] = ']'

		post := func(b []byte) int {
			t.Helper()
			resp, err := http.Post(srv.URL+tc.path, "application/json", bytes.NewReader(b))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return resp.StatusCode
		}
		if got := post(body); got != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: body of limit+1 = %d, want 413", tc.name, got)
		}
		if n := tc.ingested(); n != 0 {
			t.Errorf("%s: an oversized body was ingested (%d)", tc.name, n)
		}
		if got := post(body[:maxIngestBody]); got != tc.wantOK {
			t.Errorf("%s: body of exactly the limit = %d, want %d", tc.name, got, tc.wantOK)
		}
		if n := tc.ingested(); n != 1 {
			t.Errorf("%s: a body of exactly the limit ingested %d, want 1", tc.name, n)
		}
	}
}
