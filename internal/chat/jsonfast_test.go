package chat

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

// diffUnmarshal checks decodeMessage against encoding/json on one
// input: success/failure must agree, and on success the decoded values
// (and merge-into-existing semantics) must match exactly.
func diffUnmarshal(t *testing.T, data []byte) {
	t.Helper()
	prior := Message{Time: -123, User: "prior-user", Text: "prior-text"}
	std := prior
	fast, fastErr := decodeMessage(string(data), prior)
	stdErr := json.Unmarshal(data, &std)
	if (fastErr == nil) != (stdErr == nil) {
		t.Fatalf("decodeMessage(%q) err = %v, json.Unmarshal err = %v", data, fastErr, stdErr)
	}
	if fastErr == nil && fast != std {
		t.Fatalf("decodeMessage(%q) = %+v, json.Unmarshal = %+v", data, fast, std)
	}
}

func TestUnmarshalMessageJSONDifferential(t *testing.T) {
	cases := []string{
		// The hot wire shape.
		`{"time":12.5,"user":"viewer1","text":"gg wp"}`,
		`{"time":0,"user":"","text":""}`,
		`{"time":1e3,"user":"a","text":"b"}`,
		`{"time":-0.5,"user":"a","text":"b"}`,
		`{"time":1.25E-2,"user":"a","text":"b"}`,
		// Key order, missing keys, whitespace.
		`{"text":"first","time":3,"user":"u"}`,
		`{"time":7}`,
		`{}`,
		"  {\n\t\"time\": 9 , \"user\" : \"x\" } ",
		// Unicode (valid multi-byte must pass through unchanged).
		`{"time":1,"user":"ユーザー","text":"すごい！ 🎉"}`,
		// Escapes, duplicates, unknown and case-folded keys → fallback.
		`{"time":1,"text":"line\nbreak"}`,
		`{"time":1,"text":"quote\"inside"}`,
		`{"Time":4,"USER":"u"}`,
		`{"time":1,"extra":42,"text":"x"}`,
		`{"time":1,"time":2}`,
		`{"user":null}`,
		// Non-objects and malformed bodies.
		`null`,
		`42`,
		`"just a string"`,
		`[1,2]`,
		`{"time":}`,
		`{"time":1,}`,
		`{"time":01}`,
		`{"time":1.}`,
		`{"time":+1}`,
		`{"time":"5"}`,
		`{"time":1`,
		`{"time" 1}`,
		``,
		`{`,
		// Invalid UTF-8 in a string: stdlib coerces to U+FFFD; the fast
		// path must defer to it.
		"{\"time\":1,\"text\":\"bad \xff byte\"}",
	}
	for _, c := range cases {
		diffUnmarshal(t, []byte(c))
	}
}

func TestUnmarshalMessageJSONFastPathTaken(t *testing.T) {
	// Sanity that the common shape actually takes the fast path (the
	// differential test alone would pass even if everything fell back).
	m, next, ok := scanMessageObject(`{"time":12.5,"user":"v","text":"gg"}`, 0, Message{})
	if !ok || next != len(`{"time":12.5,"user":"v","text":"gg"}`) {
		t.Fatal("canonical wire shape did not take the fast path")
	}
	if m.Time != 12.5 || m.User != "v" || m.Text != "gg" {
		t.Fatalf("fast path decoded %+v", m)
	}
	// Round-trip through the writer's own encoding.
	data, err := json.Marshal(Message{Time: 3.25, User: "ユーザー", Text: "すごい"})
	if err != nil {
		t.Fatal(err)
	}
	rt, _, ok := scanMessageObject(string(data), 0, Message{})
	if !ok {
		t.Fatalf("marshal output %s did not take the fast path", data)
	}
	if rt != (Message{Time: 3.25, User: "ユーザー", Text: "すごい"}) {
		t.Fatalf("round trip = %+v", rt)
	}
}

// TestAppendMessagesJSONDifferential checks the array fast path against
// json.Unmarshal on representative bodies: when the fast path accepts, the
// result must equal the stdlib's; when it bails, the stdlib remains the
// arbiter (callers re-decode).
func TestAppendMessagesJSONDifferential(t *testing.T) {
	accept := []string{
		`[]`,
		` [ ] `,
		`[{"time":1,"user":"a","text":"x"}]`,
		`[{"time":1},{"time":2,"user":"b"},{"time":3,"text":"c"}]`,
		"\n[ {\"time\": 1} ,\t{\"time\": 2} ]\n",
		`[{"time":1,"user":"ユーザー","text":"🎉"}]`,
		`[{}]`,
		// Trailing bytes after the array: tolerated (json.Decoder
		// first-value semantics); next points past the bracket.
		`[{"time":1}] trailing`,
	}
	for _, c := range accept {
		got, next, ok := AppendMessagesJSON(nil, []byte(c))
		if !ok {
			t.Errorf("AppendMessagesJSON(%q) bailed on a simple body", c)
			continue
		}
		if next <= 0 || next > len(c) || c[next-1] != ']' {
			t.Errorf("AppendMessagesJSON(%q) next = %d, not just past the closing bracket", c, next)
		}
		var want []Message
		if err := json.NewDecoder(strings.NewReader(c)).Decode(&want); err != nil {
			t.Fatalf("stdlib rejected %q: %v", c, err)
		}
		if len(got) != len(want) {
			t.Fatalf("AppendMessagesJSON(%q) = %d msgs, want %d", c, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("AppendMessagesJSON(%q)[%d] = %+v, want %+v", c, i, got[i], want[i])
			}
		}
	}
	bail := []string{
		``, `{}`, `[`, `[}`, `[{"time":1},]`, `[{"time":1}`, `[1,2]`,
		`[{"esc":"a\nb"}]`, `[{"time":1,"extra":2}]`,
		`[null]`, `[[{"time":1}]]`,
	}
	for _, c := range bail {
		if _, _, ok := AppendMessagesJSON(nil, []byte(c)); ok {
			t.Errorf("AppendMessagesJSON(%q) accepted; must defer to stdlib", c)
		}
	}
	// Appending preserves dst's existing prefix.
	dst := []Message{{Time: 99, User: "keep"}}
	out, _, ok := AppendMessagesJSON(dst, []byte(`[{"time":1}]`))
	if !ok || len(out) != 2 || out[0].User != "keep" || out[1].Time != 1 {
		t.Fatalf("append semantics broken: %+v ok=%v", out, ok)
	}
}

// TestAppendMessagesJSONOneAllocation pins the decoder's memory contract:
// one allocation per body (the string every User and Text is cut from), not
// two per message, and no decoded field aliasing the caller's buffer — the
// live endpoint refills that buffer with the next request.
func TestAppendMessagesJSONOneAllocation(t *testing.T) {
	var body bytes.Buffer
	body.WriteByte('[')
	for i := 0; i < 64; i++ {
		if i > 0 {
			body.WriteByte(',')
		}
		fmt.Fprintf(&body, `{"time":%d.5,"user":"viewer%d","text":"what a play %d"}`, i, i, i)
	}
	body.WriteByte(']')
	data := body.Bytes()

	dst := make([]Message, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		if _, _, ok := AppendMessagesJSON(dst[:0], data); !ok {
			t.Fatal("canonical body did not take the fast path")
		}
	})
	if allocs != 1 {
		t.Errorf("decoding 64 messages took %.0f allocations, want 1", allocs)
	}

	msgs, _, _ := AppendMessagesJSON(nil, data)
	for i := range data {
		data[i] = 'X'
	}
	for i, m := range msgs {
		if want := fmt.Sprintf("viewer%d", i); m.User != want {
			t.Fatalf("message %d user = %q after the buffer was reused, want %q", i, m.User, want)
		}
		if want := fmt.Sprintf("what a play %d", i); m.Text != want {
			t.Fatalf("message %d text = %q after the buffer was reused, want %q", i, m.Text, want)
		}
	}
}

func BenchmarkUnmarshalMessageJSON(b *testing.B) {
	data := []byte(`{"time":125.5,"user":"viewer42","text":"LETS GOOO what a play"}`)
	b.Run("fast", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := decodeMessage(string(data), Message{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		var m Message
		for i := 0; i < b.N; i++ {
			if err := json.Unmarshal(data, &m); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// jsonUnmarshalMessage is the stdlib reference the fuzz target diffs
// against (a named indirection keeps the fuzz body readable).
func jsonUnmarshalMessage(data []byte, m *Message) error {
	return json.Unmarshal(data, m)
}

// jsonUnmarshalMessages is the stdlib array reference for the fuzz target.
func jsonUnmarshalMessages(data []byte, out *[]Message) error {
	return json.Unmarshal(data, out)
}

// jsonDecodeFirstMessages mirrors the live endpoint's fallback semantics:
// decode the first JSON value, ignore trailing bytes.
func jsonDecodeFirstMessages(data []byte, out *[]Message) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(out)
}
