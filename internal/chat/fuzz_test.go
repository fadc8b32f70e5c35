package chat

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// The chat codecs parse attacker-controlled bytes (crawled logs, uploaded
// exports, WAL-replayed snapshots). These fuzz targets pin the contract
// the durable-persistence layer depends on: malformed input must produce
// an error, never a panic — and accepted input must round-trip losslessly
// through the writer.

// FuzzReadJSONL is differential: ReadJSONL must accept and reject what
// readJSONLReference does, with the same error, and decode the same
// messages in the same order. Accepted input must also survive a
// write/read round trip.
func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"time":1,"user":"a","text":"gg"}` + "\n"))
	f.Add([]byte(`{"time":1e309}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"time":3,"user":"碧","text":"すごい 👍"}` + "\n"))
	f.Add([]byte("{\"time\":2,\"user\":\"a\"}\r\n{\"time\":1}\r\n"))
	f.Add([]byte("\n{\"time\":1}\n\n\n{\"time\":0}\n\r\n"))
	f.Add([]byte(`{"time":1,"text":"no final newline"}`))
	f.Add([]byte(`{"time":1,"text":"esc\"aped\u00e9\n"}` + "\n"))
	f.Add([]byte(`{"time":1,"time":2,"user":"dup"}` + "\n"))
	f.Add([]byte("{\"time\":5,\"user\":\"a\"}\n{\"time\":5,\"user\":\"b\"}\n{\"time\":-0,\"user\":\"c\"}\n{\"time\":0,\"user\":\"d\"}\n{\"time\":5,\"user\":\"e\"}\n"))
	f.Add([]byte("{\"time\":1}\nnull\n{\"time\":2}\n{bad\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadJSONL(bytes.NewReader(data))
		want, wantErr := readJSONLReference(bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("ReadJSONL(%q) err = %v, reference err = %v", data, err, wantErr)
		}
		if err != nil {
			return
		}
		if !sameMessages(log.Messages(), want) {
			t.Fatalf("ReadJSONL(%q) = %+v, reference = %+v", data, log.Messages(), want)
		}
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, log); err != nil {
			t.Fatalf("accepted log failed to re-encode: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded log failed to parse: %v", err)
		}
		if !sameMessages(again.Messages(), log.Messages()) {
			t.Fatalf("round trip changed %+v into %+v", log.Messages(), again.Messages())
		}
	})
}

// FuzzWriteJSONL: WriteJSONL must write exactly the bytes json.Encoder
// writes for the same messages, and fail where it fails (NaN, ±Inf).
func FuzzWriteJSONL(f *testing.F) {
	f.Add(12.5, "viewer1", "gg wp", 3.0, "b", "x")
	// One character to escape per message, so each escape rule is
	// checked on its own.
	f.Add(1.0, "<3", "gg", 2.0, "u", "a&b")
	f.Add(1.0, "u", "x>y", 2.0, "\"q\"", "")
	f.Add(1.0, "back\\slash", "", 1.0, "bad \xff byte", "")
	f.Add(1.0, "", "line\u2028sep", 1.0, "", "para\u2029sep")
	f.Add(math.Copysign(0, -1), "neg", "zero", 0.0, "tab\t", "ctl\x01\x7f")
	f.Add(1e-7, "small", "e-7", 1e21, "big", "e+21")
	f.Add(1e-6, "edge", "f", 999999999999999999999.0, "edge", "f")
	f.Add(math.NaN(), "nan", "", 1.0, "", "")
	f.Add(1.0, "", "", math.Inf(-1), "inf", "")
	f.Add(3.0, "碧", "すごい 👍", -2.5, "u", "v")
	f.Fuzz(func(t *testing.T, t1 float64, u1, x1 string, t2 float64, u2, x2 string) {
		// NewLog would reorder the two; the writer is checked on this order.
		l := &Log{messages: []Message{{Time: t1, User: u1, Text: x1}, {Time: t2, User: u2, Text: x2}}}
		var got, want bytes.Buffer
		err := WriteJSONL(&got, l)
		enc := json.NewEncoder(&want)
		var wantErr error
		for _, m := range l.Messages() {
			if wantErr = enc.Encode(m); wantErr != nil {
				break
			}
		}
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("WriteJSONL(%+v) err = %v, json.Encoder err = %v", l.Messages(), err, wantErr)
		}
		if err == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("WriteJSONL(%+v) wrote\n%q\njson.Encoder writes\n%q", l.Messages(), got.Bytes(), want.Bytes())
		}
	})
}

func FuzzReadIRCText(f *testing.F) {
	f.Add("[0:01:23] <someuser> first blood!\n")
	f.Add("[1:02:03.450] <other_user> what a play\n")
	f.Add("[99:99:99] <u> out of range?\n")
	f.Add("garbage\n")
	f.Add("")
	f.Fuzz(func(t *testing.T, data string) {
		_, _ = ReadIRCText(strings.NewReader(data)) // must never panic
	})
}

// FuzzUnmarshalMessageJSON is the differential oracle for the ingest hot
// path's fast message decoder: on every input, decodeMessage must
// agree with encoding/json — same accept/reject decision, same decoded
// value, same merge-into-existing-fields semantics — because the fast
// path's whole contract is "indistinguishable from the stdlib, minus the
// reflection".
func FuzzUnmarshalMessageJSON(f *testing.F) {
	f.Add([]byte(`{"time":12.5,"user":"v","text":"gg wp"}`))
	f.Add([]byte(`{"text":"line\nbreak","time":1}`))
	f.Add([]byte(`{"Time":4,"unknown":true}`))
	f.Add([]byte(`{"time":01}`))
	f.Add([]byte(`null`))
	f.Add([]byte("{\"text\":\"bad \xff utf8\"}"))
	f.Fuzz(func(t *testing.T, data []byte) {
		prior := Message{Time: -7, User: "pu", Text: "pt"}
		std := prior
		fast, fastErr := decodeMessage(string(data), prior)
		stdErr := jsonUnmarshalMessage(data, &std)
		if (fastErr == nil) != (stdErr == nil) {
			t.Fatalf("accept/reject mismatch on %q: fast=%v std=%v", data, fastErr, stdErr)
		}
		if fastErr == nil && fast != std {
			t.Fatalf("value mismatch on %q: fast=%+v std=%+v", data, fast, std)
		}
	})
}

// FuzzAppendMessagesJSON: whenever the array fast path accepts a body, the
// stdlib must also accept it and produce the identical message slice; the
// fast path may bail on valid JSON (the caller re-decodes) but must never
// accept what the stdlib rejects or decode differently.
func FuzzAppendMessagesJSON(f *testing.F) {
	f.Add([]byte(`[{"time":1,"user":"a","text":"gg"},{"time":2}]`))
	f.Add([]byte(`[]`))
	f.Add([]byte(`[{"time":1},]`))
	f.Add([]byte(`[{"text":"esc\t"}]`))
	f.Add([]byte("[{\"text\":\"\xf0\x9f\x8e\x89\"}]"))
	f.Fuzz(func(t *testing.T, data []byte) {
		got, next, ok := AppendMessagesJSON(nil, data)
		if !ok {
			return
		}
		if next <= 0 || next > len(data) {
			t.Fatalf("accepted %q with bad next offset %d", data, next)
		}
		// Reference semantics: json.Decoder reading the FIRST value
		// (trailing bytes ignored) — exactly what the live endpoint does.
		var want []Message
		if err := jsonDecodeFirstMessages(data, &want); err != nil {
			t.Fatalf("fast path accepted %q but stdlib rejects: %v", data, err)
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
