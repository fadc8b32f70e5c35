package chat

import (
	"bytes"
	"strings"
	"testing"
)

// The chat codecs parse attacker-controlled bytes (crawled logs, uploaded
// exports, WAL-replayed snapshots). These fuzz targets pin the contract
// the durable-persistence layer depends on: malformed input must produce
// an error, never a panic — and accepted input must round-trip losslessly
// through the writer.

func FuzzReadJSONL(f *testing.F) {
	f.Add([]byte(`{"time":1,"user":"a","text":"gg"}` + "\n"))
	f.Add([]byte(`{"time":1e309}`))
	f.Add([]byte("\n\n"))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{"time":3,"user":"碧","text":"すごい 👍"}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		log, err := ReadJSONL(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must survive a write/read round trip with the
		// same message count.
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, log); err != nil {
			t.Fatalf("accepted log failed to re-encode: %v", err)
		}
		again, err := ReadJSONL(&buf)
		if err != nil {
			t.Fatalf("re-encoded log failed to parse: %v", err)
		}
		if again.Len() != log.Len() {
			t.Fatalf("round trip changed length: %d -> %d", log.Len(), again.Len())
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
// path's fast message decoder: on every input, UnmarshalMessageJSON must
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
		fast, std := prior, prior
		fastErr := UnmarshalMessageJSON(data, &fast)
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
