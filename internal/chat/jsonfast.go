package chat

import (
	"encoding/json"

	"lightor/internal/jsonscan"
)

// This file is the JSON codec of chat messages on the ingest hot path, in
// WAL replay and in JSON-lines logs: reflection-free parsers for the exact
// shapes live producers send and json.Marshal writes — one message object,
// or a whole array of them, walked with jsonscan.Object and jsonscan.Array
// — with encoding/json as the fallback oracle for anything unusual (escape
// sequences, case-folded or unknown keys, exotic number grammar, invalid
// UTF-8). The fast paths either produce a result
// bit-identical to the stdlib's or refuse, so callers get stdlib semantics
// at a fraction of the cost; FuzzUnmarshalMessageJSON and
// FuzzAppendMessagesJSON enforce the equivalence differentially.
//
// AppendMessagesJSON copies its body to a string once and scans that, as
// ReadJSONL does with a whole log: every decoded User and Text is a
// substring of the copy, so a body costs one allocation however many
// messages it holds (and the caller's buffer can be reused at once). The
// price is that the messages of one body share its lifetime — right for
// batches that are consumed together.

// decodeMessage decodes one JSON-encoded chat message (a line of a
// JSON-lines log) over base, as json.Unmarshal does into a Message holding
// base: the common shape parses in one reflection-free pass, and User and
// Text are then substrings of data; anything else falls back to
// encoding/json. It is the single-message form of the array codec the live
// endpoint runs (AppendMessagesJSON): both read an object with
// scanMessageObject, a jsonscan.Object walk with one case per field, and
// the differential fuzz target on this function is what pins its merge
// semantics against the stdlib's.
func decodeMessage(data string, base Message) (Message, error) {
	m, next, ok := scanMessageObject(data, jsonscan.SkipSpace(data, 0), base)
	if ok && jsonscan.SkipSpace(data, next) == len(data) {
		return m, nil
	}
	std := base // declared here: json.Unmarshal moves it to the heap
	err := json.Unmarshal([]byte(data), &std)
	return std, err
}

// AppendMessagesJSON parses one JSON array of message objects from the
// start of data (surrounding whitespace tolerated), appending the decoded
// messages to dst. next is the offset just past the array's closing
// bracket — callers wanting strict bodies check that only whitespace
// follows, while callers matching json.Decoder's first-value semantics
// ignore trailing bytes. ok reports whether the fast path handled the
// input; on false the caller must fall back to encoding/json (dst's
// appended prefix is then meaningless) — the input may still be perfectly
// valid JSON, just outside the fast shape.
func AppendMessagesJSON(dst []Message, body []byte) (out []Message, next int, ok bool) {
	return ScanMessagesJSON(dst, string(body), 0)
}

// ScanMessagesJSON is AppendMessagesJSON on a string, starting at offset i:
// the form for a message array nested in a larger document (a WAL record's
// video), whose copy the caller has already made. Every decoded User and
// Text is a substring of data.
func ScanMessagesJSON(dst []Message, data string, i int) (out []Message, next int, ok bool) {
	next, ok = jsonscan.Array(data, jsonscan.SkipSpace(data, i), func(i int) (int, bool) {
		m, next, ok := scanMessageObject(data, i, Message{})
		dst = append(dst, m)
		return next, ok
	})
	return dst, next, ok
}

// scanMessageObject parses one message object starting at data[i],
// merging into base (stdlib semantics: keys absent from the JSON leave
// the corresponding fields untouched). It returns false — deferring to
// encoding/json — whenever the input strays from the simple shape,
// including every case where the stdlib's semantics are subtle (escape
// sequences, invalid UTF-8 coercion, case-insensitive key matching,
// unknown fields, number edge grammar).
func scanMessageObject(data string, i int, base Message) (m Message, next int, ok bool) {
	next, ok = jsonscan.Object(data, i, func(key string, i int) (next int, ok bool) {
		switch key {
		case "time":
			base.Time, next, ok = jsonscan.Float(data, i)
		case "user":
			base.User, next, ok = jsonscan.String(data, i)
		case "text":
			base.Text, next, ok = jsonscan.String(data, i)
		}
		// ok is still false for an unknown (or case-folded) key: the
		// stdlib has matching rules the fast path must not re-implement.
		return next, ok
	})
	return base, next, ok
}
