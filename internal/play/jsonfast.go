package play

import "lightor/internal/jsonscan"

// This file is the JSON codec of interaction events, on the interaction
// endpoint and in WAL replay — the counterpart of chat.AppendMessagesJSON:
// a reflection-free parser for the exact shape player clients send and
// json.Marshal writes — an array of {"user","seq","type","pos"} objects,
// walked with jsonscan.Array and jsonscan.Object — with encoding/json as
// the fallback oracle for anything unusual (escape sequences, case-folded
// or unknown keys, fractional or exponent integers, invalid UTF-8). The
// fast path either produces a result bit-identical to the stdlib's or
// refuses; FuzzAppendEventsJSON enforces the equivalence differentially.
//
// The input is copied to a string once and every decoded User is a
// substring of the copy, so a body costs one allocation however many events
// it holds (and the caller's buffer can be reused at once).

// AppendEventsJSON parses one JSON array of event objects from the start of
// body (surrounding whitespace tolerated), appending the decoded events to
// dst. next is the offset just past the array's closing bracket — callers
// matching json.Decoder's first-value semantics ignore what follows. ok
// reports whether the fast path handled the input; on false the caller must
// fall back to encoding/json (dst's appended prefix is then meaningless) —
// the input may still be perfectly valid JSON, just outside the fast shape.
func AppendEventsJSON(dst []Event, body []byte) (out []Event, next int, ok bool) {
	return ScanEventsJSON(dst, string(body), 0)
}

// ScanEventsJSON is AppendEventsJSON on a string, starting at offset i: the
// form for an event array nested in a larger document (a WAL record), whose
// copy the caller has already made. Every decoded User is a substring of
// data. A key that repeats overwrites, as in the stdlib.
func ScanEventsJSON(dst []Event, data string, i int) (out []Event, next int, ok bool) {
	next, ok = jsonscan.Array(data, jsonscan.SkipSpace(data, i), func(i int) (int, bool) {
		var e Event
		next, ok := jsonscan.Object(data, i, func(key string, i int) (next int, ok bool) {
			switch key {
			case "user":
				e.User, next, ok = jsonscan.String(data, i)
			case "seq":
				e.Seq, next, ok = jsonscan.Int(data, i)
			case "type":
				var t int
				t, next, ok = jsonscan.Int(data, i)
				e.Type = EventType(t)
			case "pos":
				e.Pos, next, ok = jsonscan.Float(data, i)
			}
			// ok is still false for an unknown (or case-folded) key: the
			// stdlib has matching rules the fast path must not re-implement.
			return next, ok
		})
		dst = append(dst, e)
		return next, ok
	})
	return dst, next, ok
}
