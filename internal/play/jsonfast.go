package play

import "lightor/internal/jsonscan"

// This file is the JSON codec of interaction events, on the interaction
// endpoint and in WAL replay — the counterpart of chat.AppendMessagesJSON:
// a reflection-free parser for the exact shape player clients send and
// json.Marshal writes — an array of {"user","seq","type","pos"} objects —
// with encoding/json as the fallback oracle for anything unusual (escape
// sequences, case-folded or unknown keys, fractional or exponent integers,
// invalid UTF-8). The fast path either produces a result bit-identical to
// the stdlib's or refuses; FuzzAppendEventsJSON enforces the equivalence
// differentially.
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
// data.
func ScanEventsJSON(dst []Event, data string, i int) (out []Event, next int, ok bool) {
	i = jsonscan.SkipSpace(data, i)
	if i >= len(data) || data[i] != '[' {
		return dst, 0, false
	}
	i = jsonscan.SkipSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return dst, i + 1, true
	}
	for {
		e, eNext, eok := scanEventObject(data, i)
		if !eok {
			return dst, 0, false
		}
		dst = append(dst, e)
		i = jsonscan.SkipSpace(data, eNext)
		if i >= len(data) {
			return dst, 0, false
		}
		switch data[i] {
		case ',':
			i = jsonscan.SkipSpace(data, i+1)
		case ']':
			return dst, i + 1, true
		default:
			return dst, 0, false
		}
	}
}

// scanEventObject parses one event object starting at data[i]. A key that
// repeats overwrites, as in the stdlib; it returns false — deferring to
// encoding/json — whenever the input strays from the simple shape.
func scanEventObject(data string, i int) (e Event, next int, ok bool) {
	if i >= len(data) || data[i] != '{' {
		return e, 0, false
	}
	i = jsonscan.SkipSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return e, i + 1, true
	}
	for {
		key, kn, kok := jsonscan.String(data, i)
		if !kok {
			return e, 0, false
		}
		i = jsonscan.SkipSpace(data, kn)
		if i >= len(data) || data[i] != ':' {
			return e, 0, false
		}
		i = jsonscan.SkipSpace(data, i+1)
		var vok bool
		switch key {
		case "user":
			e.User, i, vok = jsonscan.String(data, i)
		case "seq":
			e.Seq, i, vok = jsonscan.Int(data, i)
		case "type":
			var t int
			t, i, vok = jsonscan.Int(data, i)
			e.Type = EventType(t)
		case "pos":
			e.Pos, i, vok = jsonscan.Float(data, i)
		}
		// vok is still false for an unknown (or case-folded) key: the
		// stdlib has matching rules the fast path must not re-implement.
		if !vok {
			return e, 0, false
		}
		i = jsonscan.SkipSpace(data, i)
		if i >= len(data) {
			return e, 0, false
		}
		switch data[i] {
		case ',':
			i = jsonscan.SkipSpace(data, i+1)
		case '}':
			return e, i + 1, true
		default:
			return e, 0, false
		}
	}
}
