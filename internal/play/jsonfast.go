package play

import (
	"strconv"
	"unicode/utf8"
)

// This file is the interaction endpoint's JSON codec, the counterpart of
// chat.AppendMessagesJSON: a reflection-free parser for the exact wire shape
// player clients send — an array of {"user","seq","type","pos"} objects —
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
	data := string(body)
	i := skipJSONSpace(data, 0)
	if i >= len(data) || data[i] != '[' {
		return dst, 0, false
	}
	i = skipJSONSpace(data, i+1)
	if i < len(data) && data[i] == ']' {
		return dst, i + 1, true
	}
	for {
		e, eNext, eok := scanEventObject(data, i)
		if !eok {
			return dst, 0, false
		}
		dst = append(dst, e)
		i = skipJSONSpace(data, eNext)
		if i >= len(data) {
			return dst, 0, false
		}
		switch data[i] {
		case ',':
			i = skipJSONSpace(data, i+1)
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
	i = skipJSONSpace(data, i+1)
	if i < len(data) && data[i] == '}' {
		return e, i + 1, true
	}
	for {
		key, kn, kok := scanJSONString(data, i)
		if !kok {
			return e, 0, false
		}
		i = skipJSONSpace(data, kn)
		if i >= len(data) || data[i] != ':' {
			return e, 0, false
		}
		i = skipJSONSpace(data, i+1)
		var vok bool
		switch key {
		case "user":
			e.User, i, vok = scanJSONString(data, i)
		case "seq":
			e.Seq, i, vok = scanJSONInt(data, i)
		case "type":
			var t int
			t, i, vok = scanJSONInt(data, i)
			e.Type = EventType(t)
		case "pos":
			e.Pos, i, vok = scanJSONFloat(data, i)
		}
		// vok is still false for an unknown (or case-folded) key: the
		// stdlib has matching rules the fast path must not re-implement.
		if !vok {
			return e, 0, false
		}
		i = skipJSONSpace(data, i)
		if i >= len(data) {
			return e, 0, false
		}
		switch data[i] {
		case ',':
			i = skipJSONSpace(data, i+1)
		case '}':
			return e, i + 1, true
		default:
			return e, 0, false
		}
	}
}

func skipJSONSpace(data string, i int) int {
	for i < len(data) {
		switch data[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// scanJSONString scans a double-quoted string starting at data[i] and
// returns the text between the quotes, a substring of data. Escapes,
// control characters, and invalid UTF-8 all reject: each has coercion rules
// only encoding/json should implement.
func scanJSONString(data string, i int) (val string, next int, ok bool) {
	if i >= len(data) || data[i] != '"' {
		return "", 0, false
	}
	start := i + 1
	ascii := true
	for j := start; j < len(data); j++ {
		c := data[j]
		switch {
		case c == '"':
			val = data[start:j]
			if !ascii && !utf8.ValidString(val) {
				return "", 0, false // stdlib would splice in U+FFFD
			}
			return val, j + 1, true
		case c == '\\' || c < 0x20:
			return "", 0, false
		case c >= 0x80:
			ascii = false
		}
	}
	return "", 0, false
}

// scanJSONInt scans an integer literal (-?(0|[1-9][0-9]*)) that fits an int.
// A fraction or an exponent rejects: encoding/json refuses them for an
// integer field, and the refusal is its to word.
func scanJSONInt(data string, i int) (val int, next int, ok bool) {
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	intStart := j
	for j < len(data) && data[j] >= '0' && data[j] <= '9' {
		j++
	}
	if j == intStart || (data[intStart] == '0' && j > intStart+1) {
		return 0, 0, false // no digits, or a leading zero
	}
	if j < len(data) && (data[j] == '.' || data[j] == 'e' || data[j] == 'E') {
		return 0, 0, false
	}
	n, err := strconv.ParseInt(data[i:j], 10, strconv.IntSize)
	if err != nil {
		return 0, 0, false
	}
	return int(n), j, true
}

// scanJSONFloat scans a number matching the strict JSON grammar
// (-?int[.frac][(e|E)[±]exp]) so the fast path never accepts what
// encoding/json would reject (e.g. "1." or "+5").
func scanJSONFloat(data string, i int) (val float64, next int, ok bool) {
	j := i
	if j < len(data) && data[j] == '-' {
		j++
	}
	digits := func() bool {
		n := 0
		for j < len(data) && data[j] >= '0' && data[j] <= '9' {
			j++
			n++
		}
		return n > 0
	}
	intStart := j
	if !digits() {
		return 0, 0, false
	}
	if data[intStart] == '0' && j > intStart+1 {
		return 0, 0, false // leading zeros are not JSON
	}
	if j < len(data) && data[j] == '.' {
		j++
		if !digits() {
			return 0, 0, false
		}
	}
	if j < len(data) && (data[j] == 'e' || data[j] == 'E') {
		j++
		if j < len(data) && (data[j] == '+' || data[j] == '-') {
			j++
		}
		if !digits() {
			return 0, 0, false
		}
	}
	f, err := strconv.ParseFloat(data[i:j], 64)
	if err != nil {
		return 0, 0, false
	}
	return f, j, true
}
