// Package jsonscan is the reflection-free JSON reader shared by the
// ingest endpoints' codecs (chat.AppendMessagesJSON, play.AppendEventsJSON)
// and the WAL replay's (platform.decodeWALRecord). Object and Array walk a
// container and hand each member or element to a callback that decodes it;
// String, Int and Float read one scalar. Each reads data starting at offset
// i and returns the offset just past what it read. Any input whose decoding
// encoding/json defines by a subtle rule (escapes, invalid UTF-8, loose
// number grammar) is refused with ok == false, so a codec built on them
// either decodes exactly what the stdlib would or falls back to it.
//
// The walkers know no field and no repeated-key policy. encoding/json lets
// a repeated key overwrite a scalar but merges a repeated object or array
// into the earlier value; a caller whose members hold containers refuses a
// repeated key itself.
package jsonscan

import (
	"strconv"
	"unicode/utf8"
)

// SkipSpace returns the offset of the first non-whitespace byte of data at
// or after i, or len(data).
func SkipSpace(data string, i int) int {
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

// Object walks the object at data[i], handing each member's key and the
// offset of its value (whitespace skipped) to member, which decodes the
// value and returns the offset just past it. Object returns the offset just
// past the closing brace.
func Object(data string, i int, member func(key string, i int) (next int, ok bool)) (next int, ok bool) {
	if i >= len(data) || data[i] != '{' {
		return 0, false
	}
	if i = SkipSpace(data, i+1); i < len(data) && data[i] == '}' {
		return i + 1, true
	}
	for {
		key, kn, kok := String(data, SkipSpace(data, i))
		if !kok {
			return 0, false
		}
		if i = SkipSpace(data, kn); i >= len(data) || data[i] != ':' {
			return 0, false
		}
		if i, ok = member(key, SkipSpace(data, i+1)); !ok {
			return 0, false
		}
		var more bool
		if i, more, ok = separator(data, i, '}'); !more {
			return i, ok
		}
	}
}

// Array walks the array at data[i], handing the offset of each element
// (whitespace skipped) to elem, which decodes it and returns the offset just
// past it. Array returns the offset just past the closing bracket.
func Array(data string, i int, elem func(i int) (next int, ok bool)) (next int, ok bool) {
	if i >= len(data) || data[i] != '[' {
		return 0, false
	}
	if i = SkipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return i + 1, true
	}
	for {
		if i, ok = elem(SkipSpace(data, i)); !ok {
			return 0, false
		}
		var more bool
		if i, more, ok = separator(data, i, ']'); !more {
			return i, ok
		}
	}
}

// separator reads what follows a member or an element: a comma, after which
// more is true, or the container's closing byte. next is the offset just
// past it.
func separator(data string, i int, closing byte) (next int, more, ok bool) {
	if i = SkipSpace(data, i); i < len(data) {
		switch data[i] {
		case ',':
			return i + 1, true, true
		case closing:
			return i + 1, false, true
		}
	}
	return 0, false, false
}

// String scans a double-quoted string starting at data[i] and returns the
// text between the quotes, a substring of data. Escapes, control
// characters, and invalid UTF-8 all reject: each has coercion rules only
// encoding/json should implement.
func String(data string, i int) (val string, next int, ok bool) {
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

// Int scans an integer literal (-?(0|[1-9][0-9]*)) that fits an int. A
// fraction or an exponent rejects: encoding/json refuses them for an
// integer field, and the refusal is its to word.
func Int(data string, i int) (val int, next int, ok bool) {
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

// Float scans a number matching the strict JSON grammar
// (-?int[.frac][(e|E)[±]exp]) so the fast path never accepts what
// encoding/json would reject (e.g. "1." or "+5").
func Float(data string, i int) (val float64, next int, ok bool) {
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
