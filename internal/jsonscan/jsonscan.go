// Package jsonscan holds the token scanners shared by the reflection-free
// JSON codecs: the ingest endpoints' (chat.AppendMessagesJSON,
// play.AppendEventsJSON) and the WAL replay's (platform.decodeWALRecord).
// Each scanner reads one token of data starting at offset i and returns the
// offset just past it. Any input whose decoding encoding/json defines by a
// subtle rule (escapes, invalid UTF-8, loose number grammar) is refused with
// ok == false, so a codec built on them either decodes exactly what the
// stdlib would or falls back to it.
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
