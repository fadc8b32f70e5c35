package chat

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// maxLineBytes bounds one line of a JSON-lines log, a trailing CR counted
// and the newline not: the limit of a bufio.Scanner with a 1 MiB buffer,
// so ReadJSONL accepts a log exactly when such a line scanner does.
const maxLineBytes = 1024 * 1024

// writeChunk is how much encoded chat WriteJSONL gathers per write.
const writeChunk = 64 * 1024

// WriteJSONL writes the log as JSON lines (one message object per line),
// the format the web crawler stores chat under. The bytes are exactly
// json.Encoder's: a message of the common shape is appended by hand
// (appendMessageJSONL), any other goes through the encoder.
func WriteJSONL(w io.Writer, l *Log) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, m := range l.Messages() {
		if line, ok := appendMessageJSONL(buf.AvailableBuffer(), m); ok {
			buf.Write(line)
		} else if err := enc.Encode(m); err != nil {
			return fmt.Errorf("chat: encoding message: %w", err)
		}
		if buf.Len() >= writeChunk {
			if _, err := w.Write(buf.Bytes()); err != nil {
				return err
			}
			buf.Reset()
		}
	}
	if buf.Len() == 0 {
		return nil
	}
	_, err := w.Write(buf.Bytes())
	return err
}

// appendMessageJSONL appends m and a newline to dst exactly as json.Encoder
// writes them, when m has the common shape: a time encoding/json prints in
// 'f' format (finite, and zero or of magnitude in [1e-6, 1e21)), and a user
// and text of printable ASCII with nothing to escape (no ", \, or the
// HTML-escaped <, > and &). Otherwise it returns dst and false.
func appendMessageJSONL(dst []byte, m Message) ([]byte, bool) {
	if abs := math.Abs(m.Time); abs != 0 && !(abs >= 1e-6 && abs < 1e21) {
		return dst, false // NaN, ±Inf, or a time encoding/json prints with 'e'
	}
	if !plainASCII(m.User) || !plainASCII(m.Text) {
		return dst, false
	}
	dst = append(dst, `{"time":`...)
	dst = strconv.AppendFloat(dst, m.Time, 'f', -1, 64)
	dst = append(dst, `,"user":"`...)
	dst = append(dst, m.User...)
	dst = append(dst, `","text":"`...)
	dst = append(dst, m.Text...)
	return append(dst, "\"}\n"...), true
}

// plainASCII reports whether json.Encoder writes s between its quotes
// unchanged.
func plainASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c < 0x20, c > 0x7e, c == '"', c == '\\', c == '<', c == '>', c == '&':
			return false
		}
	}
	return true
}

// ReadJSONL parses a JSON-lines chat log. Blank lines are skipped; any
// malformed line is an error (silently dropping data would corrupt feature
// values downstream). Lines split as bufio.ScanLines splits them (one
// trailing CR dropped), and a line of 1 MiB or more is an error.
//
// The input is read whole and copied to one string, and each line is
// decoded in place (decodeMessage): lines in the shape WriteJSONL produces
// take the reflection-free scanner and cut their users and texts from that
// copy, so a log costs a few allocations, not one per message; anything
// else is encoding/json's to judge. Input already in time order is not
// copied again or sorted.
func ReadJSONL(r io.Reader) (*Log, error) {
	var data bytes.Buffer
	if _, err := data.ReadFrom(r); err != nil {
		return nil, fmt.Errorf("chat: reading log: %w", err)
	}
	src := data.String()
	messages := make([]Message, 0, strings.Count(src, "\n")+1)
	line := 0
	for rest := src; rest != ""; {
		var raw string
		raw, rest, _ = strings.Cut(rest, "\n")
		line++
		if len(raw) >= maxLineBytes {
			return nil, fmt.Errorf("chat: reading log: %w", bufio.ErrTooLong)
		}
		raw = strings.TrimSuffix(raw, "\r")
		if raw == "" {
			continue
		}
		m, err := decodeMessage(raw, Message{})
		if err != nil {
			return nil, fmt.Errorf("chat: line %d: %w", line, err)
		}
		messages = append(messages, m)
	}
	return newOwnedLog(messages), nil
}
