package chat

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// ReadIRCText parses the plain-text chat export format used by common VOD
// chat downloaders:
//
//	[0:01:23] <someuser> first blood!
//	[1:02:03.450] <other_user> what a play
//
// The bracketed timestamp is an offset from the video start in
// [h:]mm:ss[.fff] form. Malformed lines are errors (silently dropping chat
// would skew every downstream feature); blank lines are skipped.
func ReadIRCText(r io.Reader) (*Log, error) {
	var messages []Message
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		m, err := parseIRCLine(line)
		if err != nil {
			return nil, fmt.Errorf("chat: line %d: %w", lineNo, err)
		}
		messages = append(messages, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("chat: reading log: %w", err)
	}
	return NewLog(messages), nil
}

func parseIRCLine(line string) (Message, error) {
	if !strings.HasPrefix(line, "[") {
		return Message{}, fmt.Errorf("missing [timestamp]: %q", line)
	}
	tsEnd := strings.IndexByte(line, ']')
	if tsEnd < 0 {
		return Message{}, fmt.Errorf("unterminated timestamp: %q", line)
	}
	ts, err := ParseClock(line[1:tsEnd])
	if err != nil {
		return Message{}, err
	}
	rest := strings.TrimSpace(line[tsEnd+1:])
	if !strings.HasPrefix(rest, "<") {
		return Message{}, fmt.Errorf("missing <user>: %q", line)
	}
	userEnd := strings.IndexByte(rest, '>')
	if userEnd < 0 {
		return Message{}, fmt.Errorf("unterminated <user>: %q", line)
	}
	user := rest[1:userEnd]
	if user == "" {
		return Message{}, fmt.Errorf("empty user: %q", line)
	}
	text := strings.TrimSpace(rest[userEnd+1:])
	return Message{Time: ts, User: user, Text: text}, nil
}

// ParseClock converts an [h:]mm:ss[.fff] clock offset into seconds.
func ParseClock(s string) (float64, error) {
	parts := strings.Split(s, ":")
	if len(parts) < 2 || len(parts) > 3 {
		return 0, fmt.Errorf("bad clock %q (want [h:]mm:ss)", s)
	}
	var total float64
	for _, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil || v < 0 {
			return 0, fmt.Errorf("bad clock component %q in %q", p, s)
		}
		total = float64(total*60) + v
	}
	return total, nil
}
