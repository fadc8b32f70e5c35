package chat

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteJSONL writes the log as JSON lines (one message object per line),
// the format the web crawler stores chat under.
func WriteJSONL(w io.Writer, l *Log) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, m := range l.Messages() {
		if err := enc.Encode(m); err != nil {
			return fmt.Errorf("chat: encoding message: %w", err)
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a JSON-lines chat log. Blank lines are skipped; any
// malformed line is an error (silently dropping data would corrupt feature
// values downstream). Lines in the shape WriteJSONL produces take the
// reflection-free scanner; anything else is encoding/json's to judge.
func ReadJSONL(r io.Reader) (*Log, error) {
	var messages []Message
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var m Message
		if err := UnmarshalMessageJSON(raw, &m); err != nil {
			return nil, fmt.Errorf("chat: line %d: %w", line, err)
		}
		messages = append(messages, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("chat: reading log: %w", err)
	}
	return NewLog(messages), nil
}
