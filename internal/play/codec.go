package play

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// WriteEventsJSONL writes interaction events as JSON lines, the format the
// browser extension logs and the platform service ingests.
func WriteEventsJSONL(w io.Writer, events []Event) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i, e := range events {
		if err := enc.Encode(e); err != nil {
			return fmt.Errorf("play: encoding event %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// ReadEventsJSONL parses a JSON-lines event log. Blank lines are skipped;
// malformed lines are errors.
func ReadEventsJSONL(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(raw, &e); err != nil {
			return nil, fmt.Errorf("play: line %d: %w", line, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("play: reading events: %w", err)
	}
	return events, nil
}
