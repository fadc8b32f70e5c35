package chat

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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

// WriteCSV writes the log as CSV with a header row (time,user,text).
func WriteCSV(w io.Writer, l *Log) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time", "user", "text"}); err != nil {
		return fmt.Errorf("chat: writing header: %w", err)
	}
	for _, m := range l.Messages() {
		rec := []string{strconv.FormatFloat(m.Time, 'f', -1, 64), m.User, m.Text}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("chat: writing record: %w", err)
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a CSV chat log produced by WriteCSV (header required).
func ReadCSV(r io.Reader) (*Log, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = 3
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("chat: reading header: %w", err)
	}
	if header[0] != "time" || header[1] != "user" || header[2] != "text" {
		return nil, fmt.Errorf("chat: unexpected header %v", header)
	}
	var messages []Message
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("chat: reading record: %w", err)
		}
		ts, err := strconv.ParseFloat(rec[0], 64)
		if err != nil {
			return nil, fmt.Errorf("chat: bad timestamp %q: %w", rec[0], err)
		}
		messages = append(messages, Message{Time: ts, User: rec[1], Text: rec[2]})
	}
	return NewLog(messages), nil
}
