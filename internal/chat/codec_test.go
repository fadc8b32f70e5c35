package chat

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"testing"
)

func sampleLog() *Log {
	return NewLog([]Message{
		{Time: 1.5, User: "alice", Text: "nice kill!"},
		{Time: 2.25, User: "bob", Text: "wow, that was great"},
		{Time: 3, User: "碧", Text: "すごい 👍"},
	})
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSONL(&buf, sampleLog()); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	want := sampleLog()
	if got.Len() != want.Len() {
		t.Fatalf("len = %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if got.At(i) != want.At(i) {
			t.Errorf("message %d = %+v, want %+v", i, got.At(i), want.At(i))
		}
	}
}

func TestReadJSONLSkipsBlankLines(t *testing.T) {
	in := "{\"time\":1,\"user\":\"a\",\"text\":\"x\"}\n\n{\"time\":2,\"user\":\"b\",\"text\":\"y\"}\n"
	got, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Errorf("len = %d, want 2", got.Len())
	}
}

func TestReadJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadJSONL(strings.NewReader("not json\n")); err == nil {
		t.Error("garbage accepted")
	}
}

// readJSONLReference is the reader ReadJSONL replaced, kept as the oracle
// its differential tests compare against: bufio.Scanner lines,
// json.Unmarshal per line, sort.SliceStable by time.
func readJSONLReference(r io.Reader) ([]Message, error) {
	var messages []Message
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var m Message
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			return nil, fmt.Errorf("chat: line %d: %w", line, err)
		}
		messages = append(messages, m)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("chat: reading log: %w", err)
	}
	sort.SliceStable(messages, func(i, j int) bool { return messages[i].Time < messages[j].Time })
	return messages, nil
}

// sameMessages compares times by their bits, so -0 differs from +0 and a
// NaN equals itself.
func sameMessages(a, b []Message) bool {
	return slices.EqualFunc(a, b, func(x, y Message) bool {
		return math.Float64bits(x.Time) == math.Float64bits(y.Time) && x.User == y.User && x.Text == y.Text
	})
}

// TestReadJSONLLineLimit: a line of 1 MiB or more, a trailing CR counted,
// is an error, as it is for a bufio.Scanner with a 1 MiB buffer.
func TestReadJSONLLineLimit(t *testing.T) {
	const head, tail = `{"time":1,"text":"`, `"}`
	// line is a message line with n bytes before its newline, a CR
	// included; end ("", "\n" or "\r\n") follows the JSON.
	line := func(n int, end string) string {
		cr := strings.TrimSuffix(end, "\n")
		return head + strings.Repeat("x", n-len(head)-len(tail)-len(cr)) + tail + end
	}
	for _, in := range []string{
		line(maxLineBytes-1, "\n"),
		line(maxLineBytes, "\n"),
		line(maxLineBytes-1, "\r\n"),
		line(maxLineBytes, "\r\n"),
		line(maxLineBytes-1, ""),
		line(maxLineBytes, ""),
		`{"time":2}` + "\n" + line(maxLineBytes+1, "\n"),
	} {
		log, err := ReadJSONL(strings.NewReader(in))
		want, wantErr := readJSONLReference(strings.NewReader(in))
		if (err == nil) != (wantErr == nil) || (err != nil && err.Error() != wantErr.Error()) {
			t.Fatalf("%d-byte input: err = %v, reference err = %v", len(in), err, wantErr)
		}
		if err == nil && !sameMessages(log.Messages(), want) {
			t.Fatalf("%d-byte input: %d messages, reference %d", len(in), log.Len(), len(want))
		}
	}
	if _, err := ReadJSONL(strings.NewReader(line(maxLineBytes, "\n"))); !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("a %d-byte line: err = %v, want bufio.ErrTooLong", maxLineBytes, err)
	}
}

// TestReadJSONLAllocs pins the reader's memory contract: a log costs a
// fixed handful of allocations (the one string every user and text is cut
// from, the message slice, the Log) plus the read buffer's doublings, not
// one per message. 1,000 messages take 12.
func TestReadJSONLAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	var buf bytes.Buffer
	messages := make([]Message, 1000)
	for i := range messages {
		messages[i] = Message{Time: float64(i) / 4, User: fmt.Sprintf("viewer%d", i), Text: "what a play"}
	}
	if err := WriteJSONL(&buf, NewLog(messages)); err != nil {
		t.Fatal(err)
	}
	body := buf.Bytes()
	allocs := testing.AllocsPerRun(20, func() {
		log, err := ReadJSONL(bytes.NewReader(body))
		if err != nil || log.Len() != len(messages) {
			t.Fatalf("ReadJSONL: %d messages, %v", log.Len(), err)
		}
	})
	if allocs > 16 {
		t.Errorf("reading %d messages (%d bytes) took %.0f allocations, want at most 16", len(messages), len(body), allocs)
	}
}
