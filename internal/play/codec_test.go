package play

import (
	"bytes"
	"strings"
	"testing"
)

func TestEventsJSONLRoundTrip(t *testing.T) {
	in := []Event{
		{User: "alice", Seq: 0, Type: EventPlay, Pos: 100},
		{User: "alice", Seq: 1, Type: EventSeek, Pos: 120},
		{User: "bob", Seq: 0, Type: EventPlay, Pos: 50.5},
		{User: "bob", Seq: 1, Type: EventStop, Pos: 99.25},
	}
	var buf bytes.Buffer
	if err := WriteEventsJSONL(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadEventsJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("len = %d, want %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Errorf("event %d = %+v, want %+v", i, out[i], in[i])
		}
	}
}

func TestReadEventsJSONLRejectsGarbage(t *testing.T) {
	if _, err := ReadEventsJSONL(strings.NewReader("nope\n")); err == nil {
		t.Error("garbage accepted")
	}
}

func TestReadEventsJSONLSkipsBlankLines(t *testing.T) {
	in := "{\"user\":\"u\",\"seq\":0,\"type\":0,\"pos\":1}\n\n"
	out, err := ReadEventsJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 {
		t.Errorf("len = %d, want 1", len(out))
	}
}
