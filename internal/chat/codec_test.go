package chat

import (
	"bytes"
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
