package text

import (
	"reflect"
	"testing"
	"unicode"
	"unicode/utf8"
)

func TestTokenize(t *testing.T) {
	cases := []struct {
		name string
		in   string
		want []string
	}{
		{"simple", "Nice kill", []string{"nice", "kill"}},
		{"punctuation", "wow!!! that, was... great", []string{"wow", "that", "was", "great"}},
		{"empty", "", nil},
		{"spaces", "   ", nil},
		{"digits", "gg 100 times", []string{"gg", "100", "times"}},
		{"case-folding", "PogChamp KILL", []string{"pogchamp", "kill"}},
		{"emoji", "👍 😄 nice", []string{"👍", "😄", "nice"}},
		{"mixed-unicode", "日本語 chat", []string{"日本語", "chat"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Tokenize(c.in); !reflect.DeepEqual(got, c.want) {
				t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
			}
		})
	}
}

// referenceScan is the rune-at-a-time tokenizer the byte-class scanner
// replaced, kept as the specification: range over the string (invalid UTF-8
// yields U+FFFD per byte), classify and lowercase every rune with the
// unicode tables.
func referenceScan(s string) []string {
	var tokens []string
	var buf []byte
	for _, r := range s {
		if isTokenRune(r) {
			buf = utf8.AppendRune(buf, unicode.ToLower(r))
			continue
		}
		if len(buf) > 0 {
			tokens = append(tokens, string(buf))
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		tokens = append(tokens, string(buf))
	}
	return tokens
}

// scanSeeds are the inputs where a byte-level scanner and a rune-level one
// are most likely to part ways.
func scanSeeds() []string {
	var ascii [utf8.RuneSelf]byte
	for i := range ascii {
		ascii[i] = byte(i)
	}
	return []string{
		"",
		string(ascii[:]),
		"Nice KILL!!! PogChamp 100",
		"\xff\xfe gg \xc3",               // invalid lead bytes, truncated sequence
		"\x80\xbf lone \x80continuation", // lone continuation bytes
		"a\xffb\xffc",                    // U+FFFD is a symbol: it glues tokens together
		"İstanbul İİ \u212a \u212aELVIN Ⱥⱥ", // İ, the Kelvin sign, Ⱥ: case folds that change the encoded length
		"👨‍👩‍👧‍👦 👍🏽 🔥🔥 ❤️",                  // ZWJ sequences, modifiers, variation selectors
		"nul\x00byte \x00\x00",
		"日本語 chat\u3000wide　space、comma",
		"ends-with-token",
		"ends with separators   ",
		"ǅ ǈ ǋ ß ΑΣ ς",
	}
}

func checkScan(t *testing.T, dirty, s string) {
	t.Helper()
	want := referenceScan(s)
	if got := Tokenize(s); !reflect.DeepEqual(got, want) {
		t.Fatalf("Tokenize(%q) = %q, reference %q", s, got, want)
	}
	if got := WordCount(s); got != len(want) {
		t.Fatalf("WordCount(%q) = %d, reference %d", s, got, len(want))
	}
	// A scanner recycled from another string must not leak its state, and
	// must leave the spare capacity windowVocab's word loads rely on.
	var sc tokenScanner
	sc.scan(dirty)
	sc.scan(s)
	var got []string
	start := 0
	for _, end := range sc.ends {
		got = append(got, string(sc.buf[start:end]))
		start = end
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recycled scan(%q) after %q = %q, reference %q", s, dirty, got, want)
	}
	if spare := cap(sc.buf) - len(sc.buf); spare < tokenSlack {
		t.Fatalf("scan(%q) left %d spare bytes, want ≥ %d", s, spare, tokenSlack)
	}
}

// FuzzScanTokens holds the byte-class scanner to the rune-at-a-time
// reference on tokens and word count, for any byte string. A plain go test
// runs it over the seeds.
func FuzzScanTokens(f *testing.F) {
	seeds := scanSeeds()
	for i, s := range seeds {
		f.Add(seeds[(i+1)%len(seeds)], s)
	}
	f.Fuzz(func(t *testing.T, dirty, s string) {
		checkScan(t, dirty, s)
	})
}

func TestWordCount(t *testing.T) {
	if got := WordCount("three word message"); got != 3 {
		t.Errorf("WordCount = %d, want 3", got)
	}
	if got := WordCount(""); got != 0 {
		t.Errorf("WordCount empty = %d, want 0", got)
	}
}

func TestVocabulary(t *testing.T) {
	v := NewVocabulary()
	i := v.Add("kill")
	j := v.Add("nice")
	if i != 0 || j != 1 {
		t.Errorf("Add returned (%d,%d), want (0,1)", i, j)
	}
	if again := v.Add("kill"); again != 0 {
		t.Errorf("duplicate Add returned %d, want 0", again)
	}
	if v.Len() != 2 {
		t.Errorf("Len = %d, want 2", v.Len())
	}
	if idx, ok := v.Index("nice"); !ok || idx != 1 {
		t.Errorf("Index(nice) = (%d,%v)", idx, ok)
	}
	if _, ok := v.Index("missing"); ok {
		t.Error("Index found missing word")
	}
	if v.Word(0) != "kill" {
		t.Errorf("Word(0) = %q", v.Word(0))
	}
}

func TestBuildVocabulary(t *testing.T) {
	v := BuildVocabulary([]string{"nice kill", "kill kill wow"})
	if v.Len() != 3 {
		t.Errorf("vocab size = %d, want 3 (nice, kill, wow)", v.Len())
	}
}
