package text

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// retainedBytes sums the capacity of every buffer the accumulator holds on
// to between windows.
func (a *SimilarityAccumulator) retainedBytes() int {
	word := int(unsafe.Sizeof(int(0)))
	return cap(a.vocab.slots)*int(unsafe.Sizeof(vocabSlot{})) + cap(a.vocab.arena) +
		word*(cap(a.counts)+cap(a.weights)+cap(a.seen)+cap(a.distinct)) +
		cap(a.scan.buf) + word*cap(a.scan.ends)
}

// TestFlashCrowdMemoryIsReleased is the regression test for the retained-
// memory bug: one window with 10k distinct tokens (and one outsized message)
// used to leave the session holding — and clearing, window after window —
// the spike's buckets forever.
func TestFlashCrowdMemoryIsReleased(t *testing.T) {
	const retainedLimit = 64 << 10 // a constant, not a function of the spike

	quiet := []string{"gg wp", "nice kill", "PogChamp PogChamp", "what a play 👍"}
	fresh := NewSimilarityAccumulator()
	for _, m := range quiet {
		fresh.Add(m)
	}
	wantRaw, wantN := fresh.Raw()

	acc := NewSimilarityAccumulator()
	for i := 0; i < 1000; i++ {
		var b strings.Builder
		for j := 0; j < 10; j++ {
			fmt.Fprintf(&b, "tok%dx%d ", i, j)
		}
		acc.Add(b.String())
	}
	acc.Add(strings.Repeat("spam ", 20000))
	spike := acc.retainedBytes()
	if spike < 10*retainedLimit {
		t.Fatalf("spike window retains only %d bytes; the test no longer inflates the accumulator", spike)
	}

	for w := 0; w < 100; w++ {
		acc.Reset()
		for _, m := range quiet {
			acc.Add(m)
		}
		if gotRaw, gotN := acc.Raw(); gotRaw != wantRaw || gotN != wantN {
			t.Fatalf("window %d after the spike: raw = %.17g (n=%d), fresh accumulator %.17g (n=%d)",
				w, gotRaw, gotN, wantRaw, wantN)
		}
	}
	if got := acc.retainedBytes(); got > retainedLimit {
		t.Errorf("retained %d bytes after 100 quiet windows (spike: %d), want ≤ %d", got, spike, retainedLimit)
	}
}

// TestVocabGenerationWrap drives the generation counter over its wrap: the
// stale slots of generation 1 must not come back to life.
func TestVocabGenerationWrap(t *testing.T) {
	var v windowVocab
	v.reset()
	if _, added := v.intern([]byte("stale")); !added {
		t.Fatal("first intern did not add")
	}
	v.gen = math.MaxUint32
	v.reset()
	if v.gen == 0 {
		t.Fatal("generation 0 is the zero slot's: every empty slot would read as live")
	}
	if id, added := v.intern([]byte("stale")); !added || id != 0 {
		t.Errorf("after the wrap intern = (%d, %v), want a fresh id 0", id, added)
	}
}

// TestVocabLongAndShortTokens covers both sides of the 8-byte head: tokens
// that differ only past it, tokens that are a prefix of one another, and
// tokens handed in without spare capacity (the byte-loop head).
func TestVocabLongAndShortTokens(t *testing.T) {
	toks := []string{"a", "ab", "abcdefgh", "abcdefghi", "abcdefghj", "abcdefgh\x00", "b", ""}
	var v windowVocab
	v.reset()
	for want, tok := range toks {
		exact := []byte(tok) // cap == len: no spare capacity
		if id, added := v.intern(exact[:len(exact):len(exact)]); !added || id != want {
			t.Fatalf("intern(%q) = (%d, %v), want (%d, true)", tok, id, added, want)
		}
	}
	for want, tok := range toks {
		roomy := append(make([]byte, 0, 32), tok...)
		roomy = append(roomy, "garbage!"...)[:len(tok)] // bytes past the token must not matter
		if id, added := v.intern(roomy); added || id != want {
			t.Fatalf("second intern(%q) = (%d, %v), want (%d, false)", tok, id, added, want)
		}
	}
	if got := v.tokens(); !slices.Equal(got, toks) {
		t.Errorf("tokens() = %q, want %q", got, toks)
	}
}
