package text_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"lightor/internal/chat"
	"lightor/internal/sim"
	"lightor/internal/stats"
	"lightor/internal/text"
)

const simTol = 1e-12

// randomMessage draws a message from a vocabulary mixing ASCII words,
// unicode (CJK, accents), and emoji/emote tokens, with occasional empty and
// punctuation-only messages — the shapes real chat produces.
func randomMessage(rng *rand.Rand) string {
	pool := []string{
		"kill", "gg", "wp", "PogChamp", "lol", "nice", "团战", "すごい",
		"café", "ñoño", "👍", "🔥🔥", "Kreygasm", "clutch", "noooo", "ace",
	}
	switch rng.Intn(10) {
	case 0:
		return ""
	case 1:
		return "?!... ---"
	}
	n := 1 + rng.Intn(8)
	var b strings.Builder
	for i := 0; i < n; i++ {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(pool[rng.Intn(len(pool))])
	}
	return b.String()
}

func TestSimilarityAccumulatorMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	acc := text.NewSimilarityAccumulator()
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40) // includes 0- and 1-message windows
		msgs := make([]string, n)
		for i := range msgs {
			msgs[i] = randomMessage(rng)
		}

		acc.Reset()
		var words int
		for _, m := range msgs {
			words += acc.Add(m)
		}

		wantRaw, wantN := text.RawMessageSimilarity(msgs)
		gotRaw, gotN := acc.Raw()
		if gotN != wantN {
			t.Fatalf("trial %d: n = %d, want %d", trial, gotN, wantN)
		}
		if math.Abs(gotRaw-wantRaw) > simTol {
			t.Fatalf("trial %d: raw = %.15f, want %.15f (Δ=%g) over %q",
				trial, gotRaw, wantRaw, gotRaw-wantRaw, msgs)
		}
		if got, want := acc.Similarity(), text.MessageSimilarity(msgs); math.Abs(got-want) > simTol {
			t.Fatalf("trial %d: sim = %.15f, want %.15f over %q", trial, got, want, msgs)
		}

		var wantWords int
		for _, m := range msgs {
			wantWords += text.WordCount(m)
		}
		if words != wantWords {
			t.Fatalf("trial %d: words = %d, want %d", trial, words, wantWords)
		}
	}
}

func TestSimilarityAccumulatorEdgeCases(t *testing.T) {
	acc := text.NewSimilarityAccumulator()

	// Empty window.
	if sim := acc.Similarity(); sim != 0 {
		t.Errorf("empty window sim = %g, want 0", sim)
	}
	// Single message: no notion of agreement.
	acc.Add("hello world")
	if sim := acc.Similarity(); sim != 0 {
		t.Errorf("single-message sim = %g, want 0", sim)
	}
	// Identical messages must normalize to 1.
	acc.Reset()
	for i := 0; i < 5; i++ {
		acc.Add("gg wp PogChamp")
	}
	if sim := acc.Similarity(); math.Abs(sim-1) > simTol {
		t.Errorf("identical-message sim = %.15f, want 1", sim)
	}
	// Token-less messages only: vocabulary stays empty, sim stays 0.
	acc.Reset()
	acc.Add("... ---")
	acc.Add("?!")
	if sim := acc.Similarity(); sim != 0 {
		t.Errorf("token-less window sim = %g, want 0", sim)
	}
	// Duplicate tokens inside one message count once for similarity
	// (binary vectors) but all occurrences count as words.
	acc.Reset()
	if words := acc.Add("gg gg gg"); words != 3 {
		t.Errorf("words = %d, want 3", words)
	}
	acc.Add("gg")
	if sim := acc.Similarity(); math.Abs(sim-1) > simTol {
		t.Errorf("binary-vector sim = %.15f, want 1", sim)
	}
}

// TestSimilarityAccumulatorReuse proves Reset restores the accumulator to a
// bit-identical fresh state: the same messages produce the same values
// whether the accumulator is new or recycled from an unrelated window.
func TestSimilarityAccumulatorReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	msgs := make([]string, 25)
	for i := range msgs {
		msgs[i] = randomMessage(rng)
	}

	fresh := text.NewSimilarityAccumulator()
	for _, m := range msgs {
		fresh.Add(m)
	}
	wantRaw, _ := fresh.Raw()

	recycled := text.NewSimilarityAccumulator()
	for i := 0; i < 500; i++ { // pollute with a different window first
		recycled.Add(randomMessage(rng))
	}
	recycled.Reset()
	for _, m := range msgs {
		recycled.Add(m)
	}
	gotRaw, _ := recycled.Raw()
	if gotRaw != wantRaw {
		t.Errorf("recycled raw = %.17g, fresh = %.17g; Reset must restore exact state", gotRaw, wantRaw)
	}
}

// TestSimilarityAccumulatorZeroAllocAcrossReset pins the allocation
// contract across window turnover, not just inside one window: once the
// buffers have seen the stream's working size, windows full of tokens that
// are new to them (every window's first messages) allocate nothing.
func TestSimilarityAccumulatorZeroAllocAcrossReset(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	windows := make([][]string, 8)
	for w := range windows {
		for i := 0; i < 12; i++ {
			windows[w] = append(windows[w], randomMessage(rng)+" "+strings.Repeat("w", w+1))
		}
	}
	acc := text.NewSimilarityAccumulator()
	turnover := func() {
		for _, msgs := range windows {
			acc.Reset()
			for _, m := range msgs {
				acc.Add(m)
			}
		}
	}
	turnover() // warm: grow the table, the arena and the per-token arrays
	if allocs := testing.AllocsPerRun(50, turnover); allocs != 0 {
		t.Errorf("%.1f allocs per %d windows, want 0", allocs, len(windows))
	}
}

// TestAccumulatorStateRoundTripAfterGrowth captures the state right after
// the vocabulary's table grew (the rehash is where ids could get lost) and
// requires the restored accumulator to continue bit-identically.
func TestAccumulatorStateRoundTripAfterGrowth(t *testing.T) {
	acc := text.NewSimilarityAccumulator()
	var want []string
	for i := 0; i < 300; i++ { // crosses several doublings of a 64-slot table
		tok := fmt.Sprintf("tok%sn%d", strings.Repeat("x", i%11), i)
		acc.Add(tok + " shared")
		if i == 0 {
			want = append(want, tok, "shared")
		} else {
			want = append(want, tok)
		}

		st := acc.State()
		if len(st.Tokens) != len(want) {
			t.Fatalf("after %d messages: %d tokens in state, want %d", i+1, len(st.Tokens), len(want))
		}
		for id, tok := range want {
			if st.Tokens[id] != tok {
				t.Fatalf("after %d messages: token %d = %q, want %q (ids must stay first-seen order)", i+1, id, st.Tokens[id], tok)
			}
		}
		restored := text.NewSimilarityAccumulator()
		restored.Add("polluted before restore")
		if err := restored.SetState(st); err != nil {
			t.Fatal(err)
		}
		// Continue both with a message mixing known and new tokens.
		next := tok + " shared brand new"
		probe := text.NewSimilarityAccumulator()
		if err := probe.SetState(acc.State()); err != nil {
			t.Fatal(err)
		}
		probe.Add(next)
		restored.Add(next)
		if a, b := probe.State(), restored.State(); !reflect.DeepEqual(a, b) {
			t.Fatalf("after %d messages: restored accumulator diverged:\n%+v\n%+v", i+1, a, b)
		}
	}
}

func TestAccumulatorSetStateRejectsBadInput(t *testing.T) {
	good := text.AccumulatorState{
		Tokens: []string{"gg", "wp"}, Counts: []float64{1, 1}, Weights: []float64{0.7, 0.7},
		Seen: []int{1, 1}, N: 1, DotSum: 1.4, SumSq: 2,
	}
	acc := text.NewSimilarityAccumulator()
	if err := acc.SetState(good); err != nil {
		t.Fatalf("valid state rejected: %v", err)
	}

	dup := good
	dup.Tokens = []string{"gg", "gg"}
	short := good
	short.Counts = []float64{1}
	negative := good
	negative.N = -1
	for name, st := range map[string]text.AccumulatorState{"duplicate token": dup, "inconsistent lengths": short, "negative n": negative} {
		if err := acc.SetState(st); err == nil {
			t.Errorf("%s accepted", name)
		}
		// A rejected state must not leave a half-restored accumulator
		// behind: vocabulary and per-token arrays stay in step.
		acc.Add("gg wp after rejection")
		if got := acc.State(); len(got.Tokens) != len(got.Counts) {
			t.Errorf("%s: %d tokens but %d counts after the rejection", name, len(got.Tokens), len(got.Counts))
		}
	}
}

func BenchmarkSimilarityAccumulatorAdd(b *testing.B) {
	pool := make([]string, 64)
	rng := rand.New(rand.NewSource(3))
	for i := range pool {
		pool[i] = randomMessage(rng)
	}
	acc := text.NewSimilarityAccumulator()
	for _, m := range pool { // warm the window vocabulary
		acc.Add(m)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		acc.Add(pool[i%len(pool)])
	}
}

// simStream returns the chat of one simulated Dota 2 broadcast, with the
// chat rate multiplied by density.
func simStream(seed int64, density float64) []chat.Message {
	p := sim.Dota2Profile()
	p.BackgroundRate *= density
	p.BurstMin = int(float64(p.BurstMin) * density)
	p.BurstMax = int(float64(p.BurstMax) * density)
	return sim.GenerateDataset(stats.NewRand(seed), p, 1)[0].Chat.Log.Messages()
}

// BenchmarkSimilarityAccumulatorStream replays simulated broadcasts through
// one accumulator the way the detector does, a Reset at every 25 s window
// boundary: sparse windows hold a handful of messages (mostly tokens new to
// the window), dense ones hundreds (mostly repeats).
func BenchmarkSimilarityAccumulatorStream(b *testing.B) {
	const window = 25.0
	for _, bc := range []struct {
		name    string
		density float64
	}{{"sparse", 1}, {"dense", 20}} {
		b.Run(bc.name, func(b *testing.B) {
			msgs := simStream(5, bc.density)
			acc := text.NewSimilarityAccumulator()
			b.ReportAllocs()
			b.ResetTimer()
			end := 0.0
			for i := 0; i < b.N; i++ {
				m := msgs[i%len(msgs)]
				if i%len(msgs) == 0 || m.Time >= end {
					acc.Reset()
					end = (math.Floor(m.Time/window) + 1) * window
				}
				acc.Add(m.Text)
			}
		})
	}
}
