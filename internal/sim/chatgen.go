package sim

import (
	"math/rand"
	"strconv"

	"lightor/internal/chat"
	"lightor/internal/stats"
)

// Burst records the ground truth of one highlight's chat reaction: which
// highlight it belongs to and when the message burst peaks. Window labeling
// and the Figure 2 analysis both key on burst peaks.
type Burst struct {
	Highlight Interval
	Peak      float64 // video time at which the reaction burst is densest
	Messages  int
}

// ChatResult is a generated chat log plus its ground truth.
type ChatResult struct {
	Log    *chat.Log
	Bursts []Burst
}

// GenerateChat simulates the chat log of a video under a profile. The log
// mixes four message populations:
//
//  1. ambient background chatter (Poisson arrivals, medium-length messages);
//  2. highlight reaction bursts: dense clusters of short, repetitive hype
//     messages peaking ReactionDelayMean seconds AFTER the highlight starts
//     — the delay the Adjustment stage must learn;
//  3. off-topic discussion bursts: elevated rate, long dissimilar messages
//     (fools a pure message-count detector, caught by length+similarity);
//  4. smalltalk showers: bursts of short but mutually unrelated messages
//     (fools count+length, caught only by similarity);
//  5. advertisement bot bursts: very dense, long, near-identical spam
//     (fools count and similarity, caught by message length).
func GenerateChat(rng *rand.Rand, v Video, p Profile) ChatResult {
	var messages []chat.Message
	say := viewers{rng: rng}

	// 1. Background chatter.
	t := stats.Exponential(rng, p.BackgroundRate)
	for t < v.Duration {
		messages = append(messages, say.message(t, p.CasualVocab, 4, 12))
		t += stats.Exponential(rng, p.BackgroundRate)
	}

	// 2. Highlight reaction bursts.
	bursts := make([]Burst, 0, len(v.Highlights))
	for _, h := range v.Highlights {
		delay := stats.Normal(rng, p.ReactionDelayMean, p.ReactionDelayStd)
		if delay < 3 {
			delay = 3
		}
		peak := h.Start + delay
		if peak > v.Duration-1 {
			peak = v.Duration - 1
		}
		n := stats.IntBetween(rng, p.BurstMin, p.BurstMax)
		// Each burst converges on a couple of topic words, which is what
		// drives the message-similarity feature up.
		topic := burstTopic(rng, p)
		for i := 0; i < n; i++ {
			mt := stats.Normal(rng, peak, p.BurstSpread)
			// Nobody comments before the highlight begins.
			mt = stats.Clamp(mt, h.Start+0.5, v.Duration-0.1)
			messages = append(messages, say.message(mt, topic, 1, 3))
		}
		bursts = append(bursts, Burst{Highlight: h, Peak: peak, Messages: n})
	}

	// 3. Off-topic discussion bursts.
	hours := v.Duration / 3600
	nDisc := stats.Poisson(rng, p.DiscussionPerHour*hours)
	for d := 0; d < nDisc; d++ {
		center := stats.Uniform(rng, 60, v.Duration-60)
		n := stats.IntBetween(rng, 15, 45)
		for i := 0; i < n; i++ {
			mt := stats.Clamp(stats.Normal(rng, center, 12), 0, v.Duration-0.1)
			messages = append(messages, say.message(mt, p.CasualVocab, 8, 20))
		}
	}

	// 4. Smalltalk showers: floods of short but mutually UNRELATED messages
	// (a raid of greetings, stream-wide reactions to a donation, etc.).
	// These defeat the number+length feature pair — only similarity tells
	// them from a genuine hype burst, which is why Figure 6a's full model
	// pulls ahead at larger k.
	nShowers := stats.Poisson(rng, 2*hours)
	for s := 0; s < nShowers; s++ {
		center := stats.Uniform(rng, 60, v.Duration-60)
		n := stats.IntBetween(rng, 20, 45)
		for i := 0; i < n; i++ {
			mt := stats.Clamp(stats.Normal(rng, center, 8), 0, v.Duration-0.1)
			messages = append(messages, say.message(mt, p.CasualVocab, 1, 3))
		}
	}

	// 5. Advertisement bot bursts.
	nBots := stats.Poisson(rng, p.BotPerHour*hours)
	for b := 0; b < nBots; b++ {
		center := stats.Uniform(rng, 60, v.Duration-60)
		ad := stats.Choice(rng, p.BotAds)
		bot := string(appendPadded([]byte("bot"), rng.Intn(10000), 4))
		n := stats.IntBetween(rng, 25, 60)
		for i := 0; i < n; i++ {
			mt := stats.Clamp(stats.Normal(rng, center, 4), 0, v.Duration-0.1)
			messages = append(messages, chat.Message{Time: mt, User: bot, Text: ad})
		}
	}

	return ChatResult{Log: chat.NewLog(messages), Bursts: bursts}
}

// LabelWindows returns a 0/1 label per window: 1 when the window contains
// the peak of some highlight's reaction burst, i.e. the window is "talking
// about a highlight" in the paper's labeling scheme.
func LabelWindows(windows []chat.Window, bursts []Burst) []int {
	labels := make([]int, len(windows))
	for i, w := range windows {
		for _, b := range bursts {
			if b.Peak >= w.Start && b.Peak < w.End {
				labels[i] = 1
				break
			}
		}
	}
	return labels
}

// burstTopic picks the 2–4 hype words one burst converges on.
func burstTopic(rng *rand.Rand, p Profile) []string {
	n := stats.IntBetween(rng, 2, 4)
	topic := make([]string, n)
	for i := range topic {
		topic[i] = stats.Choice(rng, p.ExcitedVocab)
	}
	return topic
}

// viewers writes the messages of simulated viewers.
type viewers struct {
	rng *rand.Rand
	buf []byte // scratch, reused from message to message
}

// message draws a viewer name ("user" and five digits) and then a text of
// lo..hi words from vocab, joined by spaces. Name and text are cut from
// one string, so a message costs one allocation.
func (v *viewers) message(t float64, vocab []string, lo, hi int) chat.Message {
	b := appendPadded(append(v.buf[:0], "user"...), v.rng.Intn(100000), 5)
	user := len(b)
	n := stats.IntBetween(v.rng, lo, hi)
	for i := 0; i < n; i++ {
		if i > 0 {
			b = append(b, ' ')
		}
		b = append(b, stats.Choice(v.rng, vocab)...)
	}
	v.buf = b
	s := string(b)
	return chat.Message{Time: t, User: s[:user], Text: s[user:]}
}

// appendPadded appends the decimal form of n >= 0, zero-padded to width
// digits: fmt's %0*d.
func appendPadded(dst []byte, n, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(n), 10)
	for i := len(d); i < width; i++ {
		dst = append(dst, '0')
	}
	return append(dst, d...)
}
