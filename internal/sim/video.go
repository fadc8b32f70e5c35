// Package sim is the synthetic substitute for the paper's data sources:
// Twitch chat logs (60 Dota2 + 173 LoL videos) and the play data collected
// from 492 Amazon Mechanical Turk workers. Neither resource is reachable
// from an offline library, so sim generates equivalents that exercise the
// same code paths and preserve the statistical structure the paper's
// techniques exploit:
//
//   - chat bursts that FOLLOW highlights by a reaction delay (~25 s), made
//     of short, mutually similar messages (Figure 2);
//   - background chatter, long off-topic discussion bursts, and
//     advertisement chat-bot bursts — the noise sources that break the
//     naive count-the-messages detector (Section IV-C1);
//   - viewer play behaviour around red dots that is near-uniform when the
//     dot lands after the highlight (Type I) and near-normal when it lands
//     before the end (Type II), matching Figure 3.
//
// All generators take an explicit *rand.Rand and are fully deterministic
// given the seed.
package sim

import (
	"fmt"
	"math/rand"

	"lightor/internal/core"
	"lightor/internal/stats"
)

// Interval aliases the core interval type: simulated ground truth feeds
// directly into the workflow and evaluation code without conversion.
type Interval = core.Interval

// Video is a recorded live video with ground-truth highlight annotations.
type Video struct {
	ID         string
	Game       string
	Duration   float64 // seconds
	Highlights []Interval
}

// Profile bundles the per-game generation parameters. Two stock profiles
// mirror the paper's datasets: Dota2Profile (Twitch personal channels) and
// LoLProfile (NALCS championship broadcasts). They differ in video length,
// highlight density, chat vocabulary, and chat-noise mix, which is exactly
// the difference the generalization experiments (Figure 11) lean on.
type Profile struct {
	Game string

	// Video shape.
	MinDuration, MaxDuration         float64
	MeanHighlights                   int
	MinHighlightLen, MaxHighlightLen float64

	// Chat behaviour.
	BackgroundRate     float64 // messages/second of ambient chatter
	BurstMin, BurstMax int     // messages per highlight burst
	ReactionDelayMean  float64 // seconds from highlight start to burst peak
	ReactionDelayStd   float64
	BurstSpread        float64 // stddev of message times around the peak
	DiscussionPerHour  float64 // off-topic discussion bursts per hour
	BotPerHour         float64 // advertisement chat-bot bursts per hour

	// Vocabulary.
	ExcitedVocab []string // short hype words and emotes
	CasualVocab  []string // everything else
	BotAds       []string // long advertisement lines
}

// Dota2Profile returns the generation profile for Dota2-like personal
// channel streams: 0.5–2 h videos, ~10 highlights of 5–50 s each.
func Dota2Profile() Profile {
	return Profile{
		Game:              "dota2",
		MinDuration:       1800,
		MaxDuration:       7200,
		MeanHighlights:    10,
		MinHighlightLen:   5,
		MaxHighlightLen:   50,
		BackgroundRate:    0.15,
		BurstMin:          30,
		BurstMax:          80,
		ReactionDelayMean: 25,
		ReactionDelayStd:  6,
		BurstSpread:       6,
		DiscussionPerHour: 5,
		BotPerHour:        3,
		ExcitedVocab: []string{
			"kill", "rampage", "gg", "wow", "insane", "pog", "omg",
			"wombo", "ultrakill", "lmao", "clutch", "nice", "👍", "😄",
		},
		CasualVocab: []string{
			"anyone", "know", "what", "patch", "this", "is", "stream",
			"quality", "today", "lunch", "pizza", "internet", "drops",
			"music", "playlist", "rank", "mmr", "hero", "item", "build",
			"guide", "watching", "from", "work", "hello", "everyone",
			"first", "time", "here", "love", "channel", "how", "long",
			"playing", "game", "favorite", "team", "tournament", "when",
			"next", "match", "weather", "nice", "cat", "dog", "keyboard",
		},
		BotAds: []string{
			"BEST CHEAP SKINS VISIT OUR STORE TODAY BIG DISCOUNT CODE TWITCH",
			"FREE GIVEAWAY CLICK THE LINK IN MY PROFILE TO WIN A KNIFE NOW",
			"BOOST YOUR MMR FAST CHEAP SAFE PROFESSIONAL PLAYERS JOIN NOW",
		},
	}
}

// LoLProfile returns the generation profile for LoL-like championship
// broadcasts: 0.5–1 h videos, ~14 highlights of 2–81 s each, busier chat
// with a different emote vocabulary.
func LoLProfile() Profile {
	return Profile{
		Game:              "lol",
		MinDuration:       1800,
		MaxDuration:       3600,
		MeanHighlights:    14,
		MinHighlightLen:   2,
		MaxHighlightLen:   81,
		BackgroundRate:    0.25,
		BurstMin:          25,
		BurstMax:          70,
		ReactionDelayMean: 24,
		ReactionDelayStd:  6,
		BurstSpread:       6,
		DiscussionPerHour: 6,
		BotPerHour:        2,
		ExcitedVocab: []string{
			"pentakill", "baron", "ace", "gg", "flash", "outplayed",
			"insec", "poggers", "hype", "clean", "wp", "ez", "🔥", "👏",
		},
		CasualVocab: []string{
			"who", "wins", "this", "series", "caster", "voice", "great",
			"crowd", "loud", "arena", "looks", "amazing", "meta", "pick",
			"ban", "phase", "draft", "support", "jungle", "mid", "lane",
			"scaling", "comp", "teamfight", "objective", "dragon", "soul",
			"watching", "with", "friends", "snack", "break", "hello",
			"chat", "from", "europe", "korea", "china", "na", "predictions",
		},
		BotAds: []string{
			"WIN RP CODES EVERY HOUR JOIN OUR DISCORD SERVER LINK BELOW NOW",
			"CHEAP ACCOUNTS ALL REGIONS INSTANT DELIVERY VISIT OUR WEBSITE",
		},
	}
}

// GenerateVideo creates a video with non-overlapping ground-truth
// highlights. Highlight count varies ±30% around the profile mean and
// placements keep at least minGap seconds between highlights so red-dot
// separation (δ = 120 s) is meaningful.
func GenerateVideo(rng *rand.Rand, p Profile, id string) Video {
	duration := stats.Uniform(rng, p.MinDuration, p.MaxDuration)
	n := p.MeanHighlights
	if jitter := n * 3 / 10; jitter > 0 {
		n += stats.IntBetween(rng, -jitter, jitter)
	}
	if n < 1 {
		n = 1
	}
	const minGap = 150.0
	var highlights []Interval
	// Rejection-sample starts; with durations ≥ 30 min and ≤ ~18 highlights
	// this terminates quickly. Cap attempts defensively anyway.
	for attempts := 0; len(highlights) < n && attempts < 10000; attempts++ {
		// Quadratic skew toward short highlights: most kills and plays are
		// brief, long teamfights are rare. This matters for fidelity — the
		// crowd's ~25 s reaction delay overshoots short highlights, which
		// is precisely what defeats unadjusted detectors (Figure 7a) and
		// creates the Type I red dots the extractor must repair (Figure 8).
		r := rng.Float64()
		length := p.MinHighlightLen + float64((p.MaxHighlightLen-p.MinHighlightLen)*r*r)
		start := stats.Uniform(rng, 60, duration-length-60)
		ok := true
		for _, h := range highlights {
			if start < h.End+minGap && h.Start < start+length+minGap {
				ok = false
				break
			}
		}
		if ok {
			highlights = append(highlights, Interval{Start: start, End: start + length})
		}
	}
	// Sort chronologically for stable downstream behaviour.
	for a := 1; a < len(highlights); a++ {
		for b := a; b > 0 && highlights[b].Start < highlights[b-1].Start; b-- {
			highlights[b], highlights[b-1] = highlights[b-1], highlights[b]
		}
	}
	return Video{
		ID:         fmt.Sprintf("%s-%s", p.Game, id),
		Game:       p.Game,
		Duration:   duration,
		Highlights: highlights,
	}
}
