// Package chat models time-stamped live-chat logs: the implicit feedback
// stream the Highlight Initializer consumes. It provides the message type,
// log containers, JSON-lines and CSV codecs, and sliding-window
// construction (Algorithm 1, line 1 of the LIGHTOR paper).
package chat

import (
	"fmt"
	"slices"
	"sort"
)

// Message is one chat message with its offset (in seconds) from the start
// of the recorded video. Live platforms archive chat with exactly this
// alignment, which is what makes chat usable as implicit crowd feedback.
type Message struct {
	Time float64 `json:"time"` // seconds from video start
	User string  `json:"user"`
	Text string  `json:"text"`
}

// Log is a chat log sorted by timestamp.
type Log struct {
	messages []Message
}

// NewLog builds a Log from messages, copying them and ordering the copy by
// time (stable, so same-timestamp messages keep their arrival order). The
// order is exactly sort.SliceStable's under Time <. Input already in time
// order (crawled, replayed or posted chat) costs one linear check and no
// sort.
func NewLog(messages []Message) *Log {
	return &Log{messages: sortedByTime(messages, false)}
}

// newOwnedLog is NewLog for a slice the caller hands over: already-ordered
// input becomes the log as it is, without a second copy.
func newOwnedLog(messages []Message) *Log {
	return &Log{messages: sortedByTime(messages, true)}
}

// sortedByTime returns messages in the order sort.SliceStable puts them
// under Time <: messages itself when owned and already in order, a fresh
// slice otherwise. messages is never modified.
func sortedByTime(messages []Message, owned bool) []Message {
	if timeOrdered(messages) {
		// A stable sort of ordered input under a strict weak order is the
		// identity.
		if owned {
			return messages
		}
		ms := make([]Message, len(messages))
		copy(ms, messages)
		return ms
	}
	if slices.ContainsFunc(messages, func(m Message) bool { return m.Time != m.Time }) {
		// NaN compares false both ways, so < is no strict weak order and
		// only the algorithm itself says where things land. SortStableFunc
		// runs sort.SliceStable's insertion sort and symMerge, asking
		// cmp(a, b) < 0 wherever SliceStable asks less(a, b). (cmp.Compare
		// would not do: it orders NaN first.)
		ms := make([]Message, len(messages))
		copy(ms, messages)
		slices.SortStableFunc(ms, func(a, b Message) int {
			if a.Time < b.Time {
				return -1
			}
			return 0
		})
		return ms
	}
	// Without NaN, Time < is a strict weak order (-0 ties with +0), so the
	// stable order is the one that breaks ties by input index. Sorting
	// pointer-free (Time, index) keys swaps 16 bytes with no write barrier;
	// the messages then move once.
	keys := make([]timeKey, len(messages))
	for i := range messages {
		keys[i] = timeKey{messages[i].Time, i}
	}
	slices.SortFunc(keys, func(a, b timeKey) int {
		switch {
		case a.t < b.t:
			return -1
		case b.t < a.t:
			return 1
		}
		return a.i - b.i
	})
	ms := make([]Message, len(messages))
	for j, k := range keys {
		ms[j] = messages[k.i]
	}
	return ms
}

// timeOrdered reports whether messages are in time order and free of NaN.
func timeOrdered(messages []Message) bool {
	for i := range messages {
		t := messages[i].Time
		if t != t || (i > 0 && t < messages[i-1].Time) {
			return false
		}
	}
	return true
}

// timeKey is one message's sort key: its time, and its index in the input
// as the tie-break that makes the order stable.
type timeKey struct {
	t float64
	i int
}

// Len returns the number of messages.
func (l *Log) Len() int { return len(l.messages) }

// Messages returns the sorted messages. Callers must not modify the slice.
func (l *Log) Messages() []Message { return l.messages }

// At returns message i.
func (l *Log) At(i int) Message { return l.messages[i] }

// Between returns the messages with Time in [from, to).
func (l *Log) Between(from, to float64) []Message {
	lo := sort.Search(len(l.messages), func(i int) bool {
		return l.messages[i].Time >= from
	})
	hi := sort.Search(len(l.messages), func(i int) bool {
		return l.messages[i].Time >= to
	})
	return l.messages[lo:hi]
}

// CountBetween returns the number of messages with Time in [from, to).
func (l *Log) CountBetween(from, to float64) int {
	return len(l.Between(from, to))
}

// Duration returns the timestamp of the last message, a lower bound on the
// video duration when none is recorded separately.
func (l *Log) Duration() float64 {
	if len(l.messages) == 0 {
		return 0
	}
	return l.messages[len(l.messages)-1].Time
}

// RatePerHour returns messages per hour over the given video duration.
// The applicability study (Figure 9a) keys on this: LIGHTOR wants at least
// 500 chats/hour.
func (l *Log) RatePerHour(videoDuration float64) float64 {
	if videoDuration <= 0 {
		return 0
	}
	return float64(len(l.messages)) / (videoDuration / 3600)
}

// Validate checks that all message timestamps are non-negative and within
// the video duration (when positive).
func (l *Log) Validate(videoDuration float64) error {
	for i, m := range l.messages {
		if m.Time < 0 {
			return fmt.Errorf("chat: message %d has negative timestamp %g", i, m.Time)
		}
		if videoDuration > 0 && m.Time > videoDuration {
			return fmt.Errorf("chat: message %d at %gs is beyond video duration %gs",
				i, m.Time, videoDuration)
		}
	}
	return nil
}
