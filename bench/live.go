package main

import (
	"encoding/json"
	"strconv"
	"time"

	"lightor"
	"lightor/bench/inputs"
)

// liveServerFlags start the server both live workloads drive: warm-up off
// so the reference and the server emit from the first window, and enough
// simulated videos to crawl (128) that exec → ready takes more than half a
// second even in the machine's fastest minutes, well above timer noise.
const (
	liveCrawlChannels = 8
	liveCrawlVideos   = 16
)

var liveServerFlags = []string{"-channels", strconv.Itoa(liveCrawlChannels), "-videos", strconv.Itoa(liveCrawlVideos), "-warmup", "-1"}

// liveChannel is one broadcast slot: a stream being fed under a channel id,
// restarted under a fresh id when the stream ends so bodies are reused and
// the server never sees time go backwards on a channel.
type liveChannel struct {
	prefix  string
	slot    int
	gen     int
	streams []*inputs.Stream // the slot's kind; successive passes walk them
	stream  *inputs.Stream   // the pass being fed
	id      string
	chat    string // POST target
	dots    string // GET target prefix, up to "cursor="
	next    int    // next body to feed
	seen    int    // dots of this pass already checked against the reference
	posts   int64  // POSTs of this pass, all failed if the pass turns out wrong
	bad     bool   // a result of this pass differed from the reference
}

// newLiveChannel makes slot a broadcast slot over streams, all of one kind.
// Slot s starts on stream s/2 and moves one stream on with every pass, so a
// run's cost is an average over all the seed's streams and not the luck of
// which one a hot slot was dealt.
func newLiveChannel(prefix string, slot int, streams []*inputs.Stream) *liveChannel {
	ch := &liveChannel{prefix: prefix, slot: slot, streams: streams}
	ch.rename()
	return ch
}

// rename starts the next pass of the slot's stream under a fresh channel id.
func (ch *liveChannel) rename() {
	ch.stream = ch.streams[(ch.slot/2+ch.gen)%len(ch.streams)]
	ch.id = ch.prefix + "-" + strconv.Itoa(ch.slot) + "-" + strconv.Itoa(ch.gen)
	ch.chat = "/api/live/chat?channel=" + ch.id
	ch.dots = "/api/live/dots?channel=" + ch.id + "&cursor="
	ch.gen++
	ch.next, ch.seen, ch.posts, ch.bad = 0, 0, 0, false
}

// liveDots is the body of GET /api/live/dots and DELETE /api/live/session.
type liveDots struct {
	Dots   []lightor.RedDot `json:"dots"`
	Cursor int              `json:"cursor"`
}

// fedDots is the number of dots the reference has emitted after the bodies
// fed so far: what a correct server can show at most.
func (ch *liveChannel) fedDots() int {
	if ch.next == 0 {
		return 0
	}
	return ch.stream.After[ch.next-1]
}

// checkDelta checks a served page of dots [from, from+len) against the
// reference history and marks the pass bad on any difference.
func (ch *liveChannel) checkDelta(from int, page liveDots) {
	to := from + len(page.Dots)
	if page.Cursor != to || to > len(ch.stream.Dots) || !inputs.SameDots(page.Dots, ch.stream.Dots[from:to]) {
		ch.bad = true
	}
}

// post feeds the channel's next body and returns when it was sent and when
// the 202 was read; done is zero if the POST failed.
func (ch *liveChannel) post(c *conn, r *recorder) (sent, done time.Time) {
	sent = time.Now()
	status, _, err := c.do("POST", ch.chat, "", ch.stream.Bodies[ch.next])
	done = time.Now()
	r.attempted++
	ch.posts++
	if err != nil || status != 202 {
		r.failed++
		return sent, time.Time{}
	}
	ch.next++
	return sent, done
}

// awaitDots polls the channel's dots until the server shows want of them
// (the reference count after the bodies fed so far), checks the new page
// against the reference and returns when it became visible.
func (ch *liveChannel) awaitDots(c *conn, r *recorder, want int, patience time.Duration) (time.Time, bool) {
	target := ch.dots + strconv.Itoa(ch.seen)
	deadline := time.Now().Add(patience)
	for {
		status, _, err := c.do("GET", target, "", nil)
		now := time.Now()
		r.attempted++
		if err != nil || status != 200 {
			r.failed++
			return now, false
		}
		var page liveDots
		if err := json.Unmarshal(c.body.Bytes(), &page); err != nil {
			ch.bad = true
			return now, false
		}
		if page.Cursor >= want {
			ch.checkDelta(ch.seen, page)
			if page.Cursor > want { // more dots than the fed prefix can have produced
				ch.bad = true
			}
			ch.seen = page.Cursor
			return now, !ch.bad
		}
		if now.After(deadline) {
			ch.bad = true
			return now, false
		}
	}
}

// finish ends a completed pass: DELETE the session, which flushes it and
// returns the full emission history, and hold that against the reference.
// A pass that served anything wrong fails every POST it made.
func (ch *liveChannel) finish(c *conn, r *recorder) {
	status, _, err := c.do("DELETE", "/api/live/session?channel="+ch.id, "", nil)
	r.attempted++
	if err != nil || status != 200 {
		r.failed++
		ch.bad = true
	} else {
		var all liveDots
		if err := json.Unmarshal(c.body.Bytes(), &all); err != nil || all.Cursor != len(all.Dots) || !inputs.SameDots(all.Dots, ch.stream.Dots) {
			ch.bad = true
		}
	}
	ch.settle(r)
}

// settle closes the books on a pass: one wrong result fails every POST of
// the pass, because no part of a wrong stream can be trusted.
func (ch *liveChannel) settle(r *recorder) {
	if ch.bad {
		r.failed += ch.posts
		r.wrong("channel %s (body %d of %d): served dots differ from the reference", ch.id, ch.next, len(ch.stream.Bodies))
	}
}

// checkPrefix is the end-of-run check of a pass still in flight: the fed
// prefix must serve exactly the reference's dots for that prefix.
func (ch *liveChannel) checkPrefix(c *conn, r *recorder) {
	if ch.next > 0 {
		ch.awaitDots(c, r, ch.fedDots(), 5*time.Second)
	}
	ch.settle(r)
}
