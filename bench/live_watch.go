package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strconv"
	"sync/atomic"
	"time"

	"lightor"
	"lightor/bench/inputs"
	"lightor/internal/stats"
)

// live-watch: viewers outnumber broadcasters. One request connection sends,
// as fast as its responses come back, a Zipf-skewed mix over 16 live
// channels — 90% conditional polls of a channel's dots, 2% highlight
// fetches, 8% chat POSTs that keep the broadcasts (and so the dots) moving —
// while one server-sent-events connection watches the hottest channel and
// times how long after the POST that finalizes a dot the dot arrives.
//
// The loop is closed, which is NOT what the issue asked for (an open loop
// at a fixed 3000 req/s, latency from the due time). That loop was built
// first — paced by nanosleep on a pinned thread — and was unmeasurable on
// the two-core VM this was written on: at the 20–60% utilisation a fixed
// rate leaves, every request wakes a halted vCPU, and what that costs is
// the host's to set. The same conditional GET took 0.07 ms of round trip in
// one hour and 0.25 ms in the next, ten runs had an inter-quartile range of
// 30% on every latency. README, "Blocked criteria".
const (
	watchChannels = 16
	watchZipfS    = 1.2
	watchBatch    = 32
	// Request mix, in shares of the schedule.
	watchPollShare       = 0.90
	watchHighlightsShare = 0.02
	// watchSteps is the length of the pre-drawn schedule; the connection
	// starts over when it reaches the end.
	watchSteps = 1 << 20
	// watchMemShare: see load.memShare. A request here is tens of
	// microseconds between two changes of address space, most of it spent
	// refilling caches: no workload follows the yardstick's walk as closely
	// (three sets of ten to sixteen runs were steadiest at 0.9–1.2, at
	// 0.6–0.8 and at 1.0–1.2).
	watchMemShare = 0.95
)

type watchOp uint8

const (
	opPoll watchOp = iota
	opHighlights
	opChat
)

// watchStep is one entry of the pre-drawn schedule.
type watchStep struct {
	op    watchOp
	which int // channel rank, or video index for opHighlights
}

// watchSchedule draws the request sequence for n steps from the seed.
func watchSchedule(seed int64, n, videos int) []watchStep {
	rng := stats.NewRand(seed + 2)
	cdf := make([]float64, watchChannels)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), watchZipfS)
		cdf[r] = sum
	}
	steps := make([]watchStep, n)
	for i := range steps {
		u := rng.Float64() * sum
		rank := 0
		for rank < watchChannels-1 && u > cdf[rank] {
			rank++
		}
		switch m := rng.Float64(); {
		case m < watchPollShare:
			steps[i] = watchStep{opPoll, rank}
		case m < watchPollShare+watchHighlightsShare:
			steps[i] = watchStep{opHighlights, rng.Intn(videos)}
		default:
			steps[i] = watchStep{opChat, rank}
		}
	}
	return steps
}

// watchVideo is one crawled video: the request that fetches its highlights
// and the exact body a correct server answers with.
type watchVideo struct {
	target string
	body   []byte
}

// highlightsBody is the part of GET /api/highlights' payload that is checked.
type highlightsBody struct {
	Dots []lightor.RedDot `json:"dots"`
}

// fetchHighlights GETs every crawled video's highlights once (the cold
// detection happens here, outside every timer), checks the dots against the
// reference detector and keeps the bodies for the run's byte comparison.
func fetchHighlights(addr string, ref *inputs.Reference, vids []inputs.Video) ([]watchVideo, error) {
	c, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.close()
	out := make([]watchVideo, len(vids))
	for i, v := range vids {
		want, err := ref.Det.DetectRedDots(v.Messages, v.Sim.Duration, inputs.RefineK)
		if err != nil {
			return nil, err
		}
		// k is the number of dots detection finds on the video. With the
		// default k = 5, a video on which it finds fewer is re-detected by
		// EVERY GET (1.5 ms instead of 15 µs), and how many such videos a
		// seed has would set the workload's cost.
		target := "/api/highlights?video=" + v.Sim.ID + "&k=" + strconv.Itoa(max(len(want), 1))
		status, _, err := c.do("GET", target, "", nil)
		if err != nil {
			return nil, err
		}
		if status != 200 {
			return nil, fmt.Errorf("GET %s: status %d", target, status)
		}
		var got highlightsBody
		if err := json.Unmarshal(c.body.Bytes(), &got); err != nil {
			return nil, fmt.Errorf("GET %s: %w", target, err)
		}
		if !inputs.SameDots(got.Dots, want) {
			return nil, fmt.Errorf("GET %s: served red dots differ from the reference detector's", target)
		}
		out[i] = watchVideo{target: target, body: bytes.Clone(c.body.Bytes())}
	}
	return out, nil
}

// watchChannel is a live channel as the viewers' poller sees it.
type watchChannel struct {
	*liveChannel
	etag string // validator of the last poll at cursor seen; "" after the cursor moved
}

// probePass is one broadcast of the probe channel handed to the SSE
// goroutine: where to subscribe, what the reference expects, and when each
// body was sent (written by the request goroutine before the send, read by
// the SSE goroutine after the dot it finalized has come back).
type probePass struct {
	id      string
	stream  *inputs.Stream
	trigger []int
	sentAt  []atomic.Int64 // unix nanoseconds, per body
}

func runLiveWatch(e *env, seed int64, sh shape) (*result, error) {
	res := &result{workload: "live-watch", seed: seed}
	ref, err := inputs.NewReference()
	if err != nil {
		return nil, err
	}
	vids := ref.Crawl(liveCrawlChannels, liveCrawlVideos)
	dig := inputs.NewDigest()
	sparse, dense, err := ref.LiveStreams(seed, watchBatch, dig)
	if err != nil {
		return nil, err
	}
	steps := watchSchedule(seed, watchSteps, len(vids))
	sched := make([]byte, 0, 2*len(steps))
	for _, st := range steps {
		sched = append(sched, byte(st.op), byte(st.which))
	}
	dig.Add(sched)
	res.inputsDigest = dig.Hex()

	srv, setups, err := startServerRounds(e, res.workload, func(int) ([]string, error) { return liveServerFlags, nil })
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	videos, err := fetchHighlights(srv.addr, ref, vids)
	if err != nil {
		return nil, err
	}

	// Rank 0, the probe channel, is sparse: its stream time runs fast, so it
	// finalizes dots many times a second. The rest alternate.
	chans := make([]*watchChannel, watchChannels)
	for rank := range chans {
		streams := sparse
		if rank%2 == 1 {
			streams = dense
		}
		chans[rank] = &watchChannel{liveChannel: newLiveChannel("lw", rank, streams)}
	}

	w := window{shape: sh, start: time.Now().Add(sh.warmup)}
	g := &watchGen{w: w, steps: steps, chans: chans, videos: videos, sse: newRecorder(w), passes: make(chan *probePass, 1)}
	sseConn, err := dial(srv.addr)
	if err != nil {
		return nil, err
	}
	var sseErr error
	sseDone := make(chan struct{})
	go func() {
		defer close(sseDone)
		sseErr = g.watchProbe(sseConn)
	}()
	rec, series, err := drive(w, 1, func(_ int, r *recorder) error {
		return g.requestLoop(srv.addr, r)
	}, srv.cpuSeconds, selfCPUSeconds)
	close(g.passes)
	sseConn.close() // unblocks the SSE reader; its read error is then expected
	<-sseDone
	if err == nil {
		err = sseErr
	}
	if err != nil {
		return nil, err
	}
	return finish(res, srv, load{rec: mergeRecorders([]*recorder{rec, g.sse}), cpu: series[0], gen: series[1], setups: setups, memShare: watchMemShare, endpoint: "live_dots"})
}

// watchGen is the generator of one live-watch run: the request goroutine
// and the SSE goroutine, each with its own connection and recorder.
type watchGen struct {
	w      window
	steps  []watchStep
	chans  []*watchChannel
	videos []watchVideo
	sse    *recorder
	passes chan *probePass // probe-channel broadcasts, request goroutine → SSE goroutine
	probe  *probePass      // owned by the request goroutine
}

// requestLoop walks the pre-drawn schedule, sending each step as soon as
// the previous response is in, so the mix the server sees is exactly the
// schedule's — the one the inputs digest covers — whatever the timing.
func (g *watchGen) requestLoop(addr string, r *recorder) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	for _, ch := range g.chans {
		g.post(c, r, ch) // every broadcast is live before the polls start
	}
	end := g.w.end()
	for i := 0; time.Now().Before(end); i++ {
		r.relax()
		step := g.steps[i%len(g.steps)]
		sent := time.Now()
		var done time.Time // when the response was read; zero if the request failed
		switch step.op {
		case opPoll:
			done = g.poll(c, r, g.chans[step.which])
		case opHighlights:
			done = g.highlights(c, r, g.videos[step.which])
		case opChat:
			done = g.chat(c, r, g.chans[step.which])
		}
		if !done.IsZero() {
			r.opDone(done, done.Sub(sent), 1)
		}
	}
	for _, ch := range g.chans {
		ch.checkPrefix(c, r)
	}
	return nil
}

// poll is a viewer's conditional GET of a channel's dots: 304 while nothing
// changed, 200 with the new dots (checked against the reference) when
// something did.
func (g *watchGen) poll(c *conn, r *recorder, ch *watchChannel) time.Time {
	r.attempted++
	status, etag, err := c.do("GET", ch.dots+strconv.Itoa(ch.seen), ch.etag, nil)
	done := time.Now()
	switch {
	case err != nil:
	case status == 304 && ch.etag != "":
		return done
	case status == 200:
		var page liveDots
		if err := json.Unmarshal(c.body.Bytes(), &page); err != nil {
			ch.bad = true
			return done
		}
		ch.checkDelta(ch.seen, page)
		if page.Cursor > ch.fedDots() {
			ch.bad = true // more dots than the fed bodies can have finalized
		}
		if page.Cursor != ch.seen {
			ch.seen, etag = page.Cursor, "" // the validator belonged to the old cursor's URL
		}
		ch.etag = etag
		return done
	}
	r.failed++
	return time.Time{}
}

func (g *watchGen) highlights(c *conn, r *recorder, v watchVideo) time.Time {
	r.attempted++
	status, _, err := c.do("GET", v.target, "", nil)
	done := time.Now()
	if err != nil || status != 200 {
		r.failed++
		return time.Time{}
	}
	if !bytes.Equal(c.body.Bytes(), v.body) {
		r.failed++
		r.wrong("GET %s: body changed during the run", v.target)
		return time.Time{}
	}
	return done
}

// chat feeds the channel's next body. A broadcast that ends is closed and
// its successor started at once, so polls always find a live session.
func (g *watchGen) chat(c *conn, r *recorder, ch *watchChannel) time.Time {
	done := g.post(c, r, ch)
	if ch.next == len(ch.stream.Bodies) {
		ch.finish(c, r)
		ch.rename()
		ch.etag = ""
		g.post(c, r, ch)
	}
	return done
}

// post sends the channel's next body. On the probe channel the send time is
// published first, for the SSE goroutine's freshness samples.
func (g *watchGen) post(c *conn, r *recorder, ch *watchChannel) time.Time {
	probe := ch.slot == 0
	if probe {
		if ch.next == 0 {
			s := ch.stream
			g.probe = &probePass{id: ch.id, stream: s, trigger: s.Trigger(), sentAt: make([]atomic.Int64, len(s.Bodies))}
		}
		g.probe.sentAt[ch.next].Store(time.Now().UnixNano())
	}
	_, done := ch.liveChannel.post(c, r)
	if probe && ch.next == 1 && !done.IsZero() {
		// The session exists now; the watcher may subscribe.
		select {
		case g.passes <- g.probe:
		default:
			r.wrong("channel %s: the event-stream watcher is a whole broadcast behind", ch.id)
		}
	}
	return done
}

// watchProbe is the SSE goroutine: for each broadcast of the probe channel
// it subscribes, reads dot frames until the stream's terminal frame, checks
// every delivered dot against the reference and records, per dot, the time
// from the sending of the body that finalized it to the frame's arrival.
func (g *watchGen) watchProbe(c *conn) error {
	r := g.sse
	for p := range g.passes {
		body, err := c.openStream("/api/live/stream?channel=" + p.id + "&cursor=0")
		if err != nil {
			if time.Now().After(g.w.end()) {
				return nil // the request loop closed the connection: the run is over
			}
			return err
		}
		r.attempted++
		got := 0
		err = readSSE(body, func(event string, data []byte) {
			at := time.Now()
			if event != "dots" {
				return
			}
			var page liveDots
			if err := json.Unmarshal(data, &page); err != nil || page.Cursor != got+len(page.Dots) ||
				page.Cursor > len(p.stream.Dots) || !inputs.SameDots(page.Dots, p.stream.Dots[got:page.Cursor]) {
				r.failed++
				r.wrong("channel %s: pushed dots differ from the reference at cursor %d", p.id, got)
				return
			}
			for j := got; j < page.Cursor && j < len(p.trigger); j++ {
				if sent := p.sentAt[p.trigger[j]].Load(); sent != 0 {
					r.freshDone(at, at.Sub(time.Unix(0, sent)))
				}
			}
			got = page.Cursor
		})
		body.Close()
		if err != nil {
			if time.Now().After(g.w.end()) {
				return nil
			}
			return fmt.Errorf("event stream of %s: %w", p.id, err)
		}
		if got != len(p.stream.Dots) {
			r.failed++
			r.wrong("channel %s: event stream ended at %d dots, the reference has %d", p.id, got, len(p.stream.Dots))
		}
	}
	return nil
}

// readSSE reads server-sent-event frames until the stream ends, calling fn
// with each frame's event name and data.
func readSSE(body io.Reader, fn func(event string, data []byte)) error {
	sc := bufio.NewScanner(body)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var event string
	var data []byte
	for sc.Scan() {
		line := sc.Bytes()
		switch {
		case len(line) == 0:
			if data != nil {
				fn(event, data)
			}
			event, data = "", nil
		case bytes.HasPrefix(line, []byte("event: ")):
			event = string(line[len("event: "):])
		case bytes.HasPrefix(line, []byte("data: ")):
			if data != nil {
				data = append(data, '\n')
			}
			data = append(data, line[len("data: "):]...)
		}
	}
	return sc.Err()
}
