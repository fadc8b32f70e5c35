package main

import (
	"time"

	"lightor/bench/inputs"
)

// live-ingest: the Highlight Initializer at saturation. One closed-loop
// connection POSTs 256-message chat batches round-robin over 64 live
// channels, half sparse and half dense; the server spends its time in chat
// decode, the handler, the session mailbox and Feed.
const (
	ingestBatch    = 256
	ingestChannels = 64
	// ingestMemShare: see load.memShare. Three sets of ten to sixteen runs,
	// each through an hour in which the yardstick's walk moved by a third to
	// a half, were steadiest at 0.5–0.6, at 0.8–0.9 and at 0.7–0.9.
	ingestMemShare = 0.75
)

func runLiveIngest(e *env, seed int64, sh shape) (*result, error) {
	res := &result{workload: "live-ingest", seed: seed}
	ref, err := inputs.NewReference()
	if err != nil {
		return nil, err
	}
	dig := inputs.NewDigest()
	sparse, dense, err := ref.LiveStreams(seed, ingestBatch, dig)
	if err != nil {
		return nil, err
	}
	res.inputsDigest = dig.Hex()

	srv, setups, err := startServerRounds(e, res.workload, func(int) ([]string, error) { return liveServerFlags, nil })
	if err != nil {
		return nil, err
	}
	defer srv.stop()

	// Channels are partitioned by connection (benchProcs of them: one), so
	// one channel's bodies are always sent in order by one goroutine; each
	// connection carries the same mix of sparse and dense.
	perConn := ingestChannels / benchProcs
	chans := make([][]*liveChannel, benchProcs)
	for k := range chans {
		for i := 0; i < perConn; i++ {
			slot := k*perConn + i
			streams := sparse
			if slot%2 == 1 {
				streams = dense
			}
			chans[k] = append(chans[k], newLiveChannel("li", slot, streams))
		}
	}

	w := window{shape: sh, start: time.Now().Add(sh.warmup)}
	rec, series, err := drive(w, benchProcs, func(k int, r *recorder) error {
		return ingestLoop(srv.addr, chans[k], r)
	}, srv.cpuSeconds, selfCPUSeconds)
	if err != nil {
		return nil, err
	}
	return finish(res, srv, load{rec: rec, cpu: series[0], gen: series[1], setups: setups, memShare: ingestMemShare, endpoint: "live_chat"})
}

// ingestLoop is a closed-loop connection: the next POST goes out when the
// previous response is in. What the server did with the messages is checked
// when a broadcast ends (DELETE returns its whole history) and, for the
// broadcasts still running when the clock stops, on the fed prefix.
func ingestLoop(addr string, chans []*liveChannel, r *recorder) error {
	c, err := dial(addr)
	if err != nil {
		return err
	}
	defer c.close()
	end := r.w.end()
	for time.Now().Before(end) {
		for _, ch := range chans {
			r.relax()
			sent, done := ch.post(c, r)
			if done.IsZero() {
				continue // counted as failed; the body is offered again next round
			}
			r.opDone(done, done.Sub(sent), ch.stream.BodyMsgs[ch.next-1])
			if ch.next == len(ch.stream.Bodies) {
				ch.finish(c, r)
				ch.rename()
			}
		}
	}
	for _, ch := range chans {
		ch.checkPrefix(c, r)
	}
	return nil
}
