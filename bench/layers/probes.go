package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"lightor"
	"lightor/bench/inputs"
	"lightor/internal/chat"
	"lightor/internal/cluster"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/platform"
	"lightor/internal/play"
	"lightor/internal/text"
	"lightor/internal/wal"
)

// Workload tags: the workload whose end-to-end numbers a probe's layer is
// predicted to move (README, "what each layer metric should move").
const (
	wIngest = "live-ingest"
	wWatch  = "live-watch"
	wRefine = "vod-refine"
	wBatch  = "vod-batch"
)

// until calls step until the budget is spent, at least once.
func until(budget time.Duration, step func(i int) error) error {
	end := time.Now().Add(budget)
	for i := 0; i == 0 || time.Now().Before(end); i++ {
		if err := step(i); err != nil {
			return err
		}
	}
	return nil
}

var ctx = context.Background()

// ingestTree replays whole broadcasts of live-ingest at every depth a chat
// message passes on its way in: loopback HTTP → the handler in-process →
// {the JSON decode, the session mailbox → the detector → the similarity
// accumulator}. One trace is one broadcast; each depth gets the same
// bodies. A pass ends by closing the session, which waits for the
// asynchronous part of the work, so every depth's span covers the whole
// cost of the broadcast at that depth.
func ingestTree(f *fixture, t *tracer, budget time.Duration) error {
	svcNet, engNet, err := f.newService()
	if err != nil {
		return err
	}
	defer engNet.Close(ctx)
	svcIn, engIn, err := f.newService()
	if err != nil {
		return err
	}
	defer engIn.Close(ctx)
	eng, err := f.newEngine(engine.Config{})
	if err != nil {
		return err
	}
	defer eng.Close(ctx)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: svcNet.Handler()}
	go srv.Serve(ln)
	defer srv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	defer client.CloseIdleConnections()
	handler := svcIn.Handler()
	w := newSink()
	acc := text.NewSimilarityAccumulator()
	size := f.init.Config().WindowSize
	var scratch []chat.Message

	streams := append(append([]*inputs.Stream(nil), f.sparse...), f.dense...)
	return until(budget, func(i int) error {
		s := streams[(i*5)%len(streams)] // 5 is coprime to 16: alternates kinds, visits all
		batches, err := decode(s)
		if err != nil {
			return err
		}
		id := "probe-" + strconv.Itoa(i)
		k := kind(s)

		root := t.root(wIngest, "http", "loopback-"+k)
		for _, body := range s.Bodies {
			resp, err := client.Post(base+"/api/live/chat?channel="+id, "application/json", bytes.NewReader(body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted {
				return fmt.Errorf("loopback POST: status %d", resp.StatusCode)
			}
		}
		req, _ := http.NewRequest(http.MethodDelete, base+"/api/live/session?channel="+id, nil)
		resp, err := client.Do(req)
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		root.end("messages", s.Messages, "requests", len(s.Bodies)+1)

		plat := root.child("platform", "ServeHTTP-"+k)
		for _, body := range s.Bodies {
			if status := serve(handler, w, "POST", "/api/live/chat", "channel="+id, body); status != http.StatusAccepted {
				return fmt.Errorf("handler POST: status %d", status)
			}
		}
		serve(handler, w, "DELETE", "/api/live/session", "channel="+id, nil)
		plat.end("messages", s.Messages, "requests", len(s.Bodies)+1)

		dec := plat.child("chat", "AppendMessagesJSON")
		for _, body := range s.Bodies {
			var ok bool
			if scratch, _, ok = chat.AppendMessagesJSON(scratch[:0], body); !ok {
				return fmt.Errorf("undecodable body")
			}
		}
		dec.end("messages", s.Messages, "bytes_decoded", bodyBytes(s))

		en := plat.child("engine", "Session.Ingest-"+k)
		sess, err := eng.Sessions().Open(id)
		if err != nil {
			return err
		}
		for _, b := range batches {
			if err := sess.Ingest(b...); err != nil {
				return err
			}
		}
		dots, err := sess.Flush(ctx)
		if err != nil {
			return err
		}
		eng.Sessions().Remove(id)
		en.end("messages", s.Messages, "dots_out", len(dots))

		co := en.child("core", "OnlineDetector.Feed-"+k)
		od, err := core.NewOnlineDetector(f.init, 0)
		if err != nil {
			return err
		}
		od.SetWarmup(0)
		for _, b := range batches {
			for _, m := range b {
				if _, err := od.Feed(m); err != nil {
					return err
				}
			}
		}
		od.Flush()
		co.end("messages", s.Messages, "dots_out", len(od.Emitted()))

		tx := co.child("text", "SimilarityAccumulator.Add")
		windowEnd, windows := 0.0, 0
		for _, b := range batches {
			for _, m := range b {
				if m.Time >= windowEnd {
					acc.Reset()
					windowEnd = (math.Floor(m.Time/size) + 1) * size
					windows++
				}
				acc.Add(m.Text)
			}
		}
		tx.end("messages", s.Messages, "windows_closed", windows)
		if len(dots) != len(s.Dots) || len(od.Emitted()) != len(s.Dots) {
			return fmt.Errorf("probe pass emitted %d/%d dots, the reference %d", len(dots), len(od.Emitted()), len(s.Dots))
		}
		return nil
	})
}

func bodyBytes(s *inputs.Stream) int {
	n := 0
	for _, b := range s.Bodies {
		n += len(b)
	}
	return n
}

// ingestPlatformPass is a broadcast through the handler with a span per
// request, under whatever tracer it is handed: the same code timed with
// tracing on and with tracing off gives trace.overhead_share.
func ingestPlatformPass(t *tracer, handler http.Handler, w *sink, s *inputs.Stream, id string) (time.Duration, error) {
	sp := t.root(wIngest, "trace", "overhead-pass")
	for _, body := range s.Bodies {
		c := sp.child("trace", "overhead-request")
		status := serve(handler, w, "POST", "/api/live/chat", "channel="+id, body)
		c.end("messages", 1)
		if status != http.StatusAccepted {
			return 0, fmt.Errorf("handler POST: status %d", status)
		}
	}
	serve(handler, w, "DELETE", "/api/live/session", "channel="+id, nil)
	return sp.end("messages", s.Messages), nil
}

// traceOverhead alternates traced and untraced passes of the same work and
// leaves both totals as counts on a summary span: trace.overhead_share is
// (traced − untraced) / untraced.
func traceOverhead(f *fixture, t *tracer, budget time.Duration) error {
	svc, eng, err := f.newService()
	if err != nil {
		return err
	}
	defer eng.Close(ctx)
	handler, w := svc.Handler(), newSink()
	var traced, untraced time.Duration
	err = until(budget, func(i int) error {
		s := f.dense[i%len(f.dense)]
		a, err := ingestPlatformPass(t, handler, w, s, "ov-t-"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		b, err := ingestPlatformPass(nil, handler, w, s, "ov-u-"+strconv.Itoa(i))
		if err != nil {
			return err
		}
		traced, untraced = traced+a, untraced+b
		return nil
	})
	t.root(wIngest, "trace", "overhead-summary").end("traced_ns", int(traced), "untraced_ns", int(untraced))
	return err
}

// ingest64 spreads dense broadcasts over 64 concurrent sessions, the
// multiplexing the live-ingest server does.
func ingest64(f *fixture, t *tracer, budget time.Duration) error {
	eng, err := f.newEngine(engine.Config{})
	if err != nil {
		return err
	}
	defer eng.Close(ctx)
	s := f.dense[0]
	batches, err := decode(s)
	if err != nil {
		return err
	}
	return until(budget, func(i int) error {
		sp := t.root(wIngest, "engine", "Session.Ingest-64")
		sessions := make([]*engine.Session, 64)
		for k := range sessions {
			if sessions[k], err = eng.Sessions().Open(fmt.Sprintf("m%d-%d", i, k)); err != nil {
				return err
			}
		}
		for _, b := range batches {
			for _, sess := range sessions {
				if err := sess.Ingest(b...); err != nil {
					return err
				}
			}
		}
		for _, sess := range sessions {
			if _, err := sess.Flush(ctx); err != nil {
				return err
			}
			eng.Sessions().Remove(sess.Channel())
		}
		sp.end("messages", 64*s.Messages)
		return nil
	})
}

// feedAllocs counts the heap allocations of OnlineDetector.Feed over a dense
// broadcast (window closes and finalizations included).
func feedAllocs(f *fixture, t *tracer, budget time.Duration) error {
	batches, err := decode(f.dense[0])
	if err != nil {
		return err
	}
	od, err := core.NewOnlineDetector(f.init, 0)
	if err != nil {
		return err
	}
	od.SetWarmup(0)
	var before, after runtime.MemStats
	sp := t.root(wIngest, "core", "Feed-allocs")
	runtime.ReadMemStats(&before)
	n := 0
	for _, b := range batches {
		for _, m := range b {
			od.Feed(m)
			n++
		}
	}
	runtime.ReadMemStats(&after)
	sp.end("messages", n, "mallocs", int(after.Mallocs-before.Mallocs))
	return nil
}

// snapshot times serializing and restoring a detector caught mid-stream.
func snapshot(f *fixture, t *tracer, budget time.Duration) error {
	batches, err := decode(f.sparse[0])
	if err != nil {
		return err
	}
	od, err := core.NewOnlineDetector(f.init, 0)
	if err != nil {
		return err
	}
	od.SetWarmup(0)
	for _, b := range batches[:len(batches)/2] {
		for _, m := range b {
			od.Feed(m)
		}
	}
	var buf []byte
	return until(budget, func(int) error {
		sp := t.root(wIngest, "core", "AppendSnapshot")
		for i := 0; i < 64; i++ {
			buf = od.AppendSnapshot(buf[:0])
		}
		sp.end("snapshots", 64, "snapshot_bytes", 64*len(buf))
		fresh, err := core.NewOnlineDetector(f.init, 0)
		if err != nil {
			return err
		}
		sp = t.root(wRefine, "core", "RestoreSnapshot")
		for i := 0; i < 64; i++ {
			if err := fresh.RestoreSnapshot(buf); err != nil {
				return err
			}
		}
		sp.end("snapshots", 64)
		return nil
	})
}

// checkpoint times Session.Checkpoint into an in-memory store: the mailbox
// round trip, the snapshot encode and the store's copy — the CPU a
// checkpoint costs the ingest path. What a durable store adds on top is the
// WAL's group-commit wait, which wal.append_durable_us shows.
func checkpoint(f *fixture, t *tracer, budget time.Duration) error {
	store := platform.NewStore()
	eng, err := f.newEngine(engine.Config{Checkpoints: store, CheckpointInterval: -1})
	if err != nil {
		return err
	}
	defer eng.Close(ctx)
	batches, err := decode(f.sparse[0])
	if err != nil {
		return err
	}
	sess, err := eng.Sessions().Open("ckpt")
	if err != nil {
		return err
	}
	for _, b := range batches[:len(batches)/2] {
		if err := sess.Ingest(b...); err != nil {
			return err
		}
	}
	return until(budget, func(int) error {
		sp := t.root(wIngest, "engine", "Session.Checkpoint")
		for i := 0; i < 16; i++ {
			if err := sess.Checkpoint(ctx); err != nil {
				return err
			}
		}
		sp.end("checkpoints", 16)
		return nil
	})
}

// watchReads times the read lane live-watch leans on: a live channel with
// dots, polled with a matching validator (304), without one (cached 200)
// and with the response cache off (every read encodes, the cost of the
// first read after a new dot); and the stored highlights, cached and cold.
func watchReads(f *fixture, t *tracer, budget time.Duration) error {
	svc, eng, err := f.newService()
	if err != nil {
		return err
	}
	defer eng.Close(ctx)
	uncached := &platform.Service{Store: svc.Store, Engine: eng, DisableReadCache: true}
	batches, err := decode(f.sparse[0])
	if err != nil {
		return err
	}
	sess, err := eng.Sessions().Open("watch")
	if err != nil {
		return err
	}
	for _, b := range batches {
		if err := sess.Ingest(b...); err != nil {
			return err
		}
	}
	for sess.Pending() > 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(5 * time.Millisecond) // the last popped envelope finishes
	w := newSink()
	svc.ServeLiveDots(w, "watch", 0, "")
	etag := w.h.Get("Etag")
	if w.status != 200 || etag == "" {
		return fmt.Errorf("ServeLiveDots: status %d, etag %q", w.status, etag)
	}
	video := f.vids[0].Sim.ID
	handler := svc.Handler()
	if status := serve(handler, w, "GET", "/api/highlights", "video="+video, nil); status != 200 {
		return fmt.Errorf("GET highlights: status %d", status)
	}
	const reps = 512
	cold := 0
	return until(budget, func(int) error {
		sp := t.root(wWatch, "platform", "ServeLiveDots-304")
		for i := 0; i < reps; i++ {
			w.reset()
			svc.ServeLiveDots(w, "watch", 0, etag)
		}
		sp.end("requests", reps)
		if w.status != http.StatusNotModified {
			return fmt.Errorf("conditional ServeLiveDots: status %d", w.status)
		}
		sp = t.root(wWatch, "platform", "ServeLiveDots-hit")
		for i := 0; i < reps; i++ {
			w.reset()
			svc.ServeLiveDots(w, "watch", 0, "")
		}
		sp.end("requests", reps)
		sp = t.root(wWatch, "platform", "ServeLiveDots-miss")
		for i := 0; i < reps/8; i++ {
			w.reset()
			uncached.ServeLiveDots(w, "watch", 0, "")
		}
		sp.end("requests", reps/8)
		sp = t.root(wWatch, "engine", "Session.DotsPage")
		n := 0
		for i := 0; i < reps*8; i++ {
			dots, _, _ := sess.DotsPage(0)
			n += len(dots)
		}
		sp.end("reads", reps*8, "dots_out", n)
		sp = t.root(wWatch, "platform", "ServeHighlights-hit")
		for i := 0; i < reps; i++ {
			w.reset()
			svc.ServeHighlights(w, video, 5, "")
		}
		sp.end("requests", reps)
		// Cold: a video the store has never detected on. Each repetition
		// registers a fresh copy, so Detect really runs.
		v := f.vids[1+cold%(len(f.vids)-1)]
		id := "cold-" + strconv.Itoa(cold)
		cold++
		if err := svc.Store.PutVideo(platform.VideoRecord{ID: id, Duration: v.Sim.Duration, Chat: chat.NewLog(v.Messages)}); err != nil {
			return err
		}
		sp = t.root(wWatch, "platform", "highlights-cold")
		status := serve(handler, w, "GET", "/api/highlights", "video="+id, nil)
		sp.end("requests", 1, "messages", len(v.Messages))
		if status != 200 {
			return fmt.Errorf("cold GET highlights: status %d", status)
		}
		return nil
	})
}

// push times dot publication to in-process push subscribers. A sparse
// broadcast is fed ONE MESSAGE at a time with 0, 1 and 1000 subscribers,
// each draining its stream after every message, and only the messages that
// publish a new dot version are timed: the difference between one
// subscriber and none is the cost of publishing a version (encode once,
// frame, enqueue, pop), and 1000 over one, divided by the extra deliveries,
// is the fan-out cost per subscriber. Feeding whole batches would bury
// those microseconds under the batch's Feed time.
func push(f *fixture, t *tracer, budget time.Duration) error {
	svc, eng, err := f.newService()
	if err != nil {
		return err
	}
	defer eng.Close(ctx)
	svc.Handler() // wires the push hub to the engine
	batches, err := decode(f.sparse[0])
	if err != nil {
		return err
	}
	return until(budget, func(i int) error {
		for _, subs := range []int{0, 1, 1000} {
			id := fmt.Sprintf("push-%d-%d", i, subs)
			sess, err := eng.Sessions().Open(id)
			if err != nil {
				return err
			}
			streams := make([]*platform.DotStream, subs)
			for k := range streams {
				if streams[k], err = svc.SubscribeDots(id, 0); err != nil {
					return err
				}
			}
			name := "publish-" + strconv.Itoa(subs)
			version := sess.DotsVersion()
			for _, b := range batches {
				for _, m := range b {
					sp := t.root(wWatch, "platform", name)
					if err := sess.Ingest(m); err != nil {
						return err
					}
					for sess.DotsVersion() == version && sess.Pending() > 0 {
						runtime.Gosched()
					}
					runtime.Gosched() // lets the worker finish the envelope it popped
					frames := 0
					for _, ds := range streams {
						for {
							if _, ok := ds.Pop(); !ok {
								break
							}
							frames++
						}
					}
					if v := sess.DotsVersion(); v != version {
						version = v
						sp.end("versions", 1, "deliveries", frames)
					} else {
						sp.drop()
					}
				}
			}
			if _, err := eng.Sessions().CloseSession(ctx, id); err != nil {
				return err
			}
			for _, ds := range streams {
				ds.Close()
			}
		}
		return nil
	})
}

// refinePath times what a vod-refine round costs inside the server, on an
// in-memory store at the workload's retention: the interactions handler,
// the store append alone, reading the plays back, sessionizing, refining
// one dot, and a five-dot refine job through the queue.
func refinePath(f *fixture, t *tracer, budget time.Duration) error {
	svc, eng, err := f.newService()
	if err != nil {
		return err
	}
	defer eng.Close(ctx)
	handler, w := svc.Handler(), newSink()
	rv := f.refine[0]
	var events []play.Event
	for _, round := range rv.Events {
		events = append(events, round...)
	}
	perBody := make([][]play.Event, 0, len(events)/inputs.RefineEventsPerPost)
	for i := 0; i+inputs.RefineEventsPerPost <= len(events); i += inputs.RefineEventsPerPost {
		perBody = append(perBody, events[i:i+inputs.RefineEventsPerPost])
	}
	// Fill the video's log to retention before anything is timed.
	for _, round := range rv.Pool {
		for _, body := range round {
			if status := serve(handler, w, "POST", "/api/interactions", "video="+rv.ID, body); status != http.StatusNoContent {
				return fmt.Errorf("POST interactions: status %d", status)
			}
		}
	}
	plays := play.Sessionize(events)
	source := lightor.StaticPlays(plays)
	span := f.ext.Config().DefaultSpan
	return until(budget, func(i int) error {
		round := rv.Pool[i%len(rv.Pool)]
		sp := t.root(wRefine, "platform", "interactions-handler")
		for _, body := range round {
			serve(handler, w, "POST", "/api/interactions", "video="+rv.ID, body)
		}
		sp.end("requests", len(round), "events_appended", len(round)*inputs.RefineEventsPerPost)

		sp = t.root(wRefine, "platform", "Store.LogEvents")
		for _, evs := range perBody {
			if err := svc.Store.LogEvents(rv.ID, evs); err != nil {
				return err
			}
		}
		sp.end("events_appended", len(perBody)*inputs.RefineEventsPerPost)

		sp = t.root(wRefine, "platform", "Store.Plays")
		got := svc.Store.Plays(rv.ID)
		sp.end("scans", 1, "plays", len(got))

		sp = t.root(wRefine, "play", "Sessionize")
		play.Sessionize(events)
		sp.end("events", len(events))

		sp = t.root(wRefine, "core", "Extractor.Refine")
		for _, d := range rv.Dots {
			f.ext.Refine(core.Interval{Start: d.Time, End: d.Time + span}, source)
		}
		sp.end("dots", len(rv.Dots))

		sp = t.root(wRefine, "engine", "RefineQueue.job")
		job, err := eng.Refine().Enqueue(rv.ID, rv.Dots, source, nil)
		if err != nil {
			return err
		}
		if _, err := eng.Refine().Wait(ctx, job.ID); err != nil {
			return err
		}
		sp.end("jobs", 1, "dots", len(rv.Dots))
		return nil
	})
}

// walPath times the write-ahead log on the run's data root: buffered
// appends, a durable append (which waits out the group-commit window), a
// durable batch, and scanning the log back.
func walPath(f *fixture, t *tracer, budget time.Duration) error {
	dir := filepath.Join(f.dataRoot, "layers-wal")
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "probe.log")
	w, err := wal.Create(path, wal.Options{})
	if err != nil {
		return err
	}
	payload := bytes.Repeat([]byte{'x'}, 256)
	batch := make([][]byte, 64)
	for i := range batch {
		batch[i] = payload
	}
	records := 0
	err = until(budget*3/4, func(int) error {
		sp := t.root(wRefine, "wal", "Append")
		for i := 0; i < 4096; i++ {
			if _, err := w.Append(payload); err != nil {
				return err
			}
		}
		sp.end("records", 4096)
		sp = t.root(wRefine, "wal", "AppendDurable")
		for i := 0; i < 4; i++ {
			if err := w.AppendDurable(payload); err != nil {
				return err
			}
		}
		sp.end("records", 4)
		sp = t.root(wRefine, "wal", "AppendBatchDurable")
		for i := 0; i < 4; i++ {
			if err := w.AppendBatchDurable(batch); err != nil {
				return err
			}
		}
		sp.end("records", 4*len(batch))
		records += 4096 + 4 + 4*len(batch)
		return nil
	})
	if cerr := w.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	return until(budget/4, func(int) error {
		sp := t.root(wRefine, "wal", "ScanFile")
		n, _, err := wal.ScanFile(path, func([]byte) error { return nil })
		sp.end("records_replayed", n)
		if err == nil && n != records {
			err = fmt.Errorf("wal scan found %d records, %d were appended", n, records)
		}
		return err
	})
}

// recovery times opening a durable store on the directory of a process
// that died: the crawled videos, retention-full event logs and session
// checkpoints come back through the snapshot loader and WAL replay.
func recovery(f *fixture, t *tracer, budget time.Duration) error {
	crashed := filepath.Join(f.dataRoot, "layers-crashed")
	os.RemoveAll(crashed)
	cfg := platform.FileConfig{EventRetention: 4096, NoSync: true}
	backend, err := platform.OpenFileBackend(crashed, cfg)
	if err != nil {
		return err
	}
	store := platform.NewStoreWith(backend)
	for _, v := range f.vids[:32] {
		if err := store.PutVideo(platform.VideoRecord{ID: v.Sim.ID, Duration: v.Sim.Duration, Chat: chat.NewLog(v.Messages)}); err != nil {
			return err
		}
	}
	// One durability wait per video and round instead of one per record:
	// the log still gets a record per 64 events, as the server writes them.
	for rep := 0; rep < 8; rep++ {
		for vi, rv := range f.refine {
			for _, evs := range rv.Events {
				var batch []platform.EventBatch
				for i := 0; i+inputs.RefineEventsPerPost <= len(evs); i += inputs.RefineEventsPerPost {
					batch = append(batch, platform.EventBatch{VideoID: f.vids[vi].Sim.ID, Events: evs[i : i+inputs.RefineEventsPerPost]})
				}
				if err := store.LogEventsBatch(batch); err != nil {
					return err
				}
			}
		}
	}
	state := bytes.Repeat([]byte{7}, 2048)
	for i := 0; i < 64; i++ {
		if err := store.PutCheckpoint("ch-"+strconv.Itoa(i), state); err != nil {
			return err
		}
	}
	// The "crash": the directory is copied while the writer is still open,
	// after its background flush has had time to run. The store is closed
	// only afterwards, which compacts — the copy keeps the uncompacted log.
	time.Sleep(20 * time.Millisecond)
	err = until(budget, func(i int) error {
		dir := filepath.Join(f.dataRoot, "layers-recover-"+strconv.Itoa(i%2))
		if err := copyFiles(crashed, dir); err != nil {
			return err
		}
		sp := t.root(wRefine, "platform", "OpenFileBackend")
		rec, err := platform.OpenFileBackend(dir, cfg)
		sp.end("recoveries", 1)
		if err != nil {
			return err
		}
		if n := len(rec.VideoIDs()); n != 32 {
			return fmt.Errorf("recovered %d videos, wrote 32", n)
		}
		return rec.Close()
	})
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	return err
}

func copyFiles(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		if !ent.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// batchTree replays vod-batch's call at its depths: the engine's
// ExtractHighlights over a recorded log, then Initializer.Detect on the
// same log and Extractor.Refine on each resulting dot — what the engine
// adds on top is its self time. ReadJSONL, the set-up's parser, is timed
// on the same video's log.
func batchTree(f *fixture, t *tracer, budget time.Duration) error {
	eng, err := f.newEngine(engine.Config{})
	if err != nil {
		return err
	}
	defer eng.Close(ctx)
	return until(budget, func(i int) error {
		v := f.vids[i%len(f.vids)]
		rv := f.refine[i%len(f.refine)]
		var events []play.Event
		for _, round := range rv.Events {
			events = append(events, round...)
		}
		source := lightor.StaticPlays(play.Sessionize(events))
		log := chat.NewLog(v.Messages)

		root := t.root(wBatch, "engine", "ExtractHighlights")
		got, err := eng.ExtractHighlights(ctx, log, v.Sim.Duration, inputs.CorpusK, source)
		root.end("videos", 1, "messages", len(v.Messages), "dots_out", len(got))
		if err != nil {
			return err
		}
		det := root.child("core", "Initializer.Detect")
		dots, err := f.init.Detect(log, v.Sim.Duration, inputs.CorpusK)
		det.end("videos", 1, "messages", len(v.Messages), "dots_out", len(dots))
		if err != nil {
			return err
		}
		ref := root.child("core", "Extractor.Refine-batch")
		span := f.ext.Config().DefaultSpan
		for _, d := range dots {
			f.ext.Refine(core.Interval{Start: d.Time, End: d.Time + span}, source)
		}
		ref.end("dots", len(dots))

		var jsonl bytes.Buffer
		if err := chat.WriteJSONL(&jsonl, log); err != nil {
			return err
		}
		sp := t.root(wBatch, "chat", "ReadJSONL")
		read, err := chat.ReadJSONL(&jsonl)
		sp.end("messages", len(v.Messages))
		if err == nil && read.Len() != len(v.Messages) {
			err = fmt.Errorf("ReadJSONL returned %d of %d messages", read.Len(), len(v.Messages))
		}
		return err
	})
}

// ringOwner times the consistent-hash lookup a cluster node would add to
// every channel-keyed request; single-node runs pay one nil check instead.
func ringOwner(f *fixture, t *tracer, budget time.Duration) error {
	ring, err := cluster.NewRing([]string{"n1", "n2", "n3"}, 0)
	if err != nil {
		return err
	}
	keys := make([]string, 256)
	for i := range keys {
		keys[i] = "channel-" + strconv.Itoa(i)
	}
	return until(budget, func(int) error {
		sp := t.root(wIngest, "cluster", "Ring.Owner")
		n := 0
		for rep := 0; rep < 64; rep++ {
			for _, k := range keys {
				n += len(ring.Owner(k))
			}
		}
		sp.end("lookups", 64*len(keys), "bytes", n)
		return nil
	})
}
