package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/url"

	"lightor/bench/inputs"
	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/platform"
)

// fixture is what the probes share: the inputs of the end-to-end workloads
// (the same seed gives byte-identical bodies) and a trained detector.
type fixture struct {
	seed     int64
	dataRoot string
	ref      *inputs.Reference
	init     *core.Initializer
	ext      *core.Extractor

	sparse, dense []*inputs.Stream // live-ingest's streams, 256-message bodies
	vids          []inputs.Video   // the videos the servers crawl
	refine        []*inputs.RefineVideo
}

func kind(s *inputs.Stream) string {
	if s.Dense {
		return "dense"
	}
	return "sparse"
}

func newFixture(seed int64, dataRoot string) (*fixture, error) {
	ref, err := inputs.NewReference()
	if err != nil {
		return nil, err
	}
	// The model crosses from the public package to internal/core the way a
	// deployment would move it: saved and loaded.
	var model bytes.Buffer
	if err := ref.Det.Save(&model); err != nil {
		return nil, err
	}
	init, err := core.LoadInitializer(&model)
	if err != nil {
		return nil, err
	}
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		return nil, err
	}
	f := &fixture{seed: seed, dataRoot: dataRoot, ref: ref, init: init, ext: ext}
	f.vids = ref.Crawl(8, 8)
	dig := inputs.NewDigest()
	if f.sparse, f.dense, err = ref.LiveStreams(seed, 256, dig); err != nil {
		return nil, err
	}
	if f.refine, err = ref.RefineVideos(f.vids[:8], seed, dig); err != nil {
		return nil, err
	}
	return f, nil
}

// decode turns a stream's bodies back into message batches, through the
// decoder the server uses.
func decode(s *inputs.Stream) ([][]chat.Message, error) {
	out := make([][]chat.Message, len(s.Bodies))
	for i, b := range s.Bodies {
		msgs, _, ok := chat.AppendMessagesJSON(nil, b)
		if !ok || len(msgs) != s.BodyMsgs[i] {
			return nil, fmt.Errorf("body %d does not decode to its %d messages", i, s.BodyMsgs[i])
		}
		out[i] = msgs
	}
	return out, nil
}

func (f *fixture) newEngine(cfg engine.Config) (*engine.Engine, error) {
	cfg.Warmup = -1
	return engine.New(f.init, f.ext, cfg)
}

// newService is a single-node service over an in-memory store (at
// vod-refine's event retention) holding the crawled videos.
func (f *fixture) newService() (*platform.Service, *engine.Engine, error) {
	eng, err := f.newEngine(engine.Config{})
	if err != nil {
		return nil, nil, err
	}
	store := platform.NewStoreWith(platform.NewMemoryBackend(platform.MemoryConfig{EventRetention: 4096}))
	for _, v := range f.vids {
		if err := store.PutVideo(platform.VideoRecord{ID: v.Sim.ID, Duration: v.Sim.Duration, Chat: chat.NewLog(v.Messages)}); err != nil {
			return nil, nil, err
		}
	}
	return &platform.Service{Store: store, Engine: eng}, eng, nil
}

// sink is an http.ResponseWriter that keeps nothing, so handler probes
// measure the handler and not a recorder.
type sink struct {
	h      http.Header
	status int
}

func newSink() *sink { return &sink{h: make(http.Header), status: 200} }

func (s *sink) Header() http.Header         { return s.h }
func (s *sink) Write(b []byte) (int, error) { return len(b), nil }
func (s *sink) WriteHeader(code int)        { s.status = code }
func (s *sink) reset()                      { clear(s.h); s.status = 200 }

// serve drives one request through a handler in-process.
func serve(h http.Handler, w *sink, method, path, query string, body []byte) int {
	w.reset()
	req := &http.Request{Method: method, URL: &url.URL{Path: path, RawQuery: query}, Header: http.Header{}, Host: "bench", Body: http.NoBody}
	if body != nil {
		req.Body = io.NopCloser(bytes.NewReader(body))
		req.ContentLength = int64(len(body))
	}
	h.ServeHTTP(w, req)
	return w.status
}
