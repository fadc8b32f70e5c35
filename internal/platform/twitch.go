package platform

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"lightor/internal/chat"
)

// TwitchVideo is the metadata the simulated platform API exposes per
// recorded video.
type TwitchVideo struct {
	ID       string  `json:"id"`
	Channel  string  `json:"channel"`
	Duration float64 `json:"duration"`
	Viewers  int     `json:"viewers"`
}

// SimTwitch is an in-process stand-in for the live-streaming platform's
// public API (the paper crawls Twitch's). It serves channel listings and
// per-video chat logs over HTTP:
//
//	GET /channels                 → ["chan1", ...]
//	GET /videos?channel=chan1     → [TwitchVideo, ...]
//	GET /chat?video=id            → chat log as JSON lines
type SimTwitch struct {
	mu     sync.RWMutex
	byChan map[string][]TwitchVideo
	chats  map[string]*chat.Log
}

// NewSimTwitch returns an empty simulated platform.
func NewSimTwitch() *SimTwitch {
	return &SimTwitch{
		byChan: make(map[string][]TwitchVideo),
		chats:  make(map[string]*chat.Log),
	}
}

// AddVideo registers a recorded video and its chat log.
func (s *SimTwitch) AddVideo(v TwitchVideo, log *chat.Log) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.byChan[v.Channel] = append(s.byChan[v.Channel], v)
	s.chats[v.ID] = log
}

// Handler returns the HTTP handler implementing the API.
func (s *SimTwitch) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /channels", s.handleChannels)
	mux.HandleFunc("GET /videos", s.handleVideos)
	mux.HandleFunc("GET /video", s.handleVideo)
	mux.HandleFunc("GET /chat", s.handleChat)
	return mux
}

func (s *SimTwitch) handleVideo(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("id")
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, videos := range s.byChan {
		for _, v := range videos {
			if v.ID == id {
				writeJSON(w, v)
				return
			}
		}
	}
	http.Error(w, fmt.Sprintf("unknown video %q", id), http.StatusNotFound)
}

func (s *SimTwitch) handleChannels(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	channels := make([]string, 0, len(s.byChan))
	for c := range s.byChan {
		channels = append(channels, c)
	}
	s.mu.RUnlock()
	sort.Strings(channels)
	writeJSON(w, channels)
}

func (s *SimTwitch) handleVideos(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	s.mu.RLock()
	videos, ok := s.byChan[channel]
	s.mu.RUnlock()
	if !ok {
		http.Error(w, fmt.Sprintf("unknown channel %q", channel), http.StatusNotFound)
		return
	}
	writeJSON(w, videos)
}

func (s *SimTwitch) handleChat(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("video")
	s.mu.RLock()
	log, ok := s.chats[id]
	s.mu.RUnlock()
	if !ok {
		http.Error(w, fmt.Sprintf("unknown video %q", id), http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := chat.WriteJSONL(w, log); err != nil {
		// Headers are already out; nothing more to do than drop the
		// connection, which WriteJSONL's error already implies.
		return
	}
}
