package platform

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"

	"lightor/internal/chat"
)

// Crawler fetches chat logs from the platform API into the store. It
// supports the paper's two crawling modes (Section VI-A): offline crawling
// of a channel watch-list, and on-demand crawling when a viewer opens a
// video whose chat is not stored yet.
type Crawler struct {
	// BaseURL is the platform API root, e.g. "http://host:port".
	BaseURL string
	// Client is the HTTP client; http.DefaultClient when nil.
	Client *http.Client
	// Store receives crawled videos.
	Store *Store
}

func (c *Crawler) client() *http.Client {
	if c.Client != nil {
		return c.Client
	}
	return http.DefaultClient
}

// Channels lists the platform's channels.
func (c *Crawler) Channels() ([]string, error) {
	var channels []string
	if err := c.getJSON("/channels", &channels); err != nil {
		return nil, err
	}
	return channels, nil
}

// Videos lists the recorded videos of a channel.
func (c *Crawler) Videos(channel string) ([]TwitchVideo, error) {
	var videos []TwitchVideo
	if err := c.getJSON("/videos?channel="+url.QueryEscape(channel), &videos); err != nil {
		return nil, err
	}
	return videos, nil
}

// LookupVideo fetches one video's metadata by ID — the entry point for
// on-demand crawling when a viewer opens a video the store has never seen.
func (c *Crawler) LookupVideo(id string) (TwitchVideo, error) {
	var v TwitchVideo
	if err := c.getJSON("/video?id="+url.QueryEscape(id), &v); err != nil {
		return TwitchVideo{}, err
	}
	return v, nil
}

// CrawlVideo fetches one video's chat on demand and stores it. Videos
// already stored with chat are skipped.
func (c *Crawler) CrawlVideo(v TwitchVideo) error {
	if c.Store.HasChat(v.ID) {
		return nil
	}
	resp, err := c.client().Get(c.BaseURL + "/chat?video=" + url.QueryEscape(v.ID))
	if err != nil {
		return fmt.Errorf("platform: fetching chat for %s: %w", v.ID, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("platform: chat for %s: status %s", v.ID, resp.Status)
	}
	log, err := chat.ReadJSONL(resp.Body)
	if err != nil {
		return fmt.Errorf("platform: parsing chat for %s: %w", v.ID, err)
	}
	return c.Store.PutVideo(VideoRecord{
		ID:       v.ID,
		Duration: v.Duration,
		Chat:     log,
	})
}

// CrawlChannels performs the offline crawl: every video of every listed
// channel. It returns the number of videos newly crawled.
func (c *Crawler) CrawlChannels(channels []string) (int, error) {
	crawled := 0
	for _, ch := range channels {
		videos, err := c.Videos(ch)
		if err != nil {
			return crawled, err
		}
		for _, v := range videos {
			had := c.Store.HasChat(v.ID)
			if err := c.CrawlVideo(v); err != nil {
				return crawled, err
			}
			if !had {
				crawled++
			}
		}
	}
	return crawled, nil
}

func (c *Crawler) getJSON(path string, out any) error {
	resp, err := c.client().Get(c.BaseURL + path)
	if err != nil {
		return fmt.Errorf("platform: GET %s: %w", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("platform: GET %s: status %s", path, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("platform: decoding %s: %w", path, err)
	}
	return nil
}
