package inputs

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"

	"lightor"
	"lightor/internal/sim"
	"lightor/internal/stats"
)

// The vod-batch corpus: regular recordings of both games plus 8-hour dense
// marathons, one video in eight, so the 95th percentile of the per-video
// time sits well inside the marathons rather than on the edge between the
// two kinds.
const (
	CorpusVideos        = 32
	CorpusMarathonEvery = 8
	CorpusMarathonHours = 8
	CorpusViewersPerDot = 40
	CorpusK             = 5 // highlights extracted per video
)

// CorpusVideo is one recorded video as a batch user holds it after loading.
type CorpusVideo struct {
	Duration float64
	Messages []lightor.Message
	Plays    []lightor.Play
}

// WriteCorpus simulates the corpus and writes it to dir as the JSON-lines
// files a batch user would have, <i>.chat.jsonl and <i>.events.jsonl,
// folding every file into dig. It returns the videos' durations, which the
// files do not carry.
func (r *Reference) WriteCorpus(seed int64, dir string, dig *Digest) ([]float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	rng := stats.NewRand(seed + 5)
	marathon := DenseProfile()
	marathon.MinDuration, marathon.MaxDuration = CorpusMarathonHours*3600, CorpusMarathonHours*3600
	behavior := sim.DefaultViewerBehavior()
	durations := make([]float64, CorpusVideos)
	for i := range durations {
		// Regular videos are spread evenly over their profile's range of
		// lengths, in an order that mixes short and long.
		profile := spread(sim.Dota2Profile(), i*7%CorpusVideos, CorpusVideos)
		switch {
		case i%CorpusMarathonEvery == CorpusMarathonEvery-1:
			profile = marathon
		case i%2 == 1:
			profile = spread(sim.LoLProfile(), i*7%CorpusVideos, CorpusVideos)
		}
		vid := sim.GenerateVideo(rng, profile, fmt.Sprintf("b%d", i))
		msgs := sim.GenerateChat(rng, vid, profile).Log.Messages()
		dots, err := r.Det.DetectRedDots(msgs, vid.Duration, CorpusK)
		if err != nil {
			return nil, err
		}
		var events []lightor.Event
		for d, dot := range dots {
			truth := FabricateTruth(rng, dot.Time, vid.Duration)
			for n := 0; n < CorpusViewersPerDot; n++ {
				events = append(events, sim.SimulateViewer(rng, fmt.Sprintf("d%dn%d", d, n), vid, dot.Time, truth, behavior)...)
			}
		}
		durations[i] = vid.Duration
		files := []struct {
			path  string
			write func(*bufio.Writer) error
		}{
			{corpusPath(dir, i, "chat"), func(w *bufio.Writer) error { return lightor.WriteChatJSONL(w, msgs) }},
			{corpusPath(dir, i, "events"), func(w *bufio.Writer) error { return lightor.WriteEventsJSONL(w, events) }},
		}
		for _, f := range files {
			if err := writeFile(f.path, f.write); err != nil {
				return nil, err
			}
			b, err := os.ReadFile(f.path)
			if err != nil {
				return nil, err
			}
			dig.Add(b)
		}
	}
	return durations, nil
}

func corpusPath(dir string, i int, kind string) string {
	return filepath.Join(dir, fmt.Sprintf("%d.%s.jsonl", i, kind))
}

func writeFile(path string, write func(*bufio.Writer) error) error {
	file, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(file)
	err = write(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return nil
}

// LoadCorpus is what a batch user does before the first extraction — train
// a detector, read every log, sessionize the interaction events — and is
// the timed set-up of vod-batch.
func LoadCorpus(dir string, durations []float64) (*Reference, []*CorpusVideo, error) {
	ref, err := NewReference()
	if err != nil {
		return nil, nil, err
	}
	corpus := make([]*CorpusVideo, len(durations))
	for i, d := range durations {
		chatFile, err := os.Open(corpusPath(dir, i, "chat"))
		if err != nil {
			return nil, nil, err
		}
		msgs, err := lightor.ReadChatJSONL(chatFile)
		chatFile.Close()
		if err != nil {
			return nil, nil, err
		}
		eventsFile, err := os.Open(corpusPath(dir, i, "events"))
		if err != nil {
			return nil, nil, err
		}
		events, err := lightor.ReadEventsJSONL(eventsFile)
		eventsFile.Close()
		if err != nil {
			return nil, nil, err
		}
		corpus[i] = &CorpusVideo{Duration: d, Messages: msgs, Plays: lightor.Sessionize(events)}
	}
	return ref, corpus, nil
}
