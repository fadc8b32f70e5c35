package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"lightor"
	"lightor/bench/inputs"
)

// vod-batch: the paper's headline use — highlights out of recorded videos,
// no server. One goroutine calls Detector.ExtractHighlights, through the
// public lightor package only, over a fixed corpus of recorded chat logs
// with their viewer interactions. No HTTP, no WAL, no response cache: the
// workload every platform- or wal-level optimization must leave unmoved.
//
// batchMemShare: see load.memShare; three sets of ten to sixteen runs were
// steadiest at 0.3–0.5, at 0.4–0.6 and at 0.4.
const batchMemShare = 0.4

// batchVideo is one corpus video with its reference result.
type batchVideo struct {
	*inputs.CorpusVideo
	want []lightor.Highlight
}

func runVodBatch(e *env, seed int64, sh shape) (*result, error) {
	res := &result{workload: "vod-batch", seed: seed}
	// The measured process is this one. Resetting its peak-RSS counter keeps
	// what earlier workloads of the same invocation held out of the number
	// (best effort: without it the peak is the invocation's, not the run's).
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	serial, err := inputs.NewReference()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(e.dataRoot, "vod-batch-corpus")
	dig := inputs.NewDigest()
	durations, err := serial.WriteCorpus(seed, dir, dig)
	if err != nil {
		return nil, err
	}
	res.inputsDigest = dig.Hex()

	var ref *inputs.Reference
	var loaded []*inputs.CorpusVideo
	var setups []time.Duration
	for round := 0; round < setupRounds; round++ {
		began := time.Now()
		if ref, loaded, err = inputs.LoadCorpus(dir, durations); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(began))
	}
	det := ref.Det
	defer det.Close()

	// The reference result comes from the serial path — detect, then refine
	// dot by dot — on a detector of its own; the measured path replays the
	// log through the session engine and refines in parallel, and must
	// agree exactly.
	results := inputs.NewDigest()
	corpus := make([]*batchVideo, len(loaded))
	for i, cv := range loaded {
		v := &batchVideo{CorpusVideo: cv}
		corpus[i] = v
		dots, err := serial.Det.DetectRedDots(v.Messages, v.Duration, inputs.CorpusK)
		if err != nil {
			return nil, err
		}
		if len(dots) == 0 {
			return nil, fmt.Errorf("a corpus video (%d messages) yields no highlight", len(v.Messages))
		}
		for _, d := range dots {
			v.want = append(v.want, serial.Det.RefineHighlight(d, lightor.StaticPlays(v.Plays)))
		}
		for _, h := range v.want {
			results.AddJSON(h.Dot)
			results.AddJSON(h.Boundary)
		}
	}
	res.resultsDigest = results.Hex()

	w := window{shape: sh, start: time.Now().Add(sh.warmup)}
	rec, series, err := drive(w, benchProcs, func(k int, r *recorder) error {
		// Every caller (benchProcs of them: one) walks the whole corpus.
		for i := k * len(corpus) / benchProcs; time.Now().Before(w.end()); i++ {
			r.relax()
			v := corpus[i%len(corpus)]
			began := time.Now()
			got, err := det.ExtractHighlights(v.Messages, v.Duration, inputs.CorpusK, lightor.StaticPlays(v.Plays))
			done := time.Now()
			r.attempted++
			if err != nil {
				return err
			}
			if !sameHighlights(got, v.want) {
				r.failed++
				r.wrong("corpus video %d: extracted highlights differ from the serial reference", i%len(corpus))
				continue
			}
			r.opDone(done, done.Sub(began), len(v.Messages))
		}
		return nil
	}, selfCPUSeconds)
	if err != nil {
		return nil, err
	}
	return finish(res, nil, load{rec: rec, cpu: series[0], setups: setups, memShare: batchMemShare})
}

func sameHighlights(got, want []lightor.Highlight) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Dot != want[i].Dot || got[i].Boundary != want[i].Boundary {
			return false
		}
	}
	return true
}
