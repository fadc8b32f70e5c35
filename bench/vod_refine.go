package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"lightor"
	"lightor/bench/inputs"
	"lightor/internal/stats"
)

// vod-refine: the Highlight Extractor and the durability path. One
// closed-loop connection walks 32 stored videos in rounds — fetch the
// highlights, report 16 batches of 64 viewer-interaction events (each
// acknowledged only once it is durable), ask for a refinement, poll until
// it is done. Set-up is crash recovery: exec → ready on the data directory
// of a server that was killed mid-traffic.
const (
	refineVideos = 32 // the first 32 crawled videos carry the measured rounds
	// refineConns: one, like every workload's. A durable POST waits out the
	// WAL's 2 ms group-commit window, so the server is mostly idle and op
	// latency and throughput are set by that window: what a client with one
	// connection sees, and the number a change to the commit policy moves.
	// CPU per event is what shows a cheaper path.
	refineConns = benchProcs
	// refineRetention (-event-retention) is four rounds of events: the
	// count-based pass and the warm-up fill it, so the slices run against
	// event logs of constant size.
	refineRetention = 4096
	// refineCheckRounds is the count-based pass: exactly this many rounds
	// per video, after which every boundary must equal the reference's.
	refineCheckRounds = 3
	// Seeding, for the crash the set-up recovers from: refineSeedPosts
	// POSTs of events go to the crawled videos the measured rounds do NOT
	// use, and this many live sessions are left checkpointed.
	refineSeedConns    = 8
	refineSeedSessions = 64
	// refineMemShare: see load.memShare and load.paced. Latency and
	// throughput are the commit timer's and do not move with the machine
	// (uncorrected, they repeat to 2–3%); CPU per event does (fitted 0.3–0.4,
	// 0.3 and 0.2 in three sets of runs).
	refineMemShare = 0.25
)

// refineSeedPosts is a variable so the smoke test can shrink the seed phase.
var refineSeedPosts = 3000

// The server crawls 64 videos: 32 for the measured rounds, 32 that only the
// seeding of the crash touches.
const (
	refineCrawlChannels = 8
	refineCrawlVideos   = 8
)

func refineServerFlags(dataDir string) []string {
	return []string{"-channels", strconv.Itoa(refineCrawlChannels), "-videos", strconv.Itoa(refineCrawlVideos), "-warmup", "-1",
		"-data-dir", dataDir, "-event-retention", strconv.Itoa(refineRetention)}
}

// refineVideo is one stored video of the workload: its inputs, the
// reference's view of it, and the request targets.
type refineVideo struct {
	*inputs.RefineVideo
	hl     string             // GET /api/highlights target
	post   string             // POST /api/interactions target
	refine string             // POST /api/refine target
	dots   []lightor.RedDot   // reference: current (refined) dots
	log    []lightor.Event    // reference: events reported so far
	bounds []lightor.Interval // reference: boundaries after the last round
	rounds int                // rounds completed
}

func newRefineVideo(in *inputs.RefineVideo) *refineVideo {
	return &refineVideo{
		RefineVideo: in,
		// k is the number of dots the video has, see fetchHighlights: with
		// the default the refined dots would also be overwritten.
		hl:     "/api/highlights?video=" + in.ID + "&k=" + strconv.Itoa(len(in.Dots)),
		post:   "/api/interactions?video=" + in.ID,
		refine: "/api/refine?video=" + in.ID,
		dots:   append([]lightor.RedDot(nil), in.Dots...),
	}
}

// expectRound advances the video's reference by one round: the round's
// events join the log and every dot is refined against the sessionized
// log, exactly what POST /api/refine does with the stored events.
func (v *refineVideo) expectRound(ref *inputs.Reference) {
	v.log = append(v.log, v.Events[v.rounds%inputs.RefinePoolRounds]...)
	plays := lightor.StaticPlays(lightor.Sessionize(v.log))
	v.bounds = make([]lightor.Interval, len(v.dots))
	for i, d := range v.dots {
		h := ref.Det.RefineHighlight(d, plays)
		v.bounds[i] = h.Boundary
		v.dots[i].Time = h.Boundary.Start
	}
}

// refineJob is the payload of POST /api/refine and GET /api/refine/status.
type refineJob struct {
	Job        string             `json:"job"`
	Status     string             `json:"status"`
	Dots       []lightor.RedDot   `json:"dots"`
	Boundaries []lightor.Interval `json:"boundaries"`
}

// round runs one round on a video and returns the finished job.
func (v *refineVideo) round(c *conn, r *recorder) (refineJob, bool) {
	var job refineJob
	r.relax()
	status, _, err := c.do("GET", v.hl, "", nil)
	r.attempted++
	if err != nil || status != 200 {
		r.failed++
		return job, false
	}
	for _, body := range v.Pool[v.rounds%inputs.RefinePoolRounds] {
		r.relax()
		sent := time.Now()
		status, _, err := c.do("POST", v.post, "", body)
		done := time.Now()
		r.attempted++
		if err != nil || status != 204 {
			r.failed++
			return job, false
		}
		r.opDone(done, done.Sub(sent), inputs.RefineEventsPerPost)
	}
	asked := time.Now()
	status, _, err = c.do("POST", v.refine, "", nil)
	r.attempted++
	if err != nil || status != 202 || json.Unmarshal(c.body.Bytes(), &job) != nil || job.Job == "" {
		r.failed++
		return job, false
	}
	poll := "/api/refine/status?job=" + job.Job
	for job.Status != "done" {
		status, _, err = c.do("GET", poll, "", nil)
		r.attempted++
		if err != nil || status != 200 || json.Unmarshal(c.body.Bytes(), &job) != nil {
			r.failed++
			return job, false
		}
		if time.Since(asked) > requestTimeout {
			r.failed++
			return job, false
		}
	}
	seen := time.Now()
	r.freshDone(seen, seen.Sub(asked))
	v.rounds++
	return job, true
}

// wellFormed checks a finished job the way a consumer would: one boundary
// per dot, each a finite, non-empty span inside the video.
func (v *refineVideo) wellFormed(job refineJob) bool {
	if len(job.Boundaries) != len(v.dots) || len(job.Dots) != len(v.dots) {
		return false
	}
	for _, b := range job.Boundaries {
		if math.IsNaN(b.Start) || math.IsNaN(b.End) || b.Start < 0 || b.End > v.Duration+1e-9 || b.End <= b.Start {
			return false
		}
	}
	return true
}

func sameIntervals(a, b []lightor.Interval) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func runVodRefine(e *env, seed int64, sh shape) (*result, error) {
	res := &result{workload: "vod-refine", seed: seed}
	ref, err := inputs.NewReference()
	if err != nil {
		return nil, err
	}
	vids := ref.Crawl(refineCrawlChannels, refineCrawlVideos)
	dig := inputs.NewDigest()
	built, err := ref.RefineVideos(vids, seed, dig)
	if err != nil {
		return nil, err
	}
	res.inputsDigest = dig.Hex()
	all := make([]*refineVideo, len(built))
	for i, in := range built {
		all[i] = newRefineVideo(in)
	}
	videos, spare := all[:refineVideos], all[refineVideos:]

	seeded := filepath.Join(e.dataRoot, "vod-refine-seeded")
	// An earlier run of this process may have left one: its checkpointed
	// sessions would be resumed and refuse this run's chat as out of order.
	if err := os.RemoveAll(seeded); err != nil {
		return nil, err
	}
	if err := seedCrash(e, ref, seed, seeded, spare); err != nil {
		return nil, fmt.Errorf("seeding the crashed data directory: %w", err)
	}
	var dataDir string
	srv, setups, err := startServerRounds(e, res.workload, func(round int) ([]string, error) {
		dataDir = filepath.Join(e.dataRoot, fmt.Sprintf("vod-refine-%d", round))
		if err := copyDir(seeded, dataDir); err != nil {
			return nil, err
		}
		return refineServerFlags(dataDir), nil
	})
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	if _, err := fetchHighlights(srv.addr, ref, vids[:refineVideos]); err != nil {
		return nil, err
	}

	// Videos are partitioned by connection, so each video's rounds happen in
	// a fixed order whatever the timing.
	phase := func(w window, conns int, body func(c *conn, r *recorder, mine []*refineVideo), reads ...func() (float64, error)) (*recorder, [][]float64, error) {
		perConn := refineVideos / conns
		return drive(w, conns, func(k int, r *recorder) error {
			c, err := dial(srv.addr)
			if err != nil {
				return err
			}
			defer c.close()
			body(c, r, videos[k*perConn:(k+1)*perConn])
			return nil
		}, reads...)
	}

	// Count-based pass: its result cannot depend on where a clock stopped.
	// Nothing is timed, so it may use the seeding's connections.
	pre, _, err := phase(unmeasured, refineSeedConns, func(c *conn, r *recorder, mine []*refineVideo) {
		for round := 0; round < refineCheckRounds; round++ {
			for _, v := range mine {
				v.expectRound(ref)
				job, ok := v.round(c, r)
				if ok && !sameIntervals(job.Boundaries, v.bounds) {
					r.failed += inputs.RefinePostsPerRound
					r.wrong("video %s round %d: refined boundaries differ from the reference", v.ID, round+1)
				}
			}
		}
	})
	if err != nil {
		return nil, err
	}
	results := inputs.NewDigest()
	for _, v := range videos {
		results.AddJSON(v.bounds)
	}
	res.resultsDigest = results.Hex()

	w := window{shape: sh, start: time.Now().Add(sh.warmup)}
	rec, series, err := phase(w, refineConns, func(c *conn, r *recorder, mine []*refineVideo) {
		for time.Now().Before(w.end()) {
			for _, v := range mine {
				job, ok := v.round(c, r)
				if ok && !v.wellFormed(job) {
					r.failed += inputs.RefinePostsPerRound
					r.wrong("video %s round %d: malformed refinement result", v.ID, v.rounds)
				}
				if !time.Now().Before(w.end()) {
					break
				}
			}
		}
	}, srv.cpuSeconds, selfCPUSeconds, func() (float64, error) { return dirBytes(dataDir) })
	if err != nil {
		return nil, err
	}
	return finish(res, srv, load{rec: mergeRecorders([]*recorder{rec, pre}), cpu: series[0], gen: series[1], dir: series[2],
		setups: setups, memShare: refineMemShare, paced: true, endpoint: "interactions_post"})
}

// seedCrash produces the data directory the set-up recovers from: a server
// takes live chat on refineSeedSessions channels (leaving a checkpoint
// each) and refineSeedPosts durable event batches on the spare videos, and
// is then killed without warning.
func seedCrash(e *env, ref *inputs.Reference, seed int64, dir string, spare []*refineVideo) error {
	flags := append(refineServerFlags(dir), "-checkpoint-interval", "100ms")
	srv, _, err := startServer(e, "vod-refine-seed", flags...)
	if err != nil {
		return err
	}
	defer srv.stop()
	stream, err := ref.NewStream(stats.NewRand(seed+4), inputs.SparseProfile(), false, ingestBatch)
	if err != nil {
		return err
	}
	errs := make([]error, refineSeedConns)
	var wg sync.WaitGroup
	for k := 0; k < refineSeedConns; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, err := dial(srv.addr)
			if err != nil {
				errs[k] = err
				return
			}
			defer c.close()
			for s := k; s < refineSeedSessions; s += refineSeedConns {
				for _, body := range stream.Bodies[:min(2, len(stream.Bodies))] {
					if status, _, err := c.do("POST", "/api/live/chat?channel=seed-"+strconv.Itoa(s), "", body); err != nil || status != 202 {
						errs[k] = fmt.Errorf("seeding live chat: status %d, %v", status, err)
						return
					}
				}
			}
			for n := k; n < refineSeedPosts; n += refineSeedConns {
				v := spare[n%len(spare)]
				round := n / len(spare) / inputs.RefinePostsPerRound % inputs.RefinePoolRounds
				body := v.Pool[round][n/len(spare)%inputs.RefinePostsPerRound]
				if status, _, err := c.do("POST", v.post, "", body); err != nil || status != 204 {
					errs[k] = fmt.Errorf("seeding events: status %d, %v", status, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	time.Sleep(250 * time.Millisecond) // two checkpoint intervals: every session has one on disk
	return nil
}

// dirBytes is the total size of the regular files in dir.
func dirBytes(dir string) (float64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n float64
	for _, ent := range entries {
		if info, err := ent.Info(); err == nil && info.Mode().IsRegular() {
			n += float64(info.Size())
		}
	}
	return n, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
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
		if err := copyFile(filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
