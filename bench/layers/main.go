// Command layers runs the white-box per-layer probes of the benchmark: it
// times calls into each module's public functions from outside, on the same
// inputs the end-to-end workloads send, records a span around every call
// and prints the per-layer metrics computed from the spans. The harness
// (bench/) runs it when asked for --trace 1; by hand:
//
//	go run ./layers -seed 20200420 -seconds 10 -out out
//
// This is the only part of the benchmark that imports the packages under
// test; the end-to-end harness stays black-box and does not link it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"lightor/bench/inputs"
)

// probes in running order. Each is one timed walk into the system: it runs
// until its share (weight) of the time budget is spent, at least once,
// recording a span per repetition.
var probes = []struct {
	name   string
	run    func(f *fixture, t *tracer, budget time.Duration) error
	weight int
}{
	{"ingest-tree", ingestTree, 6},
	{"trace-overhead", traceOverhead, 2},
	{"ingest-64", ingest64, 2},
	{"feed-allocs", feedAllocs, 0},
	{"snapshot", snapshot, 1},
	{"checkpoint", checkpoint, 1},
	{"watch-reads", watchReads, 3},
	{"push", push, 2},
	{"refine-path", refinePath, 3},
	{"wal", walPath, 3},
	{"recovery", recovery, 2},
	{"batch-tree", batchTree, 3},
	{"ring-owner", ringOwner, 1},
}

func main() {
	var (
		seed     = flag.Int64("seed", inputs.DefaultSeed, "seed of the inputs")
		seconds  = flag.Float64("seconds", 10, "time budget shared by all probes")
		out      = flag.String("out", "", "directory for the trace-<workload>.jsonl files (empty: write none)")
		dataRoot = flag.String("data-root", os.TempDir(), "directory for the probes' WAL and store files")
	)
	flag.Parse()
	// One processor: the server's asynchronous stages (mailbox workers,
	// refine fan-out) then run interleaved with their callers instead of
	// beside them, so a span's wall time is the CPU time of everything under
	// it and parent − children is a meaningful self time. With two
	// processors the handler's span came out SHORTER than its children's sum.
	runtime.GOMAXPROCS(1)
	if err := run(*seed, *seconds, *out, *dataRoot); err != nil {
		fmt.Fprintln(os.Stderr, "layers:", err)
		os.Exit(1)
	}
}

func run(seed int64, seconds float64, out, dataRoot string) error {
	f, err := newFixture(seed, dataRoot)
	if err != nil {
		return err
	}
	total := 0
	for _, p := range probes {
		total += p.weight
	}
	t := newTracer()
	for _, p := range probes {
		budget := time.Duration(seconds * float64(p.weight) / float64(total) * float64(time.Second))
		if err := p.run(f, t, budget); err != nil {
			return fmt.Errorf("probe %s: %w", p.name, err)
		}
	}
	metrics, err := layerMetrics(t)
	if err != nil {
		return err
	}
	// One span file per workload: the probes whose layers that workload's
	// end-to-end numbers are predicted to follow.
	spans := map[string]int{}
	if out != "" {
		for _, workload := range []string{wIngest, wWatch, wRefine, wBatch} {
			if spans[workload], err = t.write(filepath.Join(out, "trace-"+workload+".jsonl"), workload); err != nil {
				return err
			}
		}
	}
	return json.NewEncoder(os.Stdout).Encode(struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   map[string]int     `json:"spans"`
	}{metrics, spans})
}

// layerMetrics computes the per-layer table from the spans: a span's time
// divided by the work it counted, or its self time (the span minus its
// children, the replays one depth further in) where a layer's own share is
// what is wanted.
func layerMetrics(t *tracer) (map[string]float64, error) {
	a := t.aggregate()
	var missing []string
	get := func(layer, name string) *agg {
		if g := a[[2]string{layer, name}]; g != nil {
			return g
		}
		missing = append(missing, layer+"/"+name)
		return &agg{counts: map[string]int64{}}
	}
	// per is total span time per counted unit, in the given unit of time.
	per := func(layer, name, count string, unit time.Duration) float64 {
		g := get(layer, name)
		return float64(g.total) / float64(unit) / float64(g.counts[count])
	}
	both := func(f func(kind string) (time.Duration, int64)) float64 {
		ds, ns := f("sparse")
		dd, nd := f("dense")
		return float64(ds+dd) / float64(ns+nd)
	}
	// Sparse and dense passes together, per message: total and self.
	totalNs := func(layer, prefix string) float64 {
		return both(func(k string) (time.Duration, int64) {
			g := get(layer, prefix+k)
			return g.total, g.counts["messages"]
		})
	}
	selfNs := func(layer, prefix string) float64 {
		return both(func(k string) (time.Duration, int64) {
			g := get(layer, prefix+k)
			return g.self, g.counts["messages"]
		})
	}
	push0, push1, push1k := get("platform", "publish-0"), get("platform", "publish-1"), get("platform", "publish-1000")
	perVersion := func(g *agg) float64 { return float64(g.total) / float64(g.counts["versions"]) }
	extract := get("engine", "ExtractHighlights")
	snap := get("core", "AppendSnapshot")
	allocs := get("core", "Feed-allocs")
	overhead := get("trace", "overhead-summary").counts

	m := map[string]float64{
		"chat.decode_ns_per_msg":              per("chat", "AppendMessagesJSON", "messages", time.Nanosecond),
		"chat.readjsonl_ns_per_msg":           per("chat", "ReadJSONL", "messages", time.Nanosecond),
		"text.add_ns_per_msg":                 per("text", "SimilarityAccumulator.Add", "messages", time.Nanosecond),
		"core.feed_sparse_ns_per_msg":         per("core", "OnlineDetector.Feed-sparse", "messages", time.Nanosecond),
		"core.feed_dense_ns_per_msg":          per("core", "OnlineDetector.Feed-dense", "messages", time.Nanosecond),
		"core.feed_allocs_per_msg":            float64(allocs.counts["mallocs"]) / float64(allocs.counts["messages"]),
		"core.detect_ms_per_video":            per("core", "Initializer.Detect", "videos", time.Millisecond),
		"core.refine_us_per_dot":              per("core", "Extractor.Refine", "dots", time.Microsecond),
		"core.snapshot_us":                    per("core", "AppendSnapshot", "snapshots", time.Microsecond),
		"core.snapshot_bytes":                 float64(snap.counts["snapshot_bytes"]) / float64(snap.counts["snapshots"]),
		"core.restore_us":                     per("core", "RestoreSnapshot", "snapshots", time.Microsecond),
		"play.sessionize_ns_per_event":        per("play", "Sessionize", "events", time.Nanosecond),
		"engine.ingest_ns_per_msg":            totalNs("engine", "Session.Ingest-"),
		"engine.ingest64_ns_per_msg":          per("engine", "Session.Ingest-64", "messages", time.Nanosecond),
		"engine.self_ns_per_msg":              selfNs("engine", "Session.Ingest-"),
		"engine.dots_read_ns":                 per("engine", "Session.DotsPage", "reads", time.Nanosecond),
		"engine.extract_ms_per_video":         per("engine", "ExtractHighlights", "videos", time.Millisecond),
		"engine.extract_self_ms":              float64(extract.self) / float64(time.Millisecond) / float64(extract.counts["videos"]),
		"engine.refine_job_us":                per("engine", "RefineQueue.job", "jobs", time.Microsecond),
		"engine.checkpoint_us":                per("engine", "Session.Checkpoint", "checkpoints", time.Microsecond),
		"wal.append_ns_per_rec":               per("wal", "Append", "records", time.Nanosecond),
		"wal.append_durable_us":               per("wal", "AppendDurable", "records", time.Microsecond),
		"wal.batch_durable_us_per_rec":        per("wal", "AppendBatchDurable", "records", time.Microsecond),
		"wal.replay_ns_per_rec":               per("wal", "ScanFile", "records_replayed", time.Nanosecond),
		"platform.chat_handler_ns_per_msg":    totalNs("platform", "ServeHTTP-"),
		"platform.self_ns_per_msg":            selfNs("platform", "ServeHTTP-"),
		"platform.dots_304_ns":                per("platform", "ServeLiveDots-304", "requests", time.Nanosecond),
		"platform.dots_hit_ns":                per("platform", "ServeLiveDots-hit", "requests", time.Nanosecond),
		"platform.dots_miss_us":               per("platform", "ServeLiveDots-miss", "requests", time.Microsecond),
		"platform.highlights_hit_ns":          per("platform", "ServeHighlights-hit", "requests", time.Nanosecond),
		"platform.highlights_cold_ms":         per("platform", "highlights-cold", "requests", time.Millisecond),
		"platform.push_publish_us":            (perVersion(push1) - perVersion(push0)) / float64(time.Microsecond),
		"platform.push_fanout_ns_per_sub":     (perVersion(push1k) - perVersion(push1)) / 999,
		"platform.events_handler_us_per_post": per("platform", "interactions-handler", "requests", time.Microsecond),
		"platform.events_append_ns_per_event": per("platform", "Store.LogEvents", "events_appended", time.Nanosecond),
		"platform.plays_scan_us":              per("platform", "Store.Plays", "scans", time.Microsecond),
		"platform.recover_ms":                 per("platform", "OpenFileBackend", "recoveries", time.Millisecond),
		"http.loopback_self_ns_per_msg":       selfNs("http", "loopback-"),
		"cluster.ring_owner_ns":               per("cluster", "Ring.Owner", "lookups", time.Nanosecond),
		"trace.overhead_share":                float64(overhead["traced_ns"]-overhead["untraced_ns"]) / float64(overhead["untraced_ns"]),
	}
	if len(missing) > 0 {
		return nil, fmt.Errorf("no span recorded for %v", missing)
	}
	return m, nil
}
