// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VII), one benchmark per artifact, plus micro-benchmarks of the
// hot paths. Each figure benchmark runs the corresponding experiment at
// quick scale so the whole suite completes in minutes; use
// `go run ./cmd/lightor-bench -scale default` for the paper-scale numbers
// recorded in EXPERIMENTS.md.
package lightor_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"lightor"
	"lightor/internal/chat"
	"lightor/internal/core"
	"lightor/internal/engine"
	"lightor/internal/experiments"
	"lightor/internal/perf"
	"lightor/internal/perf/perfcluster"
	"lightor/internal/perf/perfengine"
	"lightor/internal/perf/perfhttp"
	"lightor/internal/perf/perfload"
	"lightor/internal/perf/perfwal"
	"lightor/internal/play"
	"lightor/internal/sim"
	"lightor/internal/stats"
	"lightor/internal/text"
)

func benchConfig() experiments.Config { return experiments.Quick() }

// reportPrecision attaches a headline metric to the benchmark output so
// regressions in quality (not just speed) are visible.
func reportPrecision(b *testing.B, name string, v float64) {
	b.ReportMetric(v, name)
}

func BenchmarkFigure2a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "delay_s", r.Delay)
	}
}

func BenchmarkFigure2b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure2b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "hl_windows", float64(r.Highlights))
	}
}

func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure3(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "typeII_median_s", r.TypeIIMedian)
	}
}

func BenchmarkFigure6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		full := r.Curves[2]
		reportPrecision(b, "full_P@10", full.Y[full.Len()-1])
	}
}

func BenchmarkFigure6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure6b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "P@10_1video", r.Curve.Y[0])
	}
}

func BenchmarkFigure7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7a(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "lightor_P@10", r.Lightor.Y[r.Lightor.Len()-1])
	}
}

func BenchmarkFigure7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure7b(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "learned_c_s", r.Curve.Y[r.Curve.Len()-1])
	}
}

func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure8(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		last := r.LightorStart.Len() - 1
		reportPrecision(b, "start_P_final", r.LightorStart.Y[last])
	}
}

func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure9(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "frac_above_500", r.FractionAbove500Chats)
	}
}

func BenchmarkFigure10(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure10(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "lightor1_P@10", r.Lightor1.Y[r.Lightor1.Len()-1])
	}
}

func BenchmarkFigure11(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Figure11(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "lightor_dota_P@10", r.LightorDota.Y[r.LightorDota.Len()-1])
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Table1(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "speedup_x", r.SpeedupFactor())
	}
}

func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.Ablations(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "full_startP", r.Rows[0].StartP)
	}
}

func BenchmarkClassifierAccuracy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.ClassifierAccuracy(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "learned_acc", r.LearnedAccuracy)
	}
}

func BenchmarkWindowSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.WindowSweep(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "P@10_w25", r.Curve.Y[1])
	}
}

func BenchmarkDeltaSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.DeltaSweep(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "P@10_d120", r.Curve.Y[2])
	}
}

func BenchmarkOnlineVsOffline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := experiments.OnlineVsOffline(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		reportPrecision(b, "online_P", r.OnlinePrecision)
	}
}

// --- Micro-benchmarks of the hot paths ---

func benchVideoData(b *testing.B) sim.VideoData {
	b.Helper()
	rng := stats.NewRand(1)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 1)
	return data[0]
}

func trainedDetector(b *testing.B) (*lightor.Detector, sim.VideoData) {
	b.Helper()
	rng := stats.NewRand(2)
	data := sim.GenerateDataset(rng, sim.Dota2Profile(), 2)
	det, err := lightor.New(lightor.Options{})
	if err != nil {
		b.Fatal(err)
	}
	d := data[0]
	msgs := d.Chat.Log.Messages()
	windows := det.Windows(msgs, d.Video.Duration)
	labels := make([]int, len(windows))
	for i, w := range windows {
		for _, bu := range d.Chat.Bursts {
			if bu.Peak >= w.Start && bu.Peak < w.End {
				labels[i] = 1
				break
			}
		}
	}
	if err := det.Train([]lightor.TrainingVideo{
		det.NewTrainingVideo(msgs, d.Video.Duration, labels, d.Video.Highlights),
	}); err != nil {
		b.Fatal(err)
	}
	return det, data[1]
}

func BenchmarkInitializerDetect(b *testing.B) {
	det, target := trainedDetector(b)
	msgs := target.Chat.Log.Messages()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := det.DetectRedDots(msgs, target.Video.Duration, 10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractorStep(b *testing.B) {
	d := benchVideoData(b)
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(3)
	h := d.Video.Highlights[0]
	plays := sim.SimulateCrowd(rng, 50, d.Video, h.Start-5, h, sim.DefaultViewerBehavior())
	seed := core.Interval{Start: h.Start - 5, End: h.Start + 25}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ext.Step(seed, plays)
	}
}

func BenchmarkMessageSimilarity(b *testing.B) {
	d := benchVideoData(b)
	ws := chat.SlidingWindows(d.Chat.Log, d.Video.Duration, 25, 25)
	// Pick the busiest window for a realistic worst case.
	busiest := ws[0]
	for _, w := range ws {
		if w.Count() > busiest.Count() {
			busiest = w
		}
	}
	texts := busiest.Texts()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		text.MessageSimilarity(texts)
	}
}

func BenchmarkChatGeneration(b *testing.B) {
	rng := stats.NewRand(4)
	p := sim.Dota2Profile()
	v := sim.GenerateVideo(rng, p, "bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.GenerateChat(rng, v, p)
	}
}

func BenchmarkSlidingWindows(b *testing.B) {
	d := benchVideoData(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chat.SlidingWindows(d.Chat.Log, d.Video.Duration, 25, 25)
	}
}

func BenchmarkCrowdSimulation(b *testing.B) {
	d := benchVideoData(b)
	rng := stats.NewRand(5)
	h := d.Video.Highlights[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.SimulateCrowd(rng, 10, d.Video, h.Start-5, h, sim.DefaultViewerBehavior())
	}
}

// --- Session-engine benchmarks: the streaming-first hot path. ---

var (
	benchEngineOnce sync.Once
	benchEngineInit *core.Initializer
	benchEngineData sim.VideoData
	benchEngineErr  error
)

// benchTrainedEngine caches the shared perf fixture (trained initializer +
// held-out simulated video); training once keeps per-benchmark setup off
// the clock.
func benchTrainedEngine(b *testing.B) (*core.Initializer, sim.VideoData) {
	b.Helper()
	benchEngineOnce.Do(func() {
		benchEngineInit, benchEngineData, benchEngineErr = perf.TrainedFixture()
	})
	if benchEngineErr != nil {
		b.Fatal(benchEngineErr)
	}
	return benchEngineInit, benchEngineData
}

// BenchmarkOnlineFeed measures the per-message cost of the streaming hot
// path after the PR-2 incremental refactor. The bodies live in
// internal/perf so the CI zero-alloc gate and the -bench-json perf
// artifact measure identical workloads.
//
//   - steady-state: a message landing in the open window with closed
//     windows pending under the δ horizon — the dominant case, required to
//     run at 0 allocs/op (features and the peak histogram accumulate in
//     place; nothing is retained per message);
//   - window-turnover: a sparse stream, four messages per window, so the
//     cost is dominated by tokens new to their window and by window closes —
//     also required to run at 0 allocs/op;
//   - stream: a realistic advancing clock, so the amortized cost includes
//     window closes, δ-finalization, and emissions.
func BenchmarkOnlineFeed(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	b.Run("steady-state", perf.FeedSteadyState(init, msgs))
	b.Run("window-turnover", perf.FeedWindowTurnover(init, msgs))
	b.Run("stream", perf.FeedStream(init, msgs))
}

// BenchmarkOnlineWindowClose drives full window lifecycles (fill with n
// messages, close, finalize) at increasing messages-per-window. Per-message
// cost should stay roughly flat as n grows — the refactor made window close
// O(1) and each feed O(tokens), where the batch-era path rebuilt the
// vocabulary and dense vectors at close for an O(n²) total.
func BenchmarkOnlineWindowClose(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, n := range perf.WindowCloseSweep {
		b.Run(fmt.Sprintf("msgs=%d", n), perf.WindowClose(init, msgs, n))
	}
}

// BenchmarkEngineMultiChannelIngest measures live-chat throughput through
// the session engine at increasing channel fan-in. Each iteration streams
// one full simulated broadcast into every channel concurrently and flushes;
// msgs/sec is the headline metric.
func BenchmarkEngineMultiChannelIngest(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, channels := range perfengine.IngestChannelSweep {
		b.Run(fmt.Sprintf("channels=%d", channels), perfengine.MultiChannelIngest(init, msgs, channels, nil))
	}
}

// BenchmarkEngineBurstIngest sweeps channel fan-in × ingest batch size.
// Batch 1 is the old per-message path (one envelope, one lock hop, one
// worker wake-up per message); batch 256 is a goal-moment burst riding one
// envelope. The msgs/sec ratio between them is the amortization win the
// batched mailbox buys, recorded per commit in BENCH_PR4.json.
func BenchmarkEngineBurstIngest(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, channels := range perfengine.IngestChannelSweep {
		for _, batch := range perfengine.IngestBatchSweep {
			b.Run(fmt.Sprintf("channels=%d/batch=%d", channels, batch),
				perfengine.BurstIngest(init, msgs, channels, batch, nil))
		}
	}
}

// BenchmarkEngineBatchIngest is the allocation gate for the batched
// mailbox: steady-state burst ingest through Session.Ingest must run at
// 0 allocs/op (pooled batch buffers + reusable mailbox ring + zero-alloc
// Feed). CI fails the build if an alloc sneaks back in.
func BenchmarkEngineBatchIngest(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	b.Run("steady-state", perfengine.BatchIngestSteadyState(init, msgs, 256))
}

// BenchmarkLiveHTTPIngest is the end-to-end burst path: live chat POSTed
// through the real handler (mux, query parse, streaming JSON decode,
// engine mailbox, response encode). Batch 1 pays the full request tax per
// message; batch 256 amortizes it away — the headline batched-ingest
// speedup recorded in BENCH_PR4.json.
func BenchmarkLiveHTTPIngest(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, channels := range perfengine.IngestChannelSweep {
		for _, batch := range perfengine.IngestBatchSweep {
			b.Run(fmt.Sprintf("channels=%d/batch=%d", channels, batch),
				perfhttp.LiveChatBurst(init, msgs, channels, batch, nil))
		}
	}
}

// BenchmarkHTTPDotsRead is the read half of the production story: many
// concurrent pollers hitting GET /api/live/dots through the real handler.
// "hot" is the version-keyed response cache plus conditional GETs (steady
// state: cache hit or bodyless 304); "cold" disables both — the PR 4 read
// path that re-encoded every poll. The hot-vs-cold ratio is the CI-gated
// read speedup in BENCH_PR5.json.
func BenchmarkHTTPDotsRead(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, pollers := range perfhttp.ReadPollerSweep {
		b.Run(fmt.Sprintf("pollers=%d/hot", pollers), perfhttp.DotsRead(init, msgs, pollers, true, nil))
		b.Run(fmt.Sprintf("pollers=%d/cold", pollers), perfhttp.DotsRead(init, msgs, pollers, false, nil))
	}
}

// BenchmarkHTTPHighlightsRead is the same sweep for GET /api/highlights:
// recorded-video highlight serving for concurrent viewers, hot (cached +
// conditional) vs cold (re-encode and re-clone every request).
func BenchmarkHTTPHighlightsRead(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, pollers := range perfhttp.ReadPollerSweep {
		b.Run(fmt.Sprintf("pollers=%d/hot", pollers), perfhttp.HighlightsRead(init, msgs, pollers, true, nil))
		b.Run(fmt.Sprintf("pollers=%d/cold", pollers), perfhttp.HighlightsRead(init, msgs, pollers, false, nil))
	}
}

// BenchmarkHTTPDotsReadRacingIngest measures hot dot polling while
// batched ingest keeps emitting on the same session — cache invalidation
// churn under live write load, the worst realistic case for the read
// lane.
func BenchmarkHTTPDotsReadRacingIngest(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	b.Run("pollers=64", perfhttp.DotsReadRacingIngest(init, msgs, 64, nil))
}

// BenchmarkZipfMixedLoad is the adversarial-load harness under static
// Zipf channel popularity: mixed read/write/SSE/refine traffic against 64
// live channels through the real handler, reporting p50/p99/p999 (and
// the cold-channel read tail) from merged per-worker log-bucketed
// histograms. The p999/p50 dispersion of these rows is CI-gated.
func BenchmarkZipfMixedLoad(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, mix := range []perfload.Mix{perfload.ReadHeavy, perfload.WriteHeavy} {
		b.Run("mix="+mix.Name, perfload.ZipfMixed(init, msgs, mix, perfload.DefaultOptions(), nil))
	}
}

// BenchmarkFlashCrowd steps a mid-rank channel to 100× its Zipf share
// halfway through each schedule. admission=on sheds the hot channel's
// excess writes (429 + Retry-After) and keeps cold-channel reads fast;
// admission=off lets the hot mailbox grow without bound — the
// differential BENCH_PR8.json records.
func BenchmarkFlashCrowd(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	b.Run("admission=on", perfload.FlashCrowd(init, msgs, true, perfload.DefaultOptions(), nil))
	b.Run("admission=off", perfload.FlashCrowd(init, msgs, false, perfload.DefaultOptions(), nil))
}

// BenchmarkClusterIngest shards the fixed 12-channel live-ingest fleet
// across 1/2/3 in-process cluster nodes, every channel POSTed to its
// consistent-hash owner's real handler. Pre-routed clients, so the sweep
// prices sharding itself (the Owner() routing check, engines split N
// ways); the aggregate(N)/aggregate(1) ratio is the CI-gated cluster
// scale floor in BENCH_PR7.json.
func BenchmarkClusterIngest(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, nodes := range perfcluster.NodeSweep {
		b.Run(fmt.Sprintf("nodes=%d", nodes), perfcluster.ClusterIngest(init, msgs, nodes, nil))
	}
}

// BenchmarkClusterRead is the hot read lane (conditional GET
// /api/live/dots: cache hits and bodyless 304s) across the same sharded
// fleet, 64 concurrent pollers pre-routed to their channels' owners.
func BenchmarkClusterRead(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, nodes := range perfcluster.NodeSweep {
		b.Run(fmt.Sprintf("nodes=%d", nodes), perfcluster.ClusterRead(init, msgs, nodes, 64, nil))
	}
}

// BenchmarkPushFanout is the push-lane headline: versioned broadcast
// delivery to 1k/10k/100k SSE subscribers on one channel. Each broadcast
// version is encoded exactly once however many subscribers are attached
// (the CI-gated encodes/version == 1 metric in BENCH_PR6.json); fan-out
// is pointer enqueues of one immutable frame.
func BenchmarkPushFanout(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	for _, subs := range perfhttp.PushSubscriberSweep {
		b.Run(fmt.Sprintf("subs=%d", subs), perfhttp.PushFanout(init, msgs, subs, nil))
	}
}

// BenchmarkDotsSnapshotRead is the engine-level read-lane allocation
// gate: a lock-free Session.DotsPage load must cost 0 allocs/op. CI fails
// the build if an alloc (or a lock forcing a copy) sneaks back in.
func BenchmarkDotsSnapshotRead(b *testing.B) {
	init, d := benchTrainedEngine(b)
	b.Run("page", perfhttp.DotsSnapshotRead(init, d.Chat.Log.Messages()))
}

// BenchmarkLiveDotsCacheServe is the platform-level allocation gate:
// serving a cache-hit live-dots response (pre-encoded 200 body, or the
// bodyless 304 a conditional poller gets) must cost 0 allocs/op.
func BenchmarkLiveDotsCacheServe(b *testing.B) {
	init, d := benchTrainedEngine(b)
	msgs := d.Chat.Log.Messages()
	b.Run("hit-200", perfhttp.DotsCacheServe(init, msgs, false))
	b.Run("hit-304", perfhttp.DotsCacheServe(init, msgs, true))
}

// BenchmarkRefineKDots compares the seed's serial per-dot refinement loop
// (what Workflow.Run did) against the engine's per-dot fan-out on the same
// k = 8 dots. The parallel path should approach a worker-count speedup.
func BenchmarkRefineKDots(b *testing.B) {
	init, d := benchTrainedEngine(b)
	dots, err := init.Detect(d.Chat.Log, d.Video.Duration, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRand(7)
	var plays []play.Play
	for _, dot := range dots {
		if h, ok := sim.NearestHighlight(d.Video, dot.Time); ok {
			plays = append(plays, sim.SimulateCrowd(rng, 60, d.Video, dot.Time, h, sim.DefaultViewerBehavior())...)
		}
	}
	src := lightor.StaticPlays(plays)
	ext, err := core.NewExtractor(core.DefaultExtractorConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, dot := range dots {
				seed := core.Interval{Start: dot.Time, End: dot.Time + ext.Config().DefaultSpan}
				ext.Refine(seed, src)
			}
		}
	})
	b.Run("engine-parallel", func(b *testing.B) {
		eng, err := engine.New(init, ext, engine.Config{})
		if err != nil {
			b.Fatal(err)
		}
		defer eng.Close(context.Background())
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			job, err := eng.Refine().Enqueue("bench", dots, src, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := eng.Refine().Wait(ctx, job.ID); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkWALAppend measures the CPU cost the write-ahead log adds to
// every accepted mutation: framing, CRC32, and the buffered write (fsync
// excluded — durability cost is the group commit's, amortized across
// concurrent appends). Body shared with lightor-bench -bench-json.
func BenchmarkWALAppend(b *testing.B) {
	perfwal.Append(b.TempDir())(b)
}

// BenchmarkCheckpointLatency measures one live-session checkpoint —
// serializing a warmed OnlineDetector and writing it through the durable
// file backend. It rides a mailbox envelope, never the per-message Feed
// path (whose 0 allocs/op gate stays in BenchmarkOnlineFeed).
func BenchmarkCheckpointLatency(b *testing.B) {
	init, d := benchTrainedEngine(b)
	perfwal.CheckpointLatency(init, d.Chat.Log.Messages())(b)
}

// BenchmarkColdStartRecovery measures reopening a durable data dir whose
// whole state lives in the WAL (no snapshot — the worst case): scan,
// CRC-check, decode, and re-apply every record.
func BenchmarkColdStartRecovery(b *testing.B) {
	fixture, err := perfwal.BuildRecoveryFixture(b.TempDir(), 2000)
	if err != nil {
		b.Fatal(err)
	}
	perfwal.ColdStartRecovery(fixture, 2000)(b)
}
