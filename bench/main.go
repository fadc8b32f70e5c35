// Command bench is LIGHTOR's benchmark: black-box end-to-end runs of four
// named workloads against a freshly built lightor-server (and, for
// vod-batch, against the public lightor package), every output checked
// against an in-process reference. See README.md in this directory.
//
//	bash bench/run.sh                                  all four workloads
//	bash bench/run.sh --workload live-watch --seed 7 --seconds 16 --trace 0
//	bash bench/run.sh --trace 1                        per-layer numbers + span files
//	bash bench/run.sh -aa 3 -spread 10                 noise gate, writes NOISE.md
//	bash bench/run.sh -pin                             re-record bench/pins.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"strconv"
	"syscall"
	"time"

	"lightor/bench/inputs"
)

// runFunc is one workload: set up, load, check, reduce.
type runFunc func(e *env, seed int64, sh shape) (*result, error)

// workloads in the order they run and print.
var workloads = []struct {
	name string
	run  runFunc
}{
	{"live-ingest", runLiveIngest},
	{"live-watch", runLiveWatch},
	{"vod-refine", runVodRefine},
	{"vod-batch", runVodBatch},
}

// traceShape is the short end-to-end pass a traced run makes beside the
// probes, for the per-layer numbers only a live server can give (its own
// latency histograms, the generator's health). End-to-end METRICS are never
// taken from it.
var traceShape = shape{warmup: time.Second, slice: time.Second, rest: restTime, slices: minSlices}

// traceProbeSeconds caps the probes' time budget in a traced run.
const traceProbeSeconds = 12

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run only this workload and end with the driver's JSON line (default: all)")
		seed     = flag.Int64("seed", inputs.DefaultSeed, "seed every input is generated from")
		seconds  = flag.Int("seconds", 0, "measured seconds per run, in one-second slices (default: run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "1: report the per-layer metrics (probes + span files in bench/out) instead of the end-to-end ones")
		aa       = flag.Int("aa", 0, "noise gate, A/A: N interleaved pairs of identical runs per workload, set medians compared with the bounds; writes bench/NOISE.md")
		spread   = flag.Int("spread", 0, "noise gate, spread: N runs per workload at N other seeds, inter-quartile range compared with the bounds; writes bench/NOISE.md")
		pin      = flag.Bool("pin", false, "record the input and result digests of the default and held-out seeds in bench/pins.json")
	)
	flag.Parse()
	cpu, nproc, err := pinToOneCPU()
	if err != nil {
		return fail(err)
	}
	runtime.GOMAXPROCS(benchProcs)

	root, err := findRoot()
	if err != nil {
		return fail(err)
	}
	sp, err := loadSpec(root)
	if err != nil {
		return fail(err)
	}
	if *workload != "" && !hasWorkload(*workload) {
		return fail(fmt.Errorf("unknown workload %q", *workload))
	}
	if *seconds <= 0 {
		*seconds = sp.RunSeconds
	}
	sh := runShape(*seconds)

	e, err := newEnv(root, cpu, nproc)
	if err != nil {
		return fail(err)
	}
	defer e.cleanup()
	// A signal must not leave a server or a data directory behind: servers
	// die with the harness (Pdeathsig), the data root is cleared here.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sigs
		e.cleanup()
		os.Exit(130)
	}()
	fmt.Println(e.header())

	switch {
	case *pin:
		return exit(recordPins(e, sh))
	case *aa > 0 || *spread > 0:
		return exit(runNoise(e, sp, *aa, *spread, *seed, sh))
	}

	pins, err := loadPins(root)
	if err != nil {
		return fail(err)
	}
	// The probes time every layer in one pass, whatever workloads follow:
	// the per-layer table is one table.
	var probes map[string]float64
	if *trace == 1 {
		if probes, err = runProbes(e, *seed, *seconds); err != nil {
			return fail(err)
		}
	}
	code := 0
	for _, wl := range workloads {
		if *workload != "" && wl.name != *workload {
			continue
		}
		var res *result
		if *trace == 1 {
			// The short end-to-end pass adds what only a live server can tell.
			if res, err = runOnce(e, wl.run, *seed, traceShape); err == nil {
				for k, v := range probes {
					res.extra[k] = value{v: v}
				}
				if wl.name == "live-ingest" {
					// The one path the probes replay whole. Its layers' self
					// times sum, by construction, to the loopback trace's time
					// per message; held against what the black-box pass spent.
					sum := probes["http.loopback_self_ns_per_msg"] + probes["platform.chat_handler_ns_per_msg"]
					res.extra["trace.layer_sum_share"] = value{v: sum / res.cpuNsPerUnit}
				}
			}
		} else {
			res, err = runOnce(e, wl.run, *seed, sh)
		}
		if err != nil {
			return fail(fmt.Errorf("%s: %w", wl.name, err))
		}
		metrics, got := sp.EndToEnd, res.e2e
		if *trace == 1 {
			metrics, got = sp.PerLayer, res.extra
		}
		if err := res.check(metrics, got); err != nil {
			return fail(err)
		}
		if err := pins.check(res); err != nil {
			res.wrongs = append(res.wrongs, err.Error())
		}
		res.printTable(os.Stdout, metrics, got)
		if !res.correct() {
			code = 1
		}
		if *workload != "" {
			fmt.Println(res.contractLine(metrics, got))
		}
	}
	return code
}

func hasWorkload(name string) bool {
	for _, wl := range workloads {
		if wl.name == name {
			return true
		}
	}
	return false
}

// runOnce is one end-to-end run of one workload.
func runOnce(e *env, run runFunc, seed int64, sh shape) (*result, error) {
	began := time.Now()
	res, err := run(e, seed, sh)
	if err != nil {
		return nil, err
	}
	res.took = time.Since(began)
	return res, nil
}

// runProbes runs the white-box layer probes (a separate binary, so this
// harness links none of the packages under test) once: they write one span
// file per workload into bench/out and return the metrics computed from
// the spans.
func runProbes(e *env, seed int64, seconds int) (map[string]float64, error) {
	cmd := exec.Command(e.layersBin, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(min(seconds, traceProbeSeconds)), "-out", e.outDir, "-data-root", e.dataRoot)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	var probes struct {
		Metrics map[string]float64 `json:"metrics"`
		Spans   map[string]int     `json:"spans"`
	}
	if err := json.Unmarshal(out, &probes); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for _, wl := range workloads {
		fmt.Printf("%s: %d spans in %s/trace-%s.jsonl\n", wl.name, probes.Spans[wl.name], e.outDir, wl.name)
	}
	return probes.Metrics, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func exit(err error) int {
	if err != nil {
		return fail(err)
	}
	return 0
}
