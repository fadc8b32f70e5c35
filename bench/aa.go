package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lightor/internal/stats"
)

// issueBound is the bound the issue that asked for this benchmark hoped
// each metric would hold (ok_share stands for its failed_share + 0.001).
// The noise report holds the measurement against it, so that the day the
// benchmark runs on a machine that can hold it, the report says so.
var issueBound = map[string]float64{
	"setup_s":          0.10,
	"throughput_per_s": 0.05,
	"op_p50_ms":        0.08,
	"cpu_us_per_unit":  0.05,
	"ok_share":         0.001,
}

// Headroom a bound keeps over what was measured. The issue asked for twice
// the A/A gap. The driver refuses a benchmark outright when the spread of
// ten differently seeded runs exceeds the bound, and its contract asks for
// spreads below a third of the bound, so the spread gets 3×.
const (
	gapHeadroom    = 2.0
	spreadHeadroom = 3.0
	boundCeiling   = 0.25 // the driver's contract allows no wider bound
)

// noise is what the noise report found for one metric, worst workload first.
type noise struct {
	gap, spread float64 // largest over the workloads, as shares
}

// runNoise is the noise gate. With pairs > 0 it makes, for every workload,
// that many pairs of identical runs, interleaved A B A B …, and compares
// the medians of set A and set B metric by metric: two sets of the SAME
// code must agree within the bound the benchmark holds a CHANGE to. With
// seeds > 0 it makes that many runs per workload, each at another seed, and
// takes the inter-quartile range of every metric as a share of its median —
// the check the driver makes before it accepts the benchmark. Where either
// exceeds the bound the bound means nothing and the gate fails. From both
// it derives the bound each metric can hold on this machine. The report
// goes to bench/NOISE.md.
func runNoise(e *env, sp *spec, pairs, seeds int, seed int64, sh shape) error {
	began := time.Now()
	worst := map[string]*noise{}
	for _, m := range sp.EndToEnd {
		worst[m.Name] = &noise{}
	}
	failedRuns, breaches, runs := 0, 0, 0
	// collect makes n runs of one workload and returns each metric's values
	// in run order, and under the metric's name + rawSuffix what they were
	// before the correction for the machine's speed.
	const rawSuffix = " uncorrected"
	collect := func(wl int, n int, seedOf func(i int) int64) (map[string][]float64, error) {
		vals := map[string][]float64{}
		for i := 0; i < n; i++ {
			res, err := runOnce(e, workloads[wl].run, seedOf(i), sh)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", workloads[wl].name, err)
			}
			if err := res.check(sp.EndToEnd, res.e2e); err != nil {
				return nil, err
			}
			runs++
			if !res.correct() || res.failed > 0 {
				failedRuns++
			}
			res.printTable(os.Stdout, sp.EndToEnd, res.e2e)
			for _, m := range sp.EndToEnd {
				v := res.e2e[m.Name]
				vals[m.Name] = append(vals[m.Name], v.v)
				if v.raw != 0 {
					vals[m.Name+rawSuffix] = append(vals[m.Name+rawSuffix], v.raw)
				}
			}
		}
		return vals, nil
	}
	verdict := func(x, bound float64) string {
		if x > bound {
			breaches++
			return "**BREACH**"
		}
		return "ok"
	}

	var aa, spread strings.Builder
	for wl := range workloads {
		name := workloads[wl].name
		if pairs > 0 {
			vals, err := collect(wl, 2*pairs, func(int) int64 { return seed })
			if err != nil {
				return err
			}
			for _, m := range sp.EndToEnd {
				var sets [2][]float64
				for i, v := range vals[m.Name] {
					sets[i%2] = append(sets[i%2], v)
				}
				a, b := median(sets[0]), median(sets[1])
				gap := math.Abs(b-a) / a
				worst[m.Name].gap = max(worst[m.Name].gap, gap)
				all := vals[m.Name]
				fmt.Fprintf(&aa, "| %s | %s | %.4f | %.4f | %s | %.2f%% | %.1f%% | %.2f%% | %s |\n", name, m.Name, a, b, m.Unit,
					100*gap, 100*m.Bound, 100*(stats.Max(all)-stats.Min(all))/median(all), verdict(gap, m.Bound))
			}
		}
		if seeds > 0 {
			vals, err := collect(wl, seeds, func(i int) int64 { return seed + 1 + int64(i) })
			if err != nil {
				return err
			}
			for _, m := range sp.EndToEnd {
				v := vals[m.Name]
				s := iqrShare(v)
				// The driver exempts setup_s from the spread check (it holds
				// only its medians to the bound); it is shown, not gated.
				mark := "shown only"
				if m.Name != "setup_s" {
					worst[m.Name].spread = max(worst[m.Name].spread, s)
					mark = verdict(s, m.Bound)
				}
				uncorrected := "—"
				if raw := vals[m.Name+rawSuffix]; len(raw) > 0 {
					uncorrected = fmt.Sprintf("%.2f%%", 100*iqrShare(raw))
				}
				fmt.Fprintf(&spread, "| %s | %s | %.4f | %s | %.2f%% | %s | %.1f%% | %s |\n", name, m.Name, median(v), m.Unit, 100*s, uncorrected, 100*m.Bound, mark)
			}
		}
	}

	var md strings.Builder
	fmt.Fprintf(&md, "# Noise report\n\n")
	fmt.Fprintf(&md, "`bash bench/run.sh -aa %d -spread %d` — seed %d, %d s measured per run in %d slices, %d runs, took %s.\n\n",
		pairs, seeds, seed, int(sh.measured().Seconds()), sh.slices, runs, time.Since(began).Round(time.Second))
	fmt.Fprintf(&md, "`%s`\n\n", e.header())
	if pairs > 0 {
		fmt.Fprintf(&md, "## A/A: two interleaved sets of identical runs\n\n")
		fmt.Fprintf(&md, "%d pairs per workload (A B A B …), all at the default seed. `gap` is the distance between the medians of set A and set B as a share of A's; `bound` is the share by which BENCHMARK.json lets the metric worsen; `range` is (max − min) / median over all %d runs.\n\n", pairs, 2*pairs)
		fmt.Fprintf(&md, "| workload | metric | median A | median B | unit | gap | bound | range | |\n|---|---|---:|---:|---|---:|---:|---:|---|\n%s\n", aa.String())
	}
	if seeds > 0 {
		fmt.Fprintf(&md, "## Spread: %d runs per workload, each at another seed\n\n", seeds)
		fmt.Fprintf(&md, "`spread` is the distance between the first and third quartile of the %d values as a share of their median — what the driver computes before it accepts the benchmark, refusing it where a spread exceeds the bound. `uncorrected` is the same for the values before the correction for the machine's speed during the run: where it is no wider than `spread`, the correction (or the workload's `memShare`) has stopped earning its keep.\n\n", seeds)
		fmt.Fprintf(&md, "| workload | metric | median | unit | spread | uncorrected | bound | |\n|---|---|---:|---|---:|---:|---:|---|\n%s\n", spread.String())
	}
	fmt.Fprintf(&md, "## The bound each metric can hold here\n\n")
	fmt.Fprintf(&md, "Per metric, over its worst workload: `derived` is the largest of the issue's bound, %.0f× the A/A gap and %.0f× the spread, rounded up to a multiple of 5%% (ok_share: of 0.1%%) and cut off at the contract's ceiling of %.0f%%; where it is cut off the bound keeps less headroom than that over what was measured.\n\n", gapHeadroom, spreadHeadroom, 100*boundCeiling)
	fmt.Fprintf(&md, "| metric | issue's bound | worst gap | worst spread | derived | BENCHMARK.json | |\n|---|---:|---:|---:|---:|---:|---|\n")
	for _, m := range sp.EndToEnd {
		w := worst[m.Name]
		need := max(issueBound[m.Name], gapHeadroom*w.gap, spreadHeadroom*w.spread)
		step := 0.05
		if m.Name == "ok_share" {
			step = 0.001
		}
		derived := math.Ceil(need/step-1e-9) * step
		cut := derived > boundCeiling
		derived = min(derived, boundCeiling)
		mark := "ok"
		switch {
		case m.Bound < derived-1e-9:
			mark = "BENCHMARK.json is tighter than the machine holds"
		case cut:
			mark = "at the ceiling: less headroom than that"
		case m.Bound > derived+1e-9:
			mark = "BENCHMARK.json could be tightened"
		}
		fmt.Fprintf(&md, "| %s | %.1f%% | %.2f%% | %.2f%% | %.1f%% | %.1f%% | %s |\n", m.Name, 100*issueBound[m.Name], 100*w.gap, 100*w.spread, 100*derived, 100*m.Bound, mark)
	}
	fmt.Fprintf(&md, "\nRuns with a failed operation or a wrong output: %d of %d.\n", failedRuns, runs)
	md.WriteString(noiseNotes)
	fmt.Print("\n", md.String())
	if err := os.WriteFile(filepath.Join(e.root, "bench", "NOISE.md"), []byte(md.String()), 0o644); err != nil {
		return err
	}
	if breaches > 0 || failedRuns > 0 {
		return fmt.Errorf("noise gate: %d value(s) beyond their bound, %d run(s) with failures", breaches, failedRuns)
	}
	return nil
}

// iqrShare is the distance between the first and the third quartile as a
// share of the median, quartiles as Python's statistics.quantiles(v, n=4)
// gives them (the driver's arithmetic): position (n+1)·p among the sorted
// values, interpolated.
func iqrShare(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		pos := p*float64(n+1) - 1
		i := min(max(int(math.Floor(pos)), 0), n-2)
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return (at(0.75) - at(0.25)) / median(s)
}

// noiseNotes records how the three defects that got the previous benchmark
// rejected as too noisy are designed out of this one.
const noiseNotes = `
## The three defects of the rejected benchmark, and what replaced them

1. **A 10 ms set-up.** ` + "`vod-batch/setup_s`" + ` was 10 ms and moved 11% between two
   builds of the same code: a number smaller than the noise around it. Every
   set-up here does more than half a second of deterministic work (train +
   crawl 128 videos; crash recovery of a seeded data directory; train + parse
   and sessionize a 32-video corpus), is performed five times per run, and
   the median is reported.
2. **A sub-millisecond p95 from one short run.** ` + "`live-mixed/op_p95_ms`" + ` (0.47 ms,
   open loop) moved 7%. Every latency here is computed per one-second slice
   and the median over the run's slices is reported, so a scheduling stall
   spoils a slice and not the number; the gated median latency is corrected,
   slice by slice, for the speed the machine had around that slice; a
   percentile too thin for single slices is taken over merged blocks, never
   fewer than three, never over the pooled run. The 95th percentile itself
   is reported per-layer, not gated: it did not hold a bound.
3. **A throughput that was the schedule.** ` + "`live-mixed/throughput_per_s`" + ` read
   2500.03 on both sides, because the loop was open and the rate was fixed.
   All four workloads here are closed loops, where throughput is the
   system's.
`
