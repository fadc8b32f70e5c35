package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// spec is BENCHMARK.json: the names, units and bounds the benchmark is
// held to. The harness reads it rather than repeating it, so what a run
// prints and what the file promises cannot drift apart.
type spec struct {
	Command    []string     `json:"command"`
	Paths      []string     `json:"paths"`
	RunSeconds int          `json:"run_seconds"`
	Workloads  []specLoad   `json:"workloads"`
	EndToEnd   []specMetric `json:"end_to_end"`
	PerLayer   []specMetric `json:"per_layer"`
}

type specLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// value is one measured metric.
type value struct {
	v       float64
	samples int // observations behind it (0 when that has no meaning)
	// raw, where it is not 0, is the value before it was corrected for the
	// machine's speed during the run.
	raw  float64
	note string // e.g. "over 6 blocks of ~3 slices"
}

// result is what one run of one workload produced.
type result struct {
	workload          string
	seed              int64
	attempted, failed int64
	wrongs            []string // results that differed from the reference
	e2e               map[string]value
	// extra are the per-layer metrics only an end-to-end run can give (the
	// generator's CPU, the server's view of its latencies); a traced run
	// adds the probes' metrics to them.
	extra map[string]value
	// cpuNsPerUnit is the CPU the measured slices spent per unit, server and
	// generator together: what a single-threaded replay of the whole path
	// (the probes' loopback trace) is comparable with.
	cpuNsPerUnit float64
	// spin and walk are the yardstick's parts over the whole run, as
	// multiples of what they take on the machine at rest.
	spin, walk    float64
	inputsDigest  string
	resultsDigest string
	took          time.Duration
}

// correct reports whether every output matched the reference.
func (r *result) correct() bool { return len(r.wrongs) == 0 }

func (r *result) failedShare() float64 {
	if r.attempted == 0 {
		return math.NaN()
	}
	return float64(r.failed) / float64(r.attempted)
}

// check verifies that a run produced exactly the metrics the spec lists,
// each a finite number.
func (r *result) check(metrics []specMetric, got map[string]value) error {
	var bad []string
	for _, m := range metrics {
		v, ok := got[m.Name]
		switch {
		case !ok:
			bad = append(bad, m.Name+": not measured")
		case math.IsNaN(v.v) || math.IsInf(v.v, 0):
			bad = append(bad, m.Name+": not a number")
		}
	}
	for name := range got {
		if !hasMetric(metrics, name) {
			bad = append(bad, name+": not in BENCHMARK.json")
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("%s: %s", r.workload, strings.Join(bad, "; "))
	}
	return nil
}

func hasMetric(ms []specMetric, name string) bool {
	for _, m := range ms {
		if m.Name == name {
			return true
		}
	}
	return false
}

// printTable writes the human-readable report of one run.
func (r *result) printTable(w io.Writer, metrics []specMetric, got map[string]value) {
	fmt.Fprintf(w, "\n%s  seed %d  (%.1fs)\n", r.workload, r.seed, r.took.Seconds())
	for _, m := range metrics {
		v := got[m.Name]
		line := fmt.Sprintf("  %-34s %14.4f %-8s", m.Name, v.v, m.Unit)
		if v.samples > 0 {
			line += fmt.Sprintf(" n=%d", v.samples)
		}
		if v.raw != 0 {
			line += fmt.Sprintf(" (uncorrected %.4f)", v.raw)
		}
		if v.note != "" {
			line += " (" + v.note + ")"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
	fmt.Fprintf(w, "  %-34s %14.6f %-8s %d of %d\n", "failed_share", r.failedShare(), "ratio", r.failed, r.attempted)
	fmt.Fprintf(w, "  machine: the yardstick's spin took %.2f× and its walk %.2f× what they take at rest\n", r.spin, r.walk)
	if r.inputsDigest != "" {
		fmt.Fprintf(w, "  inputs  sha256 %s\n", r.inputsDigest)
	}
	if r.resultsDigest != "" {
		fmt.Fprintf(w, "  results sha256 %s\n", r.resultsDigest)
	}
	for _, s := range r.wrongs {
		fmt.Fprintf(w, "  WRONG: %s\n", s)
	}
}

// contractLine is the last line of standard output in driver mode.
func (r *result) contractLine(metrics []specMetric, got map[string]value) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool          `json:"correct"`
		Attempted int64         `json:"attempted"`
		Failed    int64         `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{Correct: r.correct(), Attempted: max(r.attempted, 1), Failed: min(r.failed, r.attempted), Metrics: map[string]mv{}}
	for _, m := range metrics {
		out.Metrics[m.Name] = mv{Value: got[m.Name].v, Unit: m.Unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		panic(err) // check() has already rejected NaN and Inf
	}
	return string(b)
}
