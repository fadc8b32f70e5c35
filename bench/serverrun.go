package main

import (
	"fmt"
	"os"
	"slices"
	"syscall"
	"time"
)

// setupRounds is how many times a run performs its workload's set-up;
// setup_s is the median, so a slow exec or two do not set the number. (A
// variable so the smoke test can make do with fewer.)
var setupRounds = 5

// startServerRounds starts the workload's server setupRounds times, each
// from the state flagsFor prepares for that round, timing exec → ready
// every time, and keeps the last one running for the measured part.
func startServerRounds(e *env, name string, flagsFor func(round int) ([]string, error)) (*server, []time.Duration, error) {
	var setups []time.Duration
	for round := 0; ; round++ {
		flags, err := flagsFor(round)
		if err != nil {
			return nil, nil, err
		}
		srv, took, err := startServer(e, name, flags...)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, took)
		if round == setupRounds-1 {
			return srv, setups, nil
		}
		srv.stop()
	}
}

// load is what a workload hands over once its load goroutines have stopped.
type load struct {
	rec *recorder
	cpu []float64 // CPU seconds of the measured process, per slice
	// memShare is the share of the workload's time that waits for memory,
	// the rest computing: the weights with which the yardstick's walk and
	// spin give the workload's slowdown (yardstick.go). It is a property of
	// the workload, fitted once as the value at which runs made while the
	// machine's memory speed drifted agree best; NOISE.md prints the spread
	// with and without the correction, which shows when it needs refitting.
	memShare float64
	// paced says that the loop waits for a timer and not for the processor,
	// so that operation latency and throughput do not move with the
	// machine's speed and are left uncorrected; CPU per unit still is.
	paced  bool
	setups []time.Duration // every timed set-up
	gen    []float64       // CPU seconds of the generator, per slice (server workloads)
	// endpoint is the /api/healthz latency key of the workload's operation,
	// for the client-minus-server overhead.
	endpoint string
	// dir is what the data directory grew by in each slice (it shrinks
	// whenever the store compacts its log).
	dir []float64
}

// e2eValues reduces what a run recorded to the end-to-end metrics: each
// slice's throughput, median latency and CPU per unit, corrected for how
// much slower than at rest the machine ran around that slice (the yardstick's
// readings in the rests on either side of it), and then the median over the
// slices. The uncorrected median travels beside each.
// failedShare comes in already settled (a wrong stream fails all its ops).
func e2eValues(l load, failedShare float64) map[string]value {
	m := l.rec
	var tput, p50, cpuPer [2][]float64 // corrected, uncorrected
	ops := 0
	for i, units := range m.units {
		slow := slowdown(slices.Concat(m.cal[i], m.cal[i+1]), l.memShare)
		wall := slow
		if l.paced {
			wall = 1
		}
		// The load starts with the slice, and the operation in flight when it
		// ends is not counted: what was counted took until the last
		// completion, not until the end of the slice, and used that share of
		// the slice's CPU.
		took := m.last[i].Sub(m.w.sliceStart(i))
		perSec := 0.0
		if units > 0 {
			perSec = units / took.Seconds()
		}
		tput[0], tput[1] = append(tput[0], perSec*wall), append(tput[1], perSec)
		if units > 0 {
			mid := median(m.op[i])
			p50[0], p50[1] = append(p50[0], mid/wall), append(p50[1], mid)
			cpu := l.cpu[i] * took.Seconds() / m.w.slice.Seconds() / units * 1e6
			cpuPer[0], cpuPer[1] = append(cpuPer[0], cpu/slow), append(cpuPer[1], cpu)
		}
		ops += len(m.op[i])
	}
	secs := make([]float64, len(l.setups))
	for i, d := range l.setups {
		secs[i] = d.Seconds()
	}
	corrected := func(v [2][]float64, samples int) value {
		return value{v: median(v[0]), samples: samples, raw: median(v[1])}
	}
	return map[string]value{
		"setup_s":          {v: median(secs), samples: len(secs)},
		"throughput_per_s": corrected(tput, ops),
		"op_p50_ms":        corrected(p50, ops),
		"cpu_us_per_unit":  corrected(cpuPer, len(cpuPer[0])),
		// failed_share is 0 on a correct system and a bound is a share of the
		// parent's median, so the gated form is its complement: a bound of
		// 0.001 on a median of 1 is failed_share + 0.001 absolute.
		"ok_share": {v: 1 - failedShare, samples: int(m.attempted)},
	}
}

// stat is a percentile over slices as a reported value.
func stat(s sliceStat) value {
	v := value{v: s.value, samples: s.samples}
	if s.merged > 1 {
		v.note = fmt.Sprintf("over %d blocks of ~%d slices", s.blocks, s.merged)
	}
	return v
}

// freshValues are the freshness percentiles of the workloads that have a
// result becoming visible after the operation returned (live-watch: POST →
// pushed dot; vod-refine: refine POST → done); zero elsewhere.
func freshValues(m *recorder) (p50, p95 value) {
	n := 0
	for _, s := range m.fresh {
		n += len(s)
	}
	if n == 0 {
		return value{note: "n/a"}, value{note: "n/a"}
	}
	return stat(overSlices(m.fresh, 0.50)), stat(overSlices(m.fresh, 0.95))
}

// finish fills in a result from the load. srv is nil for the in-process
// workload, which is measured on the harness's own process.
func finish(res *result, srv *server, l load) (*result, error) {
	m := l.rec
	pid := os.Getpid()
	if srv != nil {
		pid = srv.cmd.Process.Pid
	}
	rss, err := procPeakRSSMB(pid)
	if err != nil {
		return nil, err
	}
	res.attempted, res.failed, res.wrongs = m.attempted, min(m.failed, m.attempted), m.wrongs
	res.e2e = e2eValues(l, res.failedShare())
	all := slices.Concat(m.cal...)
	res.spin, res.walk = slowdown(all, 0), slowdown(all, 1)

	// What only an end-to-end run can say about single layers.
	var units, written, gen, cpu float64
	for _, u := range m.units {
		units += u
	}
	for _, c := range l.cpu {
		cpu += c
	}
	for _, d := range l.dir {
		written += max(d, 0) // what was written is the growth between compactions
	}
	for _, c := range l.gen {
		gen += c
	}
	res.cpuNsPerUnit = (cpu + gen) / units * 1e9
	fresh50, fresh95 := freshValues(m)
	x := map[string]value{
		"peak_rss_mb":                      {v: rss},
		"op_p95_ms":                        stat(overSlices(m.op, 0.95)),
		"fresh_p50_ms":                     fresh50,
		"fresh_p95_ms":                     fresh95,
		"platform.srv_live_chat_p50_ms":    {},
		"platform.srv_live_dots_p50_ms":    {},
		"platform.srv_interactions_p50_ms": {},
		"platform.shed_share":              {},
		"http.overhead_us_per_req":         {},
		"wal.bytes_per_kunit":              {v: written / units * 1000},
		"gen.cpu_share":                    {},
		"trace.layer_sum_share":            {note: "n/a"},
	}
	if srv != nil {
		h, err := srv.healthz()
		if err != nil {
			return nil, err
		}
		for key, name := range map[string]string{"live_chat": "platform.srv_live_chat_p50_ms",
			"live_dots": "platform.srv_live_dots_p50_ms", "interactions_post": "platform.srv_interactions_p50_ms"} {
			x[name] = value{v: h.Latency[key].P50Ms, samples: int(h.Latency[key].Count)}
		}
		var shed uint64
		for _, n := range h.Shed {
			shed += n
		}
		x["platform.shed_share"] = value{v: float64(shed) / float64(max(m.attempted, 1))}
		x["http.overhead_us_per_req"] = value{v: (overSlices(m.op, 0.50).value - h.Latency[l.endpoint].P50Ms) * 1000}
		x["gen.cpu_share"] = value{v: gen / m.w.measured().Seconds()}
	}
	res.extra = x
	return res, nil
}

// selfCPUSeconds is the user+system CPU time this process has used so far.
func selfCPUSeconds() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(), nil
}
