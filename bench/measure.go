package main

import (
	"fmt"
	"math"
	"sync"
	"time"

	"lightor/internal/stats"
)

// Run shape. Every end-to-end metric is computed per slice and reduced over
// the slices. Slices are short and many — one second each, never fewer than
// six — because what disturbs a run on a small shared box is sporadic: a
// stall of tens of milliseconds every few seconds spoils one slice in many
// and not the median over them. Between the slices the load rests and the
// goroutine that issued it times the yardstick (see yardstick.go), so that
// every slice has a reading of the machine's speed taken just before it and
// one just after. The warm-up is fixed; --seconds sets how many slices
// there are.
const (
	minSlices  = 6
	warmupTime = 2 * time.Second
	restTime   = 200 * time.Millisecond
	// restSettle is what a rest keeps free at its end: the yardstick has
	// left the cache cold, and the first operations of the next slice
	// should not be the ones to pay for all of that.
	restSettle = 15 * time.Millisecond
	// minTail is the number of samples a percentile needs beyond it before
	// it is reported from a single slice (choosing-metrics §1): p95 of a
	// slice with fewer than 200 samples is taken over the whole run instead.
	minTail = 10
)

// runShape is the shape of a run measuring for the given number of seconds.
func runShape(seconds int) shape {
	n := max(minSlices, seconds)
	return shape{warmup: warmupTime, slice: time.Duration(seconds) * time.Second / time.Duration(n), rest: restTime, slices: n}
}

// shape is one run's timing.
type shape struct {
	warmup time.Duration
	slice  time.Duration
	rest   time.Duration // between slices, and before the first and after the last
	slices int
}

func (s shape) measured() time.Duration { return time.Duration(s.slices) * s.slice }

// window is the measured interval of one run. Rest j is
// [start+j·(rest+slice), +rest) for j = 0…slices, and slice i follows rest i.
type window struct {
	shape
	start time.Time
}

func (w window) end() time.Time {
	if w.slices == 0 {
		return w.start
	}
	return w.start.Add(time.Duration(w.slices)*(w.rest+w.slice) + w.rest)
}

// sliceStart is when slice i begins.
func (w window) sliceStart(i int) time.Time {
	return w.start.Add(time.Duration(i)*(w.rest+w.slice) + w.rest)
}

// sliceOf maps an instant to its slice, or -1 outside every slice (warm-up,
// the rests, and whatever completes after the last slice ends).
func (w window) sliceOf(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 || w.slices == 0 {
		return -1
	}
	i := int(d / (w.rest + w.slice))
	if i >= w.slices || d%(w.rest+w.slice) < w.rest {
		return -1
	}
	return i
}

// restOf maps an instant to the rest it falls in, or -1.
func (w window) restOf(t time.Time) int {
	d := t.Sub(w.start)
	if d < 0 || w.slices == 0 {
		return -1
	}
	j := int(d / (w.rest + w.slice))
	if j > w.slices || d%(w.rest+w.slice) >= w.rest {
		return -1
	}
	return j
}

// recorder holds what ONE load goroutine observed; recorders are merged
// after the goroutines have stopped, so recording takes no lock.
type recorder struct {
	w     window
	op    [][]float64 // per slice: operation latencies, ms
	fresh [][]float64 // per slice: freshness samples, ms
	units []float64   // per slice: units completed
	last  []time.Time // per slice: when the last of them completed
	yard  *yardstick
	cal   [][]reading // per rest: the yardstick's rounds
	// attempted and failed count every request from warm-up on — a failure
	// during warm-up is still a failure of the system under this load.
	attempted, failed int64
	// wrongs are the first few results that differed from the reference.
	wrongs []string
}

// wrong notes a result that differed from the reference; any such note
// makes the run incorrect.
func (r *recorder) wrong(format string, args ...any) {
	if len(r.wrongs) < 8 {
		r.wrongs = append(r.wrongs, fmt.Sprintf(format, args...))
	}
}

func newRecorder(w window) *recorder {
	r := &recorder{w: w, op: make([][]float64, w.slices), fresh: make([][]float64, w.slices), units: make([]float64, w.slices), last: make([]time.Time, w.slices), cal: make([][]reading, w.slices+1)}
	for i := range r.op {
		r.op[i] = make([]float64, 0, 1<<14)
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// opDone records one completed operation of the given size, attributed to
// the slice it completed in.
func (r *recorder) opDone(done time.Time, latency time.Duration, units int) {
	if i := r.w.sliceOf(done); i >= 0 {
		r.op[i] = append(r.op[i], ms(latency))
		r.units[i] += float64(units)
		r.last[i] = done
	}
}

func (r *recorder) freshDone(done time.Time, latency time.Duration) {
	if i := r.w.sliceOf(done); i >= 0 {
		r.fresh[i] = append(r.fresh[i], ms(latency))
	}
}

// relax is called by a load goroutine between operations: inside a rest it
// times the yardstick until the rest is nearly over, then idles out what is
// left of it.
func (r *recorder) relax() {
	j := r.w.restOf(time.Now())
	if j < 0 {
		return
	}
	until := r.w.sliceStart(j)
	if j == r.w.slices {
		until = r.w.end()
	}
	for time.Until(until) > restSettle {
		r.cal[j] = append(r.cal[j], r.yard.round())
	}
	time.Sleep(time.Until(until))
}

func mergeRecorders(rs []*recorder) *recorder {
	m := newRecorder(rs[0].w)
	for _, r := range rs {
		for j := range r.cal {
			m.cal[j] = append(m.cal[j], r.cal[j]...)
		}
		for i := range r.op {
			m.op[i] = append(m.op[i], r.op[i]...)
			m.fresh[i] = append(m.fresh[i], r.fresh[i]...)
			m.units[i] += r.units[i]
			if r.last[i].After(m.last[i]) {
				m.last[i] = r.last[i]
			}
		}
		m.attempted += r.attempted
		m.failed += r.failed
		m.wrongs = append(m.wrongs, r.wrongs...)
	}
	return m
}

// quantile and median are internal/stats' (linear interpolation between
// ranks), except that an empty sample gives NaN rather than 0: a metric
// nothing was measured for must fail the run's check, not read as zero.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Quantile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sliceStat is a percentile reduced over the slices: the reported value,
// how many samples stand behind it, and how the slices had to be grouped.
type sliceStat struct {
	value   float64
	samples int
	blocks  int // blocks the median was taken over
	merged  int // slices per block (1: every slice stood on its own)
}

// minBlocks is the fewest blocks a median over blocks is taken over.
const minBlocks = 3

// overSlices reduces per-slice samples to the median over slices of the
// per-slice q-quantile. Where single slices are too thin for the quantile
// (fewer than minTail samples beyond it), adjacent slices are merged — two,
// three, six at a time — until every block is thick enough; but never into
// fewer than minBlocks blocks, because the point of the median over blocks
// is that a stall in one of them does not reach the result, and a single
// pooled percentile has no such protection.
func overSlices(perSlice [][]float64, q float64) sliceStat {
	total := 0
	for _, s := range perSlice {
		total += len(s)
	}
	var blocks [][]float64
	merged := 1
	for _, g := range []int{1, 2, 3, 6} {
		if len(perSlice)/g < minBlocks && g > 1 {
			break
		}
		blocks, merged = group(perSlice, g), g
		if thick(blocks, q) {
			break
		}
	}
	if !thick(blocks, q) && len(perSlice) >= minBlocks {
		merged = len(perSlice) / minBlocks
		blocks = group(perSlice, merged)
	}
	qs := make([]float64, 0, len(blocks))
	for _, b := range blocks {
		if len(b) > 0 {
			qs = append(qs, quantile(b, q))
		}
	}
	return sliceStat{value: median(qs), samples: total, blocks: len(blocks), merged: merged}
}

// group merges every g adjacent slices into one block; what is left over
// joins the last block.
func group(perSlice [][]float64, g int) [][]float64 {
	n := max(1, len(perSlice)/g)
	blocks := make([][]float64, n)
	for i, s := range perSlice {
		b := min(i/g, n-1)
		blocks[b] = append(blocks[b], s...)
	}
	return blocks
}

func thick(blocks [][]float64, q float64) bool {
	for _, b := range blocks {
		if float64(len(b))*(1-q) < minTail {
			return false
		}
	}
	return true
}

// meter samples cumulative counters — a process's CPU seconds, a
// directory's size — at the slice boundaries, from its own goroutine.
type meter struct {
	w     window
	reads []func() (float64, error)
	at    [][]float64 // [series][2·slice + (0: its start, 1: its end)]
	err   error
	done  chan struct{}
}

func startMeter(w window, reads ...func() (float64, error)) *meter {
	m := &meter{w: w, reads: reads, at: make([][]float64, len(reads)), done: make(chan struct{})}
	for i := range m.at {
		m.at[i] = make([]float64, 2*w.slices)
	}
	go func() {
		defer close(m.done)
		for b := 0; b < 2*w.slices; b++ {
			time.Sleep(time.Until(w.sliceStart(b / 2).Add(time.Duration(b%2) * w.slice)))
			for i, read := range m.reads {
				v, err := read()
				if err != nil && m.err == nil {
					m.err = err
				}
				m.at[i][b] = v
			}
		}
	}()
	return m
}

// wait returns, per series, the counter's increase in each slice.
func (m *meter) wait() ([][]float64, error) {
	<-m.done
	per := make([][]float64, len(m.at))
	for i, at := range m.at {
		per[i] = make([]float64, m.w.slices)
		for b := range per[i] {
			per[i][b] = at[2*b+1] - at[2*b]
		}
	}
	return per, m.err
}

// unmeasured is a window without slices: what runs under it is counted and
// checked but not timed.
var unmeasured = window{shape: shape{slice: time.Second}}

// drive runs one phase of load: n goroutines, each with a recorder of its
// own, while a meter samples reads at the slice boundaries of w. It returns
// the merged recorder and, per read, the counter's increase in each slice.
func drive(w window, n int, fn func(k int, r *recorder) error, reads ...func() (float64, error)) (*recorder, [][]float64, error) {
	m := startMeter(w, reads...)
	recs := make([]*recorder, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for k := range recs {
		recs[k] = newRecorder(w)
		if w.slices > 0 {
			recs[k].yard = newYardstick()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[k] = fn(k, recs[k])
		}()
	}
	wg.Wait()
	series, err := m.wait()
	for _, e := range errs {
		if err == nil {
			err = e
		}
	}
	return mergeRecorders(recs), series, err
}
