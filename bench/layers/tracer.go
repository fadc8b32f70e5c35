package main

import (
	"bufio"
	"encoding/json"
	"os"
	"time"
)

// span is one timed call into a layer, recorded from outside it. Spans of
// one trace are replays of the SAME input at successive depths: the root
// drives the outermost public function, each child the next one in, so a
// child's time is the part of its parent's time spent at or below that
// depth and a layer's self time is its span minus its children.
type span struct {
	TraceID  uint64           `json:"trace_id"`
	SpanID   uint64           `json:"span_id"`
	ParentID uint64           `json:"parent_id"`
	Layer    string           `json:"layer"`
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"`
	EndNs    int64            `json:"end_ns"`
	Workload string           `json:"workload"`
	Counts   map[string]int64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass behind trace.overhead_share runs
// the same code.
type tracer struct {
	epoch  time.Time
	spans  []span
	nextID uint64
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)} }

// open is a span being timed.
type open struct {
	t     *tracer
	i     int
	start time.Time
	id    uint64
	trace uint64
}

// root starts a new trace with a root span.
func (t *tracer) root(workload, layer, name string) open {
	if t == nil {
		return open{start: time.Now()}
	}
	t.nextID++
	return t.begin(t.nextID, 0, workload, layer, name)
}

// child starts a span caused by parent.
func (o open) child(layer, name string) open {
	if o.t == nil {
		return open{start: time.Now()}
	}
	return o.t.begin(o.trace, o.id, o.t.spans[o.i].Workload, layer, name)
}

func (t *tracer) begin(trace, parent uint64, workload, layer, name string) open {
	t.nextID++
	t.spans = append(t.spans, span{TraceID: trace, SpanID: t.nextID, ParentID: parent, Layer: layer, Name: name, Workload: workload})
	o := open{t: t, i: len(t.spans) - 1, id: t.nextID, trace: trace, start: time.Now()}
	return o
}

// end closes the span and attaches counts given as name, value pairs; it
// returns the span's duration whether or not a tracer is recording.
func (o open) end(counts ...any) time.Duration {
	now := time.Now()
	d := now.Sub(o.start)
	if o.t == nil {
		return d
	}
	s := &o.t.spans[o.i]
	s.StartNs = o.start.Sub(o.t.epoch).Nanoseconds()
	s.EndNs = now.Sub(o.t.epoch).Nanoseconds()
	if len(counts) > 0 {
		s.Counts = make(map[string]int64, len(counts)/2)
		for i := 0; i+1 < len(counts); i += 2 {
			s.Counts[counts[i].(string)] += int64(counts[i+1].(int))
		}
	}
	return d
}

// drop discards the span: the call turned out not to be one the probe
// measures. Only the most recently begun span can be dropped.
func (o open) drop() {
	if o.t != nil && o.i == len(o.t.spans)-1 {
		o.t.spans = o.t.spans[:o.i]
	}
}

// agg is the reduction of all spans with one (layer, name).
type agg struct {
	spans  int
	total  time.Duration // Σ span durations
	self   time.Duration // Σ (span − its children)
	counts map[string]int64
}

// aggregate reduces the recorded spans by layer and name.
func (t *tracer) aggregate() map[[2]string]*agg {
	children := make(map[uint64]time.Duration)
	for _, s := range t.spans {
		if s.ParentID != 0 {
			children[s.ParentID] += time.Duration(s.EndNs - s.StartNs)
		}
	}
	out := make(map[[2]string]*agg)
	for _, s := range t.spans {
		k := [2]string{s.Layer, s.Name}
		a := out[k]
		if a == nil {
			a = &agg{counts: map[string]int64{}}
			out[k] = a
		}
		d := time.Duration(s.EndNs - s.StartNs)
		a.spans++
		a.total += d
		a.self += d - children[s.SpanID]
		for name, v := range s.Counts {
			a.counts[name] += v
		}
	}
	return out
}

// write stores the spans of one workload as JSON lines.
func (t *tracer) write(path, workload string) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	n := 0
	for i := range t.spans {
		if t.spans[i].Workload != workload {
			continue
		}
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return n, err
		}
		n++
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, err
	}
	return n, f.Close()
}
