package main

import (
	"testing"
	"time"
)

// A layer's self time is its span minus its children; counts add up per
// (layer, name); a nil tracer records nothing but still times.
func TestTracerSelfTime(t *testing.T) {
	tr := newTracer()
	root := tr.root("w", "outer", "call")
	time.Sleep(2 * time.Millisecond)
	root.end("messages", 10)
	child := root.child("inner", "call")
	time.Sleep(time.Millisecond)
	child.end("messages", 10)
	dropped := tr.root("w", "outer", "call")
	dropped.drop()

	a := tr.aggregate()
	outer, inner := a[[2]string{"outer", "call"}], a[[2]string{"inner", "call"}]
	if outer == nil || inner == nil || outer.spans != 1 || inner.spans != 1 {
		t.Fatalf("aggregate: %+v", a)
	}
	if outer.self != outer.total-inner.total {
		t.Errorf("self %v, want total %v − child %v", outer.self, outer.total, inner.total)
	}
	if outer.counts["messages"] != 10 || inner.total < time.Millisecond {
		t.Errorf("outer %+v inner %+v", outer, inner)
	}
	if tr.spans[1].ParentID != tr.spans[0].SpanID || tr.spans[1].TraceID != tr.spans[0].TraceID {
		t.Errorf("child not linked to its root: %+v", tr.spans)
	}

	var off *tracer
	sp := off.root("w", "outer", "call")
	if d := sp.child("inner", "call").end("messages", 1); d < 0 {
		t.Error("a nil tracer must still time")
	}
}
