package main

import (
	"math"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimeUnionOfChildren(t *testing.T) {
	// One engine step of 100 ms on the harness goroutine, P=2 workers:
	//   eval A 10..40, eval B 20..60 (overlaps A), eval C 70..90,
	//   and C has a nested child 75..85.
	// The step's children cover 10..60 and 70..90 = 70 ms, so its self time
	// is 30 ms: overlap counts once, and a grandchild is its parent's
	// business, not the step's.
	spans := []span{
		{name: "core.step", start: 0, end: ms(100), parent: noSpan, unit: 0, lane: true},
		{name: "workload.eval", start: ms(10), end: ms(40), parent: 0, unit: 0, lane: true},
		{name: "workload.eval", start: ms(20), end: ms(60), parent: 0, unit: 0, lane: true},
		{name: "workload.eval", start: ms(70), end: ms(90), parent: 0, unit: 0, lane: true},
		{name: "workload.launch", start: ms(75), end: ms(85), parent: 3, unit: 0, lane: true},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(30), ms(30), ms(40), ms(10), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("self[%d] (%s) = %v, want %v", i, spans[i].name, self[i], want[i])
		}
	}

	// The budget closes against wall x lanes: 100 ms x 2 = 200 ms.
	lines := budget(spans, ms(100), 2)
	var total float64
	byName := map[string]float64{}
	for _, l := range lines {
		total += l.Seconds
		byName[l.Name] = l.Seconds
	}
	if math.Abs(total-0.2) > 1e-9 {
		t.Errorf("budget rows sum to %v s, want 0.2 (wall x lanes)", total)
	}
	if math.Abs(byName["workload.eval"]-0.08) > 1e-9 || math.Abs(byName["core.step"]-0.03) > 1e-9 ||
		math.Abs(byName["workload.launch"]-0.01) > 1e-9 || math.Abs(byName["unattributed"]-0.08) > 1e-9 {
		t.Errorf("budget = %v", byName)
	}
}

func TestBudgetLeavesOutContextSpans(t *testing.T) {
	// A client waiting on a job is latency context, not capacity: only the
	// evaluation under it counts, and the wait's own self time (60 ms with
	// nothing evaluating) stays unattributed.
	spans := []span{
		{name: "serve.job", start: 0, end: ms(100), parent: noSpan, unit: 0},
		{name: "serve.wait", start: ms(10), end: ms(100), parent: 0, unit: 0},
		{name: "workload.eval", start: ms(20), end: ms(50), parent: 1, unit: 0, lane: true},
	}
	if self := selfTimes(spans); self[1] != ms(60) {
		t.Errorf("wait self = %v, want 60ms", self[1])
	}
	lines := budget(spans, ms(100), 1)
	if len(lines) != 2 || lines[0].Name != "workload.eval" || math.Abs(lines[0].Share-0.3) > 1e-9 ||
		lines[1].Name != "unattributed" || math.Abs(lines[1].Share-0.7) > 1e-9 {
		t.Errorf("budget = %+v", lines)
	}
}

func TestUnionLenClipsToParent(t *testing.T) {
	iv := []interval{{ms(-5), ms(5)}, {ms(3), ms(8)}, {ms(20), ms(40)}}
	if got := unionLen(iv, 0, ms(30)); got != ms(18) {
		t.Errorf("unionLen = %v, want 18ms", got)
	}
	if got := unionLen(nil, 0, ms(30)); got != 0 {
		t.Errorf("unionLen of nothing = %v", got)
	}
}

func TestTracerOffRecordsNothing(t *testing.T) {
	var none *tracer
	if id := none.begin("x", noSpan, true); id != noSpan {
		t.Errorf("nil tracer began span %d", id)
	}
	none.end(noSpan)
	if none.current() != noSpan || none.setCurrent(3) != noSpan {
		t.Error("nil tracer has a current span")
	}
	tr := newTracer()
	if id := tr.begin("x", noSpan, true); id != noSpan {
		t.Errorf("disabled tracer began span %d", id)
	}
	tr.on.Store(true)
	u := tr.beginUnit("unit", noSpan, true)
	c := tr.begin("child", u, true)
	tr.end(c)
	tr.end(u)
	got := tr.take()
	if len(got) != 2 || got[1].parent != u || got[1].unit != u || got[0].unit != u {
		t.Errorf("spans = %+v", got)
	}
	// take forgets what it returned: the next round's ids start from 0.
	if id := tr.beginUnit("next", noSpan, true); id != 0 || len(tr.take()) != 1 {
		t.Errorf("after take, next span id = %d", id)
	}
}
