package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// noSpan is the parent of a root span.
const noSpan = int32(-1)

// span is one recorded interval. Times are offsets from the tracer's start.
// lane marks a span that occupies one unit of the workload's capacity (an
// evaluation on a pool worker, a request on a client connection, harness
// compute); spans without it are latency context (a client waiting on a job)
// and stay out of the capacity budget.
type span struct {
	name       string
	start, end time.Duration
	parent     int32
	unit       int32
	lane       bool
	// failed marks an evaluation that ended in an error (verify failure,
	// fault, budget abort, wrong output).
	failed bool
}

// tracer keeps spans in memory. All spans come from the benchmark's own
// files, around calls into the program's public functions; the program is
// not instrumented. A disabled tracer records nothing, which is how the
// traced run interleaves untraced rounds to price its own overhead.
type tracer struct {
	t0 time.Time
	on atomic.Bool

	mu sync.Mutex
	// spans is the span table, indexed by span id; guarded by mu.
	spans []span
	// bound maps a workload name to the span its evaluations belong under
	// (a serve job's unit, then its wait span); guarded by mu.
	bound map[string]int32

	// cur is the parent for evaluations of workloads with no binding: the
	// unit the (single) harness goroutine is inside.
	cur atomic.Int32
}

func newTracer() *tracer {
	t := &tracer{t0: time.Now(), bound: map[string]int32{}}
	t.cur.Store(noSpan)
	return t
}

// current is the unit the harness goroutine is inside (noSpan when none, or
// when there is no tracer).
func (t *tracer) current() int32 {
	if t == nil {
		return noSpan
	}
	return t.cur.Load()
}

// setCurrent makes id the parent of unbound evaluations and returns the
// previous one.
func (t *tracer) setCurrent(id int32) int32 {
	if t == nil {
		return noSpan
	}
	return t.cur.Swap(id)
}

// enabled reports whether spans are being recorded; a nil tracer never is.
func (t *tracer) enabled() bool { return t != nil && t.on.Load() }

// begin opens a span inside its parent's unit and returns its id (noSpan
// when tracing is off).
func (t *tracer) begin(name string, parent int32, lane bool) int32 {
	return t.open(name, parent, lane, false)
}

// beginUnit opens a span that is its own unit (one per user-visible step).
func (t *tracer) beginUnit(name string, parent int32, lane bool) int32 {
	return t.open(name, parent, lane, true)
}

func (t *tracer) open(name string, parent int32, lane, ownUnit bool) int32 {
	if !t.enabled() {
		return noSpan
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	id := int32(len(t.spans))
	unit := noSpan
	switch {
	case ownUnit:
		unit = id
	case parent != noSpan:
		unit = t.spans[parent].unit
	}
	t.spans = append(t.spans, span{name: name, start: now, end: -1, parent: parent, unit: unit, lane: lane})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if id == noSpan {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

func (t *tracer) markFailed(id int32) {
	if id == noSpan {
		return
	}
	t.mu.Lock()
	t.spans[id].failed = true
	t.mu.Unlock()
}

// bind routes evaluations of the named workload under the given span.
func (t *tracer) bind(name string, id int32) {
	if !t.enabled() {
		return
	}
	t.mu.Lock()
	t.bound[name] = id
	t.mu.Unlock()
}

// parentFor resolves the span an evaluation of the named workload belongs
// under: its binding when one exists, the current unit otherwise.
func (t *tracer) parentFor(name string) int32 {
	t.mu.Lock()
	id, ok := t.bound[name]
	t.mu.Unlock()
	if ok {
		return id
	}
	return t.cur.Load()
}

// take returns the spans recorded so far and forgets them, so a run keeps
// one round's spans at a time. Call it between rounds, when no span is open;
// one left open by a failed operation is returned empty, which keeps the ids
// (indices) of the others valid.
func (t *tracer) take() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := t.spans
	t.spans = nil
	clear(t.bound)
	for i := range out {
		if out[i].end < 0 {
			out[i].end = out[i].start
		}
	}
	return out
}

type interval struct{ a, b time.Duration }

// unionLen is the total length of the union of the intervals, each clipped
// to [lo, hi].
func unionLen(iv []interval, lo, hi time.Duration) time.Duration {
	clipped := iv[:0:0]
	for _, x := range iv {
		if x.a < lo {
			x.a = lo
		}
		if x.b > hi {
			x.b = hi
		}
		if x.b > x.a {
			clipped = append(clipped, x)
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].a < clipped[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, x := range clipped {
		if !open {
			curA, curB, open = x.a, x.b, true
			continue
		}
		if x.a <= curB {
			if x.b > curB {
				curB = x.b
			}
			continue
		}
		total += curB - curA
		curA, curB = x.a, x.b
	}
	if open {
		total += curB - curA
	}
	return total
}

// selfTimes returns each span's self time: its duration minus the part of
// it that the union of its direct children covers. Children running in
// parallel (P pool workers under one engine step) therefore count once
// against the parent, while each child keeps its full duration.
func selfTimes(spans []span) []time.Duration {
	kids := make([][]interval, len(spans))
	for _, s := range spans {
		if s.parent != noSpan {
			kids[s.parent] = append(kids[s.parent], interval{s.start, s.end})
		}
	}
	self := make([]time.Duration, len(spans))
	for i, s := range spans {
		self[i] = (s.end - s.start) - unionLen(kids[i], s.start, s.end)
	}
	return self
}

// budgetLine is one row of a workload's time budget.
type budgetLine struct {
	Name    string  `json:"name"`
	Seconds float64 `json:"seconds"`
	Share   float64 `json:"share"`
	Spans   int     `json:"spans"`
}

// budget folds a round's lane spans into per-name self-time totals and
// closes the account against the capacity wall*lanes with an "unattributed"
// row, so the rows sum to the capacity by construction: what is left is time
// inside the program that the outside view cannot name (idle workers, pool
// dispatch, scheduling, persistence, HTTP handling).
func budget(spans []span, wall time.Duration, lanes int) []budgetLine {
	self := selfTimes(spans)
	sums := map[string]time.Duration{}
	counts := map[string]int{}
	var attributed time.Duration
	for i, s := range spans {
		if !s.lane {
			continue
		}
		sums[s.name] += self[i]
		counts[s.name]++
		attributed += self[i]
	}
	capacity := wall * time.Duration(lanes)
	names := make([]string, 0, len(sums))
	for n := range sums {
		names = append(names, n)
	}
	sort.Strings(names)
	share := func(d time.Duration) float64 {
		if capacity <= 0 {
			return 0
		}
		return float64(d) / float64(capacity)
	}
	out := make([]budgetLine, 0, len(names)+1)
	for _, n := range names {
		out = append(out, budgetLine{Name: n, Seconds: sums[n].Seconds(), Share: share(sums[n]), Spans: counts[n]})
	}
	rest := capacity - attributed
	return append(out, budgetLine{Name: "unattributed", Seconds: rest.Seconds(), Share: share(rest)})
}

// chromeEvent is one complete ("X") event of the Chrome trace_event format,
// loadable in chrome://tracing and Perfetto.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int32          `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChromeTrace writes the spans as Chrome trace_event JSON. Each unit
// gets its own track (tid), so one user-visible step and everything it
// caused read as one row.
func writeChromeTrace(path string, spans []span) error {
	evs := make([]chromeEvent, 0, len(spans))
	for i, s := range spans {
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X",
			Ts:  float64(s.start) / float64(time.Microsecond),
			Dur: float64(s.end-s.start) / float64(time.Microsecond),
			Pid: 1, Tid: s.unit + 1,
			Args: map[string]any{"id": i, "parent": s.parent, "unit": s.unit},
		})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
