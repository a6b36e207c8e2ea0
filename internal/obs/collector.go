package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Record is one journal entry: the deterministic event plus the two fields
// the collector stamps on arrival — a process-wide sequence number and the
// wall-clock time. Exports that must be reproducible (the golden event
// test) zero WallNs; everything else about a record is a pure function of
// the search.
type Record struct {
	Seq    uint64 `json:"seq"`
	WallNs int64  `json:"wall_ns"`
	Type   string `json:"type"`
	Attrs  []Attr `json:"attrs,omitempty"`
}

// DefaultJournalCap is the default flight-recorder depth. At ~100 bytes a
// record that is a few MB of history — hours of serve traffic, an entire
// CLI run.
const DefaultJournalCap = 65536

// Collector is the flight recorder: a Sink that stamps events with
// sequence numbers and wall-clock timestamps, retains the newest records
// in a bounded ring, feeds derived metrics (event counts, compile
// durations) into a Registry, and exports the journal as JSONL or Chrome
// trace_event JSON.
//
// This is where wall-clock time legitimately meets the deterministic event
// stream: emitters in the determinism scope never read the clock, the
// collector stamps arrivals, and nothing downstream of a stamp can reach
// back into search results.
type Collector struct {
	reg         *Registry
	events      *Counter
	dropped     *Counter
	compileHist *Histogram
	spanHist    *Histogram

	mu sync.Mutex
	// ring is the bounded journal; guarded by mu.
	ring []Record
	// head indexes the oldest record once the ring has wrapped; guarded by mu.
	head int
	// seq numbers the next record; guarded by mu.
	seq uint64
	// compileStart maps an in-flight compile's module key to its begin
	// stamp, pairing gpu.compile.begin/end into one duration observation;
	// guarded by mu.
	compileStart map[string]int64
	// spanStart maps an open span's ID to its begin stamp, pairing
	// span.begin/end into a duration observation; guarded by mu. Bounded:
	// entries leave on span.end, and abandoned spans (a panic between begin
	// and end) are evicted once the map exceeds spanStartCap.
	spanStart map[string]int64
}

// spanStartCap bounds the open-span table against spans abandoned by
// panics; normal operation never approaches it.
const spanStartCap = 16384

// NewCollector creates a collector journaling up to capacity records
// (<=0 = DefaultJournalCap) and registering its derived metrics in reg
// (nil = Default).
func NewCollector(reg *Registry, capacity int) *Collector {
	if reg == nil {
		reg = Default
	}
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Collector{
		reg:          reg,
		events:       reg.Counter("gevo_trace_events_total", "Trace events journaled by the collector."),
		dropped:      reg.Counter("gevo_trace_events_dropped_total", "Trace events overwritten by ring wrap-around."),
		compileHist:  reg.Histogram("gevo_gpu_compile_seconds", "Wall time of program verify+compile, paired from gpu.compile.begin/end events.", nil),
		spanHist:     reg.Histogram("gevo_span_seconds", "Wall time of spans, paired from span.begin/end events.", nil),
		ring:         make([]Record, 0, capacity),
		compileStart: make(map[string]int64, 8),
		spanStart:    make(map[string]int64, 8),
	}
}

// Emit implements Sink: stamp, journal, derive metrics.
func (c *Collector) Emit(ev Event) {
	now := time.Now().UnixNano() //gevo:allow the collector is the one stamping point for wall time; stamps never flow back into search results
	c.events.Inc()
	c.mu.Lock()
	rec := Record{Seq: c.seq, WallNs: now, Type: ev.Type, Attrs: ev.Attrs}
	c.seq++
	if len(c.ring) < cap(c.ring) {
		c.ring = append(c.ring, rec)
	} else {
		c.ring[c.head] = rec
		c.head = (c.head + 1) % len(c.ring)
		c.dropped.Inc()
	}
	var compileNs, spanNs int64 = -1, -1
	switch ev.Type {
	case "gpu.compile.begin":
		c.compileStart[attrValue(ev.Attrs, "module")] = now
	case "gpu.compile.end":
		key := attrValue(ev.Attrs, "module")
		if begin, ok := c.compileStart[key]; ok {
			delete(c.compileStart, key)
			compileNs = now - begin
		}
	case "span.begin":
		if len(c.spanStart) >= spanStartCap {
			clear(c.spanStart)
		}
		c.spanStart[attrValue(ev.Attrs, "span")] = now
	case "span.end":
		key := attrValue(ev.Attrs, "span")
		if begin, ok := c.spanStart[key]; ok {
			delete(c.spanStart, key)
			spanNs = now - begin
		}
	}
	c.mu.Unlock()
	if compileNs >= 0 {
		c.compileHist.Observe(float64(compileNs) / 1e9)
	}
	if spanNs >= 0 {
		c.spanHist.Observe(float64(spanNs) / 1e9)
	}
}

// attrValue returns the value of the first attribute named k ("" if none).
func attrValue(attrs []Attr, k string) string {
	for _, a := range attrs {
		if a.K == k {
			return a.V
		}
	}
	return ""
}

// Records returns a copy of the journal in sequence order, oldest first.
func (c *Collector) Records() []Record {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Record, 0, len(c.ring))
	out = append(out, c.ring[c.head:]...)
	out = append(out, c.ring[:c.head]...)
	return out
}

// WriteJSONL writes the journal as one JSON record per line.
func (c *Collector) WriteJSONL(w io.Writer) error {
	enc := json.NewEncoder(w)
	for _, rec := range c.Records() {
		if err := enc.Encode(rec); err != nil {
			return err
		}
	}
	return nil
}

// traceEvent is one Chrome trace_event entry (the JSON Array Format that
// Perfetto and chrome://tracing load directly).
type traceEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	TsUs  float64           `json:"ts"`
	DurUs float64           `json:"dur,omitempty"`
	PID   int               `json:"pid"`
	TID   int               `json:"tid"`
	Scope string            `json:"s,omitempty"`
	Cat   string            `json:"cat,omitempty"`
	ID    string            `json:"id,omitempty"`
	BP    string            `json:"bp,omitempty"`
	Args  map[string]string `json:"args,omitempty"`
}

// WriteChromeTrace writes the journal in Chrome trace_event JSON. Events
// become instants on one track per emitting search identity (the "id"/
// "job" attributes); paired gpu.compile.begin/end records become complete
// ("X") slices whose args are the end record's attributes, the per-stage
// verify_us / lower_us / finalize_us split included; engine.gen records
// additionally emit a counter ("C") sample of the running best speedup,
// which Perfetto renders as the search-trajectory graph. Paired span.begin/end records become complete
// slices named after the span, and a span with a parent in the journal is
// flow-linked to it ("s"/"f" events keyed by the child span ID), so one
// trace ID reads as a connected request tree across tracks.
func (c *Collector) WriteChromeTrace(w io.Writer) error {
	recs := c.Records()
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	// Track assignment: one tid per distinct emitter identity, in order of
	// first appearance (deterministic given the journal).
	tids := map[string]int{}
	tidOf := func(attrs []Attr) int {
		id := attrValue(attrs, "job") + "/" + attrValue(attrs, "id")
		tid, ok := tids[id]
		if !ok {
			tid = len(tids) + 1
			tids[id] = tid
		}
		return tid
	}
	begin := map[string]Record{}
	// spanBegin holds each seen span's begin record by span ID, kept after
	// the span ends so later children can still flow-link to it.
	spanBegin := map[string]Record{}
	first := true
	emit := func(te traceEvent) error {
		blob, err := json.Marshal(te)
		if err != nil {
			return err
		}
		if !first {
			if _, err := io.WriteString(w, ",\n"); err != nil {
				return err
			}
		}
		first = false
		_, err = w.Write(blob)
		return err
	}
	for _, rec := range recs {
		ts := float64(rec.WallNs) / 1e3
		args := make(map[string]string, len(rec.Attrs))
		for _, a := range rec.Attrs {
			args[a.K] = a.V
		}
		switch rec.Type {
		case "span.begin":
			spanBegin[attrValue(rec.Attrs, "span")] = rec
			continue
		case "span.end":
			id := attrValue(rec.Attrs, "span")
			b, ok := spanBegin[id]
			if !ok {
				continue
			}
			bArgs := make(map[string]string, len(b.Attrs))
			for _, a := range b.Attrs {
				bArgs[a.K] = a.V
			}
			tid := tidOf(b.Attrs)
			if err := emit(traceEvent{
				Name: attrValue(b.Attrs, "name"), Phase: "X",
				TsUs: float64(b.WallNs) / 1e3, DurUs: float64(rec.WallNs-b.WallNs) / 1e3,
				PID: 1, TID: tid, Args: bArgs,
			}); err != nil {
				return err
			}
			// Flow-link to the parent span: an "s" arrow tail inside the
			// parent slice, an "f" head at this slice's start.
			parent := attrValue(b.Attrs, "parent")
			pb, ok := spanBegin[parent]
			if !ok {
				continue
			}
			flowTs := float64(b.WallNs) / 1e3
			if err := emit(traceEvent{
				Name: "span", Phase: "s", TsUs: flowTs,
				PID: 1, TID: tidOf(pb.Attrs), Cat: "span", ID: id,
			}); err != nil {
				return err
			}
			if err := emit(traceEvent{
				Name: "span", Phase: "f", TsUs: flowTs,
				PID: 1, TID: tid, Cat: "span", ID: id, BP: "e",
			}); err != nil {
				return err
			}
			continue
		case "gpu.compile.begin":
			begin[attrValue(rec.Attrs, "module")] = rec
			continue
		case "gpu.compile.end":
			key := attrValue(rec.Attrs, "module")
			b, ok := begin[key]
			if !ok {
				continue
			}
			delete(begin, key)
			tid := tidOf(rec.Attrs)
			if err := emit(traceEvent{
				Name: "gpu.compile", Phase: "X",
				TsUs: float64(b.WallNs) / 1e3, DurUs: float64(rec.WallNs-b.WallNs) / 1e3,
				PID: 1, TID: tid, Args: args,
			}); err != nil {
				return err
			}
			// A compile reached through a traced evaluation carries the eval
			// span as its parent: flow-link the slice like a child span.
			if pb, ok := spanBegin[attrValue(b.Attrs, "parent")]; ok {
				flowTs := float64(b.WallNs) / 1e3
				flowID := "compile-" + key
				if err := emit(traceEvent{
					Name: "span", Phase: "s", TsUs: flowTs,
					PID: 1, TID: tidOf(pb.Attrs), Cat: "span", ID: flowID,
				}); err != nil {
					return err
				}
				if err := emit(traceEvent{
					Name: "span", Phase: "f", TsUs: flowTs,
					PID: 1, TID: tid, Cat: "span", ID: flowID, BP: "e",
				}); err != nil {
					return err
				}
			}
			continue
		}
		if err := emit(traceEvent{
			Name: rec.Type, Phase: "i", TsUs: ts,
			PID: 1, TID: tidOf(rec.Attrs), Scope: "t", Args: args,
		}); err != nil {
			return err
		}
		if rec.Type == "engine.gen" {
			if sp := attrValue(rec.Attrs, "speedup"); sp != "" {
				name := "speedup"
				if id := attrValue(rec.Attrs, "id"); id != "" {
					name += "/" + id
				}
				if err := emit(traceEvent{
					Name: name, Phase: "C", TsUs: ts,
					PID: 1, TID: tidOf(rec.Attrs),
					Args: map[string]string{"speedup": sp},
				}); err != nil {
					return err
				}
			}
		}
	}
	_, err := io.WriteString(w, "\n]\n")
	return err
}

// WriteTo writes the journal in the format implied by the file name:
// ".jsonl" gets JSONL, anything else the Chrome trace_event form.
func (c *Collector) WriteTo(w io.Writer, name string) error {
	if len(name) >= 6 && name[len(name)-6:] == ".jsonl" {
		return c.WriteJSONL(w)
	}
	return c.WriteChromeTrace(w)
}

var _ Sink = (*Collector)(nil)

// String summarizes the journal state for logs.
func (c *Collector) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return fmt.Sprintf("obs.Collector{records: %d, next_seq: %d}", len(c.ring), c.seq)
}
