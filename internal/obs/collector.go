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
// in a bounded ring, counts them in a Registry, and exports the journal as
// JSONL or Chrome trace_event JSON.
//
// This is where wall-clock time legitimately meets the deterministic event
// stream: emitters in the determinism scope never read the clock, the
// collector stamps arrivals, and nothing downstream of a stamp can reach
// back into search results.
type Collector struct {
	events  *Counter
	dropped *Counter

	mu sync.Mutex
	// ring is the bounded journal; guarded by mu.
	ring []Record
	// head indexes the oldest record once the ring has wrapped; guarded by mu.
	head int
	// seq numbers the next record; guarded by mu.
	seq uint64
}

// NewCollector creates a collector journaling up to capacity records
// (<=0 = DefaultJournalCap) and registering its event counters in reg
// (nil = Default).
func NewCollector(reg *Registry, capacity int) *Collector {
	if reg == nil {
		reg = Default
	}
	if capacity <= 0 {
		capacity = DefaultJournalCap
	}
	return &Collector{
		events:  reg.Counter("gevo_trace_events_total", "Trace events journaled by the collector."),
		dropped: reg.Counter("gevo_trace_events_dropped_total", "Trace events overwritten by ring wrap-around."),
		ring:    make([]Record, 0, capacity),
	}
}

// Emit implements Sink: stamp and journal.
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
	c.mu.Unlock()
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
// "job" attributes); engine.gen records additionally emit a counter ("C")
// sample of the running best speedup, which Perfetto renders as the
// search-trajectory graph. Paired span.begin/end records become complete
// ("X") slices named after the span whose args are the attributes of both
// records — what the span was opened with and what it ended with (an HTTP
// code, a job state, a compile's verify_us / lower_us / finalize_us) — and
// a span with a parent in the journal is flow-linked to it ("s"/"f" events
// keyed by the child span ID), so one trace ID reads as a connected request
// tree across tracks.
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
			tid := tidOf(b.Attrs)
			if err := emit(traceEvent{
				Name: attrValue(b.Attrs, "name"), Phase: "X",
				TsUs: float64(b.WallNs) / 1e3, DurUs: float64(rec.WallNs-b.WallNs) / 1e3,
				PID: 1, TID: tid, Args: argsOf(b.Attrs, rec.Attrs),
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
		}
		if err := emit(traceEvent{
			Name: rec.Type, Phase: "i", TsUs: ts,
			PID: 1, TID: tidOf(rec.Attrs), Scope: "t", Args: argsOf(rec.Attrs),
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

// argsOf flattens attribute lists into trace-event args; a later list's
// value wins for a key both carry.
func argsOf(lists ...[]Attr) map[string]string {
	args := map[string]string{}
	for _, attrs := range lists {
		for _, a := range attrs {
			args[a.K] = a.V
		}
	}
	return args
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
