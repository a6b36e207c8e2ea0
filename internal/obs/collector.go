package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"sync"
	"time"
	"unicode/utf8"
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

// DefaultJournalBytes is the default flight-recorder budget: the encoded
// JSONL the journal retains. A serve record encodes to ~315 bytes, so 4 MiB
// holds ~13 k records — the last ~54 small serve jobs, or an entire CLI run.
const DefaultJournalBytes = 4 << 20

// slabBytes is the unit the journal allocates its bytes in; a budget rounds
// up to whole slabs.
const slabBytes = 64 << 10

// Collector is the flight recorder: a Sink that stamps events with
// sequence numbers and wall-clock timestamps, encodes each record once into
// its JSONL line, retains the newest lines within a byte budget, counts them
// in a Registry, and exports the journal as JSONL or Chrome trace_event
// JSON. The journal is bytes only — nothing in it for the GC to trace, no
// allocation per record once its slabs exist — and records are decoded only
// when an exporter asks for them.
//
// This is where wall-clock time legitimately meets the deterministic event
// stream: emitters in the determinism scope never read the clock, the
// collector stamps arrivals, and nothing downstream of a stamp can reach
// back into search results.
type Collector struct {
	events  *Counter
	dropped *Counter

	mu sync.Mutex
	// slabs hold the journal as one stream of JSONL lines that wraps around
	// them: stream offset p lives in slabs[p/slabBytes%len(slabs)] at
	// p%slabBytes. A slab is allocated when the stream first reaches it and
	// recycled from then on; guarded by mu.
	slabs [][]byte
	// head and tail are the stream offsets of the oldest retained byte and
	// one past the newest, with tail-head <= the budget; guarded by mu.
	head, tail uint64
	// records counts the lines in [head, tail); guarded by mu.
	records int
	// seq numbers the next record, so seq-records records were dropped;
	// guarded by mu.
	seq uint64
	// line is the encoding scratch buffer; guarded by mu.
	line []byte
}

// NewCollector creates a collector journaling up to budget bytes of encoded
// records (<=0 = DefaultJournalBytes; rounded up to whole 64 KiB slabs) and
// registering its event counters in reg (nil = Default).
func NewCollector(reg *Registry, budget int) *Collector {
	if reg == nil {
		reg = Default
	}
	if budget <= 0 {
		budget = DefaultJournalBytes
	}
	return &Collector{
		events:  reg.Counter("gevo_trace_events_total", "Trace events journaled by the collector."),
		dropped: reg.Counter("gevo_trace_events_dropped_total", "Trace events evicted, oldest first, to keep the journal within its byte budget."),
		slabs:   make([][]byte, (budget+slabBytes-1)/slabBytes),
	}
}

// Emit implements Sink: stamp, encode and journal.
func (c *Collector) Emit(ev Event) {
	now := time.Now().UnixNano() //gevo:allow the collector is the one stamping point for wall time; stamps never flow back into search results
	c.events.Inc()
	c.mu.Lock()
	defer c.mu.Unlock()
	c.line = appendRecord(c.line[:0], c.seq, now, ev)
	c.seq++
	c.journalLocked(c.line)
	if cap(c.line) > slabBytes {
		c.line = nil // an outsized record does not pin its scratch
	}
}

// journalLocked appends one line, evicting the oldest lines until it fits.
// A line larger than the whole budget evicts everything and is itself
// dropped, so the journal always holds the newest records without a gap.
func (c *Collector) journalLocked(line []byte) {
	n := uint64(len(line))
	budget := uint64(len(c.slabs)) * slabBytes
	if n > budget {
		c.dropped.Add(int64(c.records) + 1)
		c.head, c.records = c.tail, 0
		return
	}
	for c.tail+n-c.head > budget {
		c.evictOldestLocked()
	}
	for len(line) > 0 {
		i := c.tail / slabBytes % uint64(len(c.slabs))
		if c.slabs[i] == nil {
			c.slabs[i] = make([]byte, slabBytes)
		}
		k := copy(c.slabs[i][c.tail%slabBytes:], line)
		line = line[k:]
		c.tail += uint64(k)
	}
	c.records++
}

// segmentLocked returns the journal bytes from stream offset p up to the
// tail or the end of p's slab, whichever comes first.
func (c *Collector) segmentLocked(p uint64) []byte {
	s := c.slabs[p/slabBytes%uint64(len(c.slabs))]
	off := p % slabBytes
	return s[off : off+min(slabBytes-off, c.tail-p)]
}

// evictOldestLocked drops the oldest line.
func (c *Collector) evictOldestLocked() {
	for {
		seg := c.segmentLocked(c.head)
		if i := bytes.IndexByte(seg, '\n'); i >= 0 {
			c.head += uint64(i + 1)
			break
		}
		c.head += uint64(len(seg))
	}
	c.records--
	c.dropped.Inc()
}

// appendRecord appends the JSONL line of the record Emit stamps on ev:
// byte for byte what json.Encoder writes for that Record, newline included.
func appendRecord(b []byte, seq uint64, wallNs int64, ev Event) []byte {
	b = append(b, `{"seq":`...)
	b = strconv.AppendUint(b, seq, 10)
	b = append(b, `,"wall_ns":`...)
	b = strconv.AppendInt(b, wallNs, 10)
	b = append(b, `,"type":`...)
	b = appendString(b, ev.Type)
	if len(ev.Attrs) > 0 {
		b = append(b, `,"attrs":[`...)
		for i, a := range ev.Attrs {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, `{"k":`...)
			b = appendString(b, a.K)
			b = append(b, `,"v":`...)
			b = appendString(b, a.V)
			b = append(b, '}')
		}
		b = append(b, ']')
	}
	return append(b, "}\n"...)
}

// jsonSafe marks the bytes encoding/json copies into a string unescaped:
// printable ASCII but for ", \, <, > and &.
var jsonSafe = func() (t [256]bool) {
	for c := 0x20; c < utf8.RuneSelf; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// appendString appends s as a JSON string escaped the way encoding/json
// escapes it: quotes, backslashes and control characters, the HTML-unsafe
// <, > and &, U+2028 and U+2029, and each invalid UTF-8 byte as U+FFFD.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if jsonSafe[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xf])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xf])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
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

// jsonl returns a copy of the journal's JSONL, oldest record first.
func (c *Collector) jsonl() []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]byte, 0, c.tail-c.head)
	for p := c.head; p < c.tail; {
		seg := c.segmentLocked(p)
		out = append(out, seg...)
		p += uint64(len(seg))
	}
	return out
}

// Records decodes the journal in sequence order, oldest first.
func (c *Collector) Records() []Record {
	blob := c.jsonl()
	out := make([]Record, 0, bytes.Count(blob, []byte{'\n'}))
	for len(blob) > 0 {
		i := bytes.IndexByte(blob, '\n')
		var rec Record
		if err := json.Unmarshal(blob[:i], &rec); err != nil {
			panic("obs: journal line does not decode: " + err.Error()) // appendRecord wrote it
		}
		out = append(out, rec)
		blob = blob[i+1:]
	}
	return out
}

// WriteJSONL writes the journal as one JSON record per line.
func (c *Collector) WriteJSONL(w io.Writer) error {
	_, err := w.Write(c.jsonl())
	return err
}

// JournalStats describes what a collector's journal holds.
type JournalStats struct {
	// Records and Bytes are the retained records and their encoded size.
	Records, Bytes int
	// Budget is the byte budget Bytes stays within.
	Budget int
	// Dropped counts the records evicted, oldest first, since the
	// collector was made.
	Dropped uint64
}

// Stats reports the journal's depth, size, budget and evictions.
func (c *Collector) Stats() JournalStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return JournalStats{
		Records: c.records, Bytes: int(c.tail - c.head),
		Budget: len(c.slabs) * slabBytes, Dropped: c.seq - uint64(c.records),
	}
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
	return fmt.Sprintf("obs.Collector{records: %d, bytes: %d, next_seq: %d}", c.records, c.tail-c.head, c.seq)
}
