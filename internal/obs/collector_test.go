package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

// padded is event i of a test stream, padded so that its JSONL line is
// about pad bytes long.
func padded(i, pad int) Event {
	return Event{Type: "e", Attrs: []Attr{AI("i", int64(i)), A("pad", strings.Repeat("x", pad))}}
}

func TestCollectorJournalAndSeq(t *testing.T) {
	r := NewRegistry()
	c := NewCollector(r, slabBytes)
	// Lines of ~15 000 bytes: four fit in one slab, five do not.
	for i := 0; i < 6; i++ {
		c.Emit(padded(i, 15000))
	}
	recs := c.Records()
	if len(recs) != 4 {
		t.Fatalf("journal holds %d records, want 4 (bounded in bytes)", len(recs))
	}
	// Oldest two were evicted; the survivors are 2..5 in sequence order.
	for i, rec := range recs {
		if want := uint64(i + 2); rec.Seq != want {
			t.Fatalf("record %d seq = %d, want %d", i, rec.Seq, want)
		}
		if rec.WallNs == 0 {
			t.Fatalf("record %d missing wall-clock stamp", i)
		}
	}
	if v := r.Value("gevo_trace_events_total"); v != 6 {
		t.Fatalf("events_total = %g, want 6", v)
	}
	if v := r.Value("gevo_trace_events_dropped_total"); v != 2 {
		t.Fatalf("events_dropped_total = %g, want 2", v)
	}
}

// chromeEvent is the part of a Chrome trace entry the export tests read.
type chromeEvent struct {
	Name  string            `json:"name"`
	Phase string            `json:"ph"`
	ID    string            `json:"id"`
	Args  map[string]string `json:"args"`
}

func chromeEvents(t *testing.T, c *Collector) []chromeEvent {
	t.Helper()
	var ct strings.Builder
	if err := c.WriteChromeTrace(&ct); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var evs []chromeEvent
	if err := json.Unmarshal([]byte(ct.String()), &evs); err != nil {
		t.Fatalf("Chrome trace is not a JSON array: %v", err)
	}
	return evs
}

// spanTree journals the request tree serve builds — an http request, a job,
// a pool.eval under the job and a gpu.compile under the eval — each span
// ending with the attributes its emitter closes it with.
func spanTree(c *Collector) (eval, compile *Span) {
	http := StartSpanFrom(SpanContext{}, c, "http", A("method", "POST"))
	job := StartSpanFrom(http.Context(), c, "job", A("job", "j1"))
	eval = StartSpanFrom(job.Context(), c, "pool.eval", A("module", "m"))
	compile = StartSpanFrom(eval.Context(), c, "gpu.compile", A("module", "m"))
	compile.End(A("ok", "1"), A("verify_us", "7"), A("lower_us", "3"), A("finalize_us", "2"))
	eval.End()
	job.End(A("state", "done"))
	http.End(A("route", "POST /jobs"), A("code", "202"))
	return eval, compile
}

// TestCollectorSpanFlowLinks: a gpu.compile span opened under a pool.eval
// span is flow-linked to it — an "s" arrow tail and an "f" head keyed by the
// compile's span ID — and the journal derives no metric from the pairing:
// spans cost two records and nothing else.
func TestCollectorSpanFlowLinks(t *testing.T) {
	r := NewRegistry()
	c := NewCollector(r, 64)
	eval, compile := spanTree(c)

	id := compile.Context().SpanID
	var tail, head bool
	for _, e := range chromeEvents(t, c) {
		tail = tail || e.Phase == "s" && e.ID == id
		head = head || e.Phase == "f" && e.ID == id
	}
	if !tail || !head {
		t.Fatalf("gpu.compile span %s not flow-linked to pool.eval %s (tail %v, head %v)",
			id, eval.Context().SpanID, tail, head)
	}

	for _, s := range r.Snapshot() {
		if s.Name != "gevo_trace_events_total" && s.Name != "gevo_trace_events_dropped_total" {
			t.Errorf("collector registered %s; it journals and counts, nothing more", s.Name)
		}
	}
}

func TestCollectorExports(t *testing.T) {
	c := NewCollector(NewRegistry(), 16)
	c.Emit(Event{Type: "engine.gen", Attrs: []Attr{A("id", "deme0"), AI("gen", 1), AF("speedup", 1.25)}})
	spanTree(c)

	var jl strings.Builder
	if err := c.WriteJSONL(&jl); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(strings.NewReader(jl.String()))
	lines := 0
	for sc.Scan() {
		var rec Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("JSONL line %d invalid: %v", lines, err)
		}
		lines++
	}
	if lines != 9 {
		t.Fatalf("JSONL lines = %d, want 9 (engine.gen + 4 span begins + 4 span ends)", lines)
	}

	// engine.gen instant + its speedup counter + four span slices, each
	// carrying what it was opened with and what it ended with.
	phases := map[string]int{}
	slices := map[string]map[string]string{}
	for _, e := range chromeEvents(t, c) {
		phases[e.Phase]++
		if e.Phase == "X" {
			slices[e.Name] = e.Args
		}
	}
	if phases["i"] != 1 || phases["C"] != 1 || phases["X"] != 4 {
		t.Fatalf("phases = %v, want 1 instant, 1 counter, 4 slices", phases)
	}
	for _, want := range []struct{ slice, k, v string }{
		{"http", "method", "POST"}, {"http", "code", "202"}, {"http", "route", "POST /jobs"},
		{"job", "job", "j1"}, {"job", "state", "done"},
		{"gpu.compile", "module", "m"}, {"gpu.compile", "verify_us", "7"}, {"gpu.compile", "ok", "1"},
	} {
		if got := slices[want.slice][want.k]; got != want.v {
			t.Errorf("%s slice arg %s = %q, want %q (args %v)", want.slice, want.k, got, want.v, slices[want.slice])
		}
	}
}

func TestWithAttrs(t *testing.T) {
	c := NewCollector(NewRegistry(), 8)
	s := WithAttrs(c, A("job", "j1"))
	s.Emit(Event{Type: "x", Attrs: []Attr{AI("gen", 3)}})
	recs := c.Records()
	if len(recs) != 1 {
		t.Fatalf("journal has %d records, want 1", len(recs))
	}
	if got := attrValue(recs[0].Attrs, "job"); got != "j1" {
		t.Fatalf("job attr = %q, want j1", got)
	}
	if got := attrValue(recs[0].Attrs, "gen"); got != "3" {
		t.Fatalf("gen attr = %q, want 3", got)
	}
	if WithAttrs(nil, A("a", "b")) != nil {
		t.Fatalf("WithAttrs(nil) must stay nil (no-op sink)")
	}
}

// TestEmitEncodesLikeEncodingJSON pins the journal's one encoding: the line
// Emit stores for an event is byte for byte what json.Encoder writes for the
// Record it stamps — escapes, invalid UTF-8 and the omitted empty attrs
// included — so every JSONL consumer reads the journal as before.
func TestEmitEncodesLikeEncodingJSON(t *testing.T) {
	var ctl strings.Builder
	for b := 0; b < 0x20; b++ {
		ctl.WriteByte(byte(b))
	}
	ctl.WriteByte(0x7f)
	cases := []Event{
		{Type: "html", Attrs: []Attr{A("<a href=\"x\">", "a&b>c<d")}},
		{Type: `q"uo\te`, Attrs: []Attr{A(`back\slash`, `"quoted"`), A("", "")}},
		{Type: "ctl", Attrs: []Attr{A("all", ctl.String()), A("tab", "a\tb\nc\rd\be\ff")}},
		{Type: "utf8", Attrs: []Attr{A("bad", "a\xffb\xc3(c\xe2\x82"), A("ok", "héllo, 世界 🚀")}},
		{Type: "sep", Attrs: []Attr{A("ls", "a\u2028b"), A("ps", "\u2029")}},
		{Type: "empty", Attrs: []Attr{}},
		{Type: "nil"},
		{Type: ""},
	}
	c := NewCollector(NewRegistry(), 0)
	for _, ev := range cases {
		c.Emit(ev)
	}
	var got strings.Builder
	if err := c.WriteJSONL(&got); err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(got.String(), "\n")
	if len(lines) != len(cases)+1 || lines[len(cases)] != "" {
		t.Fatalf("journal has %d lines for %d events:\n%s", len(lines)-1, len(cases), got.String())
	}
	for i, ev := range cases {
		// The collector stamps seq and wall_ns; read them back and encode
		// the Record they make with the original event.
		var stamp Record
		if err := json.Unmarshal([]byte(lines[i]), &stamp); err != nil {
			t.Fatalf("line %d does not decode: %v\n%s", i, err, lines[i])
		}
		var want strings.Builder
		rec := Record{Seq: stamp.Seq, WallNs: stamp.WallNs, Type: ev.Type, Attrs: ev.Attrs}
		if err := json.NewEncoder(&want).Encode(rec); err != nil {
			t.Fatal(err)
		}
		if lines[i] != want.String() {
			t.Errorf("event %q:\nEmit:         %q\njson.Encoder: %q", ev.Type, lines[i], want.String())
		}
	}
}

// TestJournalBytesAreBounded emits records of mixed sizes — one of them
// larger than the whole budget — and checks after every Emit that the
// journal stays within its budget, holds the newest records in sequence
// order and as many of them as fit, and counts every other record dropped.
func TestJournalBytesAreBounded(t *testing.T) {
	reg := NewRegistry()
	c := NewCollector(reg, 2*slabBytes)
	budget := 2 * slabBytes
	sizes := map[uint64]int{} // encoded line length by seq, for retained records
	var line strings.Builder
	for i := 0; i < 400; i++ {
		// Sizes spread over 75 bytes to 3 KB, so some lines land within a
		// few bytes of the budget, and one in 25 is ~31 KB.
		pad := i * 7919 % 3001
		if i%25 == 0 {
			pad = 31000
		}
		if i == 217 {
			pad = budget + 1
		}
		c.Emit(padded(i, pad))

		st := c.Stats()
		if st.Budget != budget || st.Bytes > budget {
			t.Fatalf("after %d emits: journal holds %d bytes, budget %d (want %d)", i+1, st.Bytes, st.Budget, budget)
		}
		line.Reset()
		if err := c.WriteJSONL(&line); err != nil {
			t.Fatal(err)
		}
		if line.Len() != st.Bytes {
			t.Fatalf("after %d emits: JSONL is %d bytes, Stats says %d", i+1, line.Len(), st.Bytes)
		}
		recs := c.Records()
		if len(recs) != st.Records {
			t.Fatalf("after %d emits: %d records decode, Stats says %d", i+1, len(recs), st.Records)
		}
		if emitted := uint64(i + 1); st.Dropped != emitted-uint64(len(recs)) ||
			reg.Value("gevo_trace_events_dropped_total") != float64(st.Dropped) {
			t.Fatalf("after %d emits: dropped %d (counter %g), retained %d",
				i+1, st.Dropped, reg.Value("gevo_trace_events_dropped_total"), len(recs))
		}
		if i == 217 {
			if len(recs) != 0 {
				t.Fatalf("a record over the budget left %d records behind it", len(recs))
			}
			continue
		}
		// The newest record is kept, the rest are its predecessors in
		// order, and the next older one would not have fit.
		if len(recs) == 0 || recs[len(recs)-1].Seq != uint64(i) {
			t.Fatalf("after %d emits: newest record missing (%d retained)", i+1, len(recs))
		}
		last := strings.LastIndex(strings.TrimSuffix(line.String(), "\n"), "\n")
		sizes[uint64(i)] = line.Len() - last - 1
		total := 0
		for k, rec := range recs {
			if want := uint64(i - len(recs) + 1 + k); rec.Seq != want {
				t.Fatalf("after %d emits: record %d has seq %d, want %d", i+1, k, rec.Seq, want)
			}
			total += sizes[rec.Seq]
		}
		if total != st.Bytes {
			t.Fatalf("after %d emits: line sizes sum to %d, journal holds %d", i+1, total, st.Bytes)
		}
		if older, ok := sizes[recs[0].Seq-1]; ok && recs[0].Seq > 0 && total+older <= budget {
			t.Fatalf("after %d emits: seq %d (%d bytes) evicted though it fit beside %d bytes",
				i+1, recs[0].Seq-1, older, total)
		}
	}

	// Two lines that fill the budget exactly are both kept: records 0 and
	// 1 encode to the same length but for the padding.
	exact := NewCollector(NewRegistry(), slabBytes)
	exact.Emit(padded(0, 0))
	first := exact.Stats().Bytes
	exact.Emit(padded(1, slabBytes-2*first))
	if st := exact.Stats(); st.Records != 2 || st.Bytes != slabBytes {
		t.Fatalf("lines filling the budget exactly: journal stats %+v, want both records in %d bytes", st, slabBytes)
	}
}
