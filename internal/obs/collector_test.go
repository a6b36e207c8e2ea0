package obs

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
)

func TestCollectorJournalAndSeq(t *testing.T) {
	r := NewRegistry()
	c := NewCollector(r, 4)
	for i := 0; i < 6; i++ {
		c.Emit(Event{Type: "e", Attrs: []Attr{AI("i", int64(i))}})
	}
	recs := c.Records()
	if len(recs) != 4 {
		t.Fatalf("journal holds %d records, want 4 (bounded ring)", len(recs))
	}
	// Oldest two were overwritten; the survivors are 2..5 in sequence order.
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
