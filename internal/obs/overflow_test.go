package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
)

func TestEscapeLabelAndLabels(t *testing.T) {
	cases := []struct{ in, want string }{
		{`plain`, `plain`},
		{`back\slash`, `back\\slash`},
		{`qu"ote`, `qu\"ote`},
		{"new\nline", `new\nline`},
		{"all\\\"\n", `all\\\"\n`},
	}
	for _, c := range cases {
		if got := EscapeLabel(c.in); got != c.want {
			t.Fatalf("EscapeLabel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	got := Labels("gevo_jobs", "state", `run"ning`, "path", `C:\tmp`)
	want := `gevo_jobs{state="run\"ning",path="C:\\tmp"}`
	if got != want {
		t.Fatalf("Labels = %q, want %q", got, want)
	}
	if got := Labels("bare"); got != "bare" {
		t.Fatalf("Labels with no pairs = %q, want bare name", got)
	}
}

// TestPrometheusExposition pins the text-format contract: every family gets
// # HELP and # TYPE headers, label values and help text are escaped per
// exposition format 0.0.4.
func TestPrometheusExposition(t *testing.T) {
	reg := NewRegistry()
	reg.Counter(Labels("esc_total", "site", "disk\\io \"hot\"\nend"),
		"Counts\nthings with \\ in help.").Inc()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP esc_total Counts\\nthings with \\\\ in help.\n",
		"# TYPE esc_total counter\n",
		`esc_total{site="disk\\io \"hot\"\nend"} 1` + "\n",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.ContainsRune(strings.TrimPrefix(line, "# "), '\n') {
			t.Fatalf("unescaped newline leaked into exposition line %q", line)
		}
	}
}

func TestBuildInfoGauge(t *testing.T) {
	b := Build()
	if b.Go == "" {
		t.Fatalf("build info missing Go version: %+v", b)
	}
	if b.Version == "" {
		t.Fatalf("build info missing version: %+v", b)
	}
	reg := NewRegistry()
	reg.RegisterBuildInfo()
	name := Labels("gevo_build_info", "version", b.Version, "go", b.Go)
	if v := reg.Value(name); v != 1 {
		t.Fatalf("%s = %g, want constant 1", name, v)
	}
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	if !strings.Contains(buf.String(), "# TYPE gevo_build_info gauge\n") {
		t.Fatalf("exposition missing gevo_build_info family:\n%s", buf.String())
	}
}

// TestCollectorRingOverflow pins the flight-recorder wrap-around contract:
// the drop counter grows monotonically by exactly the overflow, the journal
// keeps the newest records in sequence order, and the Chrome trace export
// stays well-formed JSON after the wrap.
func TestCollectorRingOverflow(t *testing.T) {
	// Lines of ~7 700 bytes: eight fit in the one-slab budget, nine do not.
	const capacity, total = 8, 27
	reg := NewRegistry()
	col := NewCollector(reg, slabBytes)
	var lastDropped int64
	for i := 0; i < total; i++ {
		col.Emit(Event{Type: "tick", Attrs: []Attr{AI("i", int64(i)), A("pad", strings.Repeat("x", 7700))}})
		d := col.dropped.Value()
		if d < lastDropped {
			t.Fatalf("drop counter went backwards: %d after %d", d, lastDropped)
		}
		lastDropped = d
	}
	if want := int64(total - capacity); lastDropped != want {
		t.Fatalf("dropped = %d, want %d", lastDropped, want)
	}
	recs := col.Records()
	if len(recs) != capacity {
		t.Fatalf("journal holds %d records, want capacity %d", len(recs), capacity)
	}
	if st := col.Stats(); st.Bytes > st.Budget || st.Records != capacity || st.Dropped != total-capacity {
		t.Fatalf("journal stats %+v, want %d records within the budget and %d dropped", st, capacity, total-capacity)
	}
	// Eviction preserved exactly the newest records, oldest first.
	for i, rec := range recs {
		if want := uint64(total - capacity + i); rec.Seq != want {
			t.Fatalf("record %d has seq %d, want %d (newest window)", i, rec.Seq, want)
		}
	}
	if v := attrValue(recs[len(recs)-1].Attrs, "i"); v != fmt.Sprint(total-1) {
		t.Fatalf("newest record carries i=%s, want %d", v, total-1)
	}
	var buf bytes.Buffer
	if err := col.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("trace: %v", err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not well-formed JSON after wrap: %v\n%s", err, buf.String())
	}
	if len(events) != capacity {
		t.Fatalf("trace has %d events, want %d", len(events), capacity)
	}
}

// TestCollectorRingUnderCapacity pins the pre-wrap behaviour: no drops, all
// records retained, and the budget a whole number of slabs.
func TestCollectorRingUnderCapacity(t *testing.T) {
	col := NewCollector(NewRegistry(), 16)
	for i := 0; i < 10; i++ {
		col.Emit(Event{Type: "tick"})
	}
	if d := col.dropped.Value(); d != 0 {
		t.Fatalf("dropped = %d before the journal is full", d)
	}
	if n := len(col.Records()); n != 10 {
		t.Fatalf("journal holds %d records, want 10", n)
	}
	// Ten `{"seq":N,"wall_ns":T,"type":"tick"}` lines.
	if st := col.Stats(); st.Budget != slabBytes || st.Bytes < 10*50 || st.Bytes > 10*60 {
		t.Fatalf("journal stats %+v, want ten ~55-byte lines in a %d-byte budget", st, slabBytes)
	}
	if st := NewCollector(NewRegistry(), 0).Stats(); st.Budget != DefaultJournalBytes {
		t.Fatalf("default budget %d, want DefaultJournalBytes", st.Budget)
	}
}
