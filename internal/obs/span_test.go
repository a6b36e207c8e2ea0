package obs

import (
	"context"
	"strings"
	"testing"
)

func TestTraceparentRoundTrip(t *testing.T) {
	sc := SpanContext{TraceID: NewTraceID(), SpanID: NewSpanID()}
	if !sc.Valid() {
		t.Fatalf("freshly minted context invalid: %+v", sc)
	}
	hdr := sc.Traceparent()
	if !strings.HasPrefix(hdr, "00-") || !strings.HasSuffix(hdr, "-01") {
		t.Fatalf("traceparent %q not version 00 / sampled", hdr)
	}
	got, ok := ParseTraceparent(hdr)
	if !ok || got != sc {
		t.Fatalf("round trip: %q -> %+v (ok=%v), want %+v", hdr, got, ok, sc)
	}
	if (SpanContext{}).Traceparent() != "" {
		t.Fatal("zero context should render no traceparent")
	}
}

// TestMintedIDsAreDistinctAndValid: span and trace IDs come from one keyed
// counter mix, so 10^5 of each are pairwise distinct, well-formed lowercase
// hex and nonzero.
func TestMintedIDsAreDistinctAndValid(t *testing.T) {
	const n = 100_000
	for _, mint := range []struct {
		name   string
		digits int
		f      func() string
	}{{"span", 16, NewSpanID}, {"trace", 32, NewTraceID}} {
		seen := make(map[string]struct{}, n)
		for i := 0; i < n; i++ {
			id := mint.f()
			if !validHexID(id, mint.digits) {
				t.Fatalf("%s ID %q is not %d nonzero lowercase hex digits", mint.name, id, mint.digits)
			}
			if _, dup := seen[id]; dup {
				t.Fatalf("%s ID %q minted twice in %d", mint.name, id, i+1)
			}
			seen[id] = struct{}{}
		}
	}
}

func TestParseTraceparent(t *testing.T) {
	trace, span := strings.Repeat("ab", 16), strings.Repeat("cd", 8)
	cases := []struct {
		in string
		ok bool
	}{
		{"00-" + trace + "-" + span + "-01", true},
		// Unknown future version with trailing fields: accepted per spec.
		{"01-" + trace + "-" + span + "-01-extra", true},
		{"  00-" + trace + "-" + span + "-01  ", true},                // whitespace tolerated
		{"ff-" + trace + "-" + span + "-01", false},                   // reserved version
		{"00-" + strings.ToUpper(trace) + "-" + span + "-01", false},  // hex must be lowercase
		{"00-" + strings.Repeat("0", 32) + "-" + span + "-01", false}, // all-zero trace ID
		{"00-" + trace + "-" + strings.Repeat("0", 16) + "-01", false},
		{"00-" + trace[:30] + "-" + span + "-01", false}, // short trace ID
		{"00-" + trace + "-" + span, false},              // missing flags
		{"", false},
		{"not a traceparent", false},
	}
	for _, c := range cases {
		sc, ok := ParseTraceparent(c.in)
		if ok != c.ok {
			t.Errorf("ParseTraceparent(%q) ok=%v, want %v", c.in, ok, c.ok)
		}
		if ok && (sc.TraceID == "" || sc.SpanID == "") {
			t.Errorf("ParseTraceparent(%q) accepted but returned empty IDs", c.in)
		}
	}
}

// TestSpanNilSafety pins the spans-off contract: a nil sink yields a nil
// span, and every method on a nil span is a safe no-op — callers never
// branch.
func TestSpanNilSafety(t *testing.T) {
	sp := StartSpanFrom(SpanContext{}, nil, "x")
	if sp != nil {
		t.Fatal("nil sink should yield nil span")
	}
	sp.End() // must not panic
	if sp.Context() != (SpanContext{}) {
		t.Fatal("nil span context should be zero")
	}
	ctx, sp2 := StartSpan(context.Background(), nil, "x")
	if sp2 != nil {
		t.Fatal("nil sink should yield nil span via StartSpan too")
	}
	if _, ok := SpanFromContext(ctx); ok {
		t.Fatal("nil-sink StartSpan should not install a span context")
	}
}

// TestSpanParenting checks trace propagation: a child under a live parent
// shares its trace ID and records the parent link; an invalid parent mints
// a fresh trace and drops the link.
func TestSpanParenting(t *testing.T) {
	col := NewCollector(NewRegistry(), 64)
	root := StartSpanFrom(SpanContext{}, col, "root")
	child := StartSpanFrom(root.Context(), col, "child", A("k", "v"))
	if child.Context().TraceID != root.Context().TraceID {
		t.Fatalf("child trace %s != root trace %s", child.Context().TraceID, root.Context().TraceID)
	}
	if child.Context().SpanID == root.Context().SpanID {
		t.Fatal("child reused the parent's span ID")
	}
	child.End(A("outcome", "ok"))
	root.End()

	attrs := func(rec Record) map[string]string {
		m := make(map[string]string)
		for _, a := range rec.Attrs {
			m[a.K] = a.V
		}
		return m
	}
	recs := col.Records()
	if len(recs) != 4 {
		t.Fatalf("journal has %d records, want 2 begins + 2 ends", len(recs))
	}
	childBegin := attrs(recs[1])
	if childBegin["parent"] != root.Context().SpanID {
		t.Fatalf("child begin parent = %q, want root span %q", childBegin["parent"], root.Context().SpanID)
	}
	if childBegin["name"] != "child" || childBegin["k"] != "v" {
		t.Fatalf("child begin attrs wrong: %v", childBegin)
	}
	childEnd := attrs(recs[2])
	if childEnd["span"] != child.Context().SpanID || childEnd["outcome"] != "ok" {
		t.Fatalf("child end attrs wrong: %v", childEnd)
	}

	// Fresh-trace path: an invalid parent cannot be linked to.
	orphan := StartSpanFrom(SpanContext{TraceID: "nonsense", SpanID: "also"}, col, "orphan")
	if orphan.Context().TraceID == "" || !orphan.Context().Valid() {
		t.Fatalf("orphan should mint a fresh valid trace, got %+v", orphan.Context())
	}
	rec := col.Records()[len(col.Records())-1]
	if a := attrs(rec); a["parent"] != "" {
		t.Fatalf("orphan recorded a parent link %q to an invalid context", a["parent"])
	}
	orphan.End()
}

// TestContextPropagation checks the context.Context carrier used by the
// HTTP layer.
func TestContextPropagation(t *testing.T) {
	col := NewCollector(NewRegistry(), 64)
	ctx, sp := StartSpan(context.Background(), col, "http")
	got, ok := SpanFromContext(ctx)
	if !ok || got != sp.Context() {
		t.Fatalf("context carries %+v (ok=%v), want %+v", got, ok, sp.Context())
	}
	_, child := StartSpan(ctx, col, "inner")
	if child.Context().TraceID != sp.Context().TraceID {
		t.Fatal("context-started child did not inherit the trace")
	}
	child.End()
	sp.End()
}
