package obs

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"strings"
	"sync/atomic"
)

// Span tracing rides the same nil-default Sink pattern as every other trace
// event: a span is two journal records — span.begin with W3C-style trace,
// span and parent identifiers, span.end with the span ID and what the span
// ended with — and the Collector pairs them by span ID into flow-linked
// Chrome trace slices at export time. Span IDs are a keyed mix of a
// process-wide counter under a key drawn once from crypto/rand — they are
// identifiers, never inputs to the search, so generating them does not touch
// the determinism contract (and with a nil sink no IDs are generated at all:
// the spans-off path is one pointer compare, exactly like metrics and
// events).

// SpanContext is a position in a distributed trace: a 32-hex-digit trace ID
// shared by every span of one causal chain, and the 16-hex-digit ID of the
// current span. The zero value is "no trace".
type SpanContext struct {
	TraceID string `json:"trace,omitempty"`
	SpanID  string `json:"span,omitempty"`
}

// Valid reports whether both IDs are well-formed and nonzero per the W3C
// trace-context rules.
func (sc SpanContext) Valid() bool {
	return validHexID(sc.TraceID, 32) && validHexID(sc.SpanID, 16)
}

func validHexID(s string, n int) bool {
	if len(s) != n {
		return false
	}
	zero := true
	for i := 0; i < n; i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
		if c != '0' {
			zero = false
		}
	}
	return !zero
}

// idKey keys the ID mix: drawn from crypto/rand once per process, so IDs
// differ between processes while minting one costs no system call.
var idKey = func() (k [4]uint64) {
	var b [32]byte
	if _, err := rand.Read(b[:]); err != nil {
		// crypto/rand failing is a broken platform; a fixed key keeps IDs
		// unique within the process instead of taking the search down.
		return [4]uint64{1, 2, 3, 4}
	}
	for i := range k {
		k[i] = binary.LittleEndian.Uint64(b[8*i:])
	}
	return k
}()

// idCounter numbers the minted IDs.
var idCounter atomic.Uint64

// idMix is a keyed bijection on 64 bits: two rounds of key XOR and the
// splitmix64 finalizer, each step invertible, so distinct counter values
// always give distinct IDs.
func idMix(x, k0, k1 uint64) uint64 {
	for _, k := range [2]uint64{k0, k1} {
		x ^= k
		x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
		x = (x ^ x>>27) * 0x94d049bb133111eb
		x ^= x >> 31
	}
	return x
}

// nextID draws a fresh counter value and its nonzero span bits (a W3C ID
// must not be all zeros, and one counter value in 2^64 maps there).
func nextID() (ctr, bits uint64) {
	for {
		ctr = idCounter.Add(1)
		if bits = idMix(ctr, idKey[0], idKey[1]); bits != 0 {
			return ctr, bits
		}
	}
}

// NewTraceID mints a fresh 32-hex-digit trace ID.
func NewTraceID() string {
	ctr, lo := nextID()
	raw := binary.BigEndian.AppendUint64(nil, idMix(ctr, idKey[2], idKey[3]))
	return hex.EncodeToString(binary.BigEndian.AppendUint64(raw, lo))
}

// NewSpanID mints a fresh 16-hex-digit span ID.
func NewSpanID() string {
	_, bits := nextID()
	return hex.EncodeToString(binary.BigEndian.AppendUint64(nil, bits))
}

// Traceparent renders the context as a W3C traceparent header value
// (version 00, sampled flag set), or "" for an invalid context.
func (sc SpanContext) Traceparent() string {
	if !sc.Valid() {
		return ""
	}
	return "00-" + sc.TraceID + "-" + sc.SpanID + "-01"
}

// ParseTraceparent parses a W3C traceparent header value. It accepts any
// known version field except the reserved "ff" and ignores trailing fields
// future versions may append.
func ParseTraceparent(v string) (SpanContext, bool) {
	parts := strings.Split(strings.TrimSpace(v), "-")
	if len(parts) < 4 {
		return SpanContext{}, false
	}
	ver, trace, span, flags := parts[0], parts[1], parts[2], parts[3]
	if len(ver) != 2 || ver == "ff" || !hexLower(ver) || len(flags) != 2 || !hexLower(flags) {
		return SpanContext{}, false
	}
	sc := SpanContext{TraceID: trace, SpanID: span}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

func hexLower(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// spanCtxKey keys the active SpanContext in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying the span context.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the active span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}

// Span is one live span. A nil *Span is a valid no-op (the spans-off path),
// so callers never branch around End.
type Span struct {
	sink Sink
	sc   SpanContext
}

// Context returns the span's identifiers (zero for a nil span).
func (s *Span) Context() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// StartSpan begins a span under the context's active span (a fresh trace
// when there is none) and emits span.begin through the sink. It returns a
// context carrying the new span for child propagation. A nil sink returns
// (ctx, nil) untouched — spans off costs one compare.
func StartSpan(ctx context.Context, sink Sink, name string, attrs ...Attr) (context.Context, *Span) {
	if sink == nil {
		return ctx, nil
	}
	parent, _ := SpanFromContext(ctx)
	sp := StartSpanFrom(parent, sink, name, attrs...)
	return ContextWithSpan(ctx, sp.sc), sp
}

// StartSpanFrom begins a span under an explicit parent context — the
// no-context path used by the evaluation pool, where the parent rides a
// per-job account instead of a context.Context. An invalid parent starts a
// fresh trace. A nil sink returns nil.
func StartSpanFrom(parent SpanContext, sink Sink, name string, attrs ...Attr) *Span {
	if sink == nil {
		return nil
	}
	sc := SpanContext{TraceID: parent.TraceID, SpanID: NewSpanID()}
	par := parent.SpanID
	if !validHexID(sc.TraceID, 32) {
		sc.TraceID = NewTraceID()
		par = ""
	}
	sp := &Span{sink: sink, sc: sc}
	out := make([]Attr, 0, len(attrs)+4)
	out = append(out, A("trace", sc.TraceID), A("span", sc.SpanID))
	if par != "" {
		out = append(out, A("parent", par))
	}
	out = append(out, A("name", name))
	out = append(out, attrs...)
	sink.Emit(Event{Type: "span.begin", Attrs: out})
	return sp
}

// End emits span.end, closing the span. Safe on a nil span; extra
// attributes annotate the closing record (e.g. an outcome code). The record
// carries the span ID and those attributes only: the trace, parent and name
// are on span.begin, which the exporter pairs it with.
func (s *Span) End(attrs ...Attr) {
	if s == nil {
		return
	}
	out := make([]Attr, 0, len(attrs)+1)
	out = append(out, A("span", s.sc.SpanID))
	out = append(out, attrs...)
	s.sink.Emit(Event{Type: "span.end", Attrs: out})
}
