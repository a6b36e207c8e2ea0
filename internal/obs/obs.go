// Package obs is the observability substrate: a dependency-free metrics
// registry (counters, gauges, histograms with atomic fast paths) and an
// event journal bounded in bytes (the flight recorder), which encodes each
// record once, as the JSONL line it exports, and decodes records only for
// the Chrome trace_event export and the crash postmortem.
//
// Determinism contract (DESIGN.md §9): the deterministic packages (core,
// island, gpu, synth) emit trace events through the nil-default Sink
// interface, and every payload they attach is itself a deterministic
// function of (workload, seed, arch) — strings and strconv-formatted
// numbers, never timestamps, durations, goroutine IDs or addresses.
// Wall-clock time enters the journal in exactly one place: the Collector
// stamps a WallNs on each record as it arrives. obs is therefore the one
// package in the determinism scope with a documented //gevo:allow
// detsource exemption, and fixed-seed search results are bit-identical
// with tracing on or off because the sink only ever observes.
//
//gevo:deterministic
package obs

import "strconv"

// Attr is one key/value pair of an event payload. Values are strings so
// that an Event is trivially serializable and, by construction, carries no
// nondeterministic structure; use A/AI/AF to format typed values
// deterministically.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// A builds a string attribute.
func A(k, v string) Attr { return Attr{K: k, V: v} }

// AI builds an integer attribute.
func AI(k string, v int64) Attr { return Attr{K: k, V: strconv.FormatInt(v, 10)} }

// AF builds a float attribute. strconv's shortest round-trip formatting is
// deterministic for every value including ±Inf and NaN.
func AF(k string, v float64) Attr { return Attr{K: k, V: strconv.FormatFloat(v, 'g', -1, 64)} }

// Event is one typed trace event: a dotted type name (see the taxonomy in
// DESIGN.md §9) and its payload attributes in a fixed, emitter-chosen
// order.
type Event struct {
	Type  string
	Attrs []Attr
}

// Sink receives trace events. Deterministic packages hold a nil-default
// Sink field and emit only behind a nil check, so the disabled path costs
// one pointer compare. Implementations must be safe for concurrent use and
// must never block on the emitter.
type Sink interface {
	Emit(Event)
}

// attrSink decorates every event with extra attributes before forwarding —
// how an orchestrator tags one search's deterministic events with its own
// identity (e.g. a job ID) without the engine knowing about jobs.
type attrSink struct {
	inner Sink
	attrs []Attr
}

// WithAttrs returns a sink that appends the given attributes to every
// event and forwards to inner. A nil inner returns nil, so callers can
// decorate unconditionally.
func WithAttrs(inner Sink, attrs ...Attr) Sink {
	if inner == nil {
		return nil
	}
	return &attrSink{inner: inner, attrs: attrs}
}

func (s *attrSink) Emit(ev Event) {
	out := make([]Attr, 0, len(ev.Attrs)+len(s.attrs))
	out = append(out, ev.Attrs...)
	out = append(out, s.attrs...)
	s.inner.Emit(Event{Type: ev.Type, Attrs: out})
}
