package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind discriminates the metric types of a registry series.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Counter is a monotonically increasing count with an atomic fast path.
// The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (negative n is ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an instantaneous level with an atomic fast path. The zero value
// is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the level.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add moves the level by n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// DefBuckets are the default histogram bounds (seconds), tuned for the
// sub-millisecond-to-seconds range of compiles and ledger writes.
var DefBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// Histogram counts observations into fixed cumulative-style buckets with a
// running sum. Observation is lock-free: one atomic add on the bucket, a
// CAS loop on the float sum.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; the last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits
	count  atomic.Int64
}

// NewHistogram builds a histogram over the given upper bounds (ascending;
// nil uses DefBuckets). An implicit +Inf bucket is always appended.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Int64, len(h.bounds)+1)
	return h
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the total of all observed samples.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Bucket is one cumulative histogram bucket in a snapshot: the count of
// observations ≤ Le (math.Inf(1) for the final bucket).
type Bucket struct {
	Le    float64
	Count int64
}

// Series is one named metric in a Snapshot. Counters and gauges carry
// Value; histograms carry Buckets (cumulative), Sum and Count.
type Series struct {
	// Name is the full series name including any fixed label set, e.g.
	// `gevo_serve_jobs{state="running"}`.
	Name string
	Help string
	Kind Kind

	Value   float64
	Buckets []Bucket
	Sum     float64
	Count   int64
}

// series is a registry slot: exactly one of the instrument pointers or fn
// is set, matching Kind.
type series struct {
	name, help string
	kind       Kind
	counter    *Counter
	gauge      *Gauge
	hist       *Histogram
	fn         func() float64
}

// Registry names and snapshots a set of metric instruments. Registration
// is get-or-create by name for owned instruments; the *Func variants
// attach caller-owned state by closure and replace any previous function
// under the same name (last registration wins — the lever that lets a
// fresh serve manager in one test process re-attach its pool under the
// standard names). All methods are safe for concurrent use.
type Registry struct {
	mu sync.Mutex
	// m is the name -> slot table; guarded by mu.
	m map[string]*series
	// groups is the base-name -> dynamic-family table; guarded by mu.
	groups map[string]*seriesGroup
}

// seriesGroup is a dynamic family: fn materializes the family's labeled
// children at snapshot time, so short-lived label values (job IDs) never
// accumulate permanent slots in the registry.
type seriesGroup struct {
	base, help string
	kind       Kind
	fn         func() []Series
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]*series), groups: make(map[string]*seriesGroup)}
}

// Default is the process-wide registry. Process-global instrumentation
// (the gpu program cache and uniform memo) registers here at init; servers
// expose it at /metrics.
var Default = NewRegistry()

// slot returns the named slot, creating it with mk on first sight. An
// existing slot with a different kind panics: two subsystems claiming one
// name as different types is a programming error worth failing loudly on.
func (r *Registry) slot(name, help string, kind Kind, mk func(s *series)) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.m[name]; ok {
		if s.kind != kind {
			panic(fmt.Sprintf("obs: series %q registered as %s and %s", name, s.kind, kind))
		}
		return s
	}
	s := &series{name: name, help: help, kind: kind}
	mk(s)
	r.m[name] = s
	return s
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name, help string) *Counter {
	return r.slot(name, help, KindCounter, func(s *series) { s.counter = &Counter{} }).counter
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.slot(name, help, KindGauge, func(s *series) { s.gauge = &Gauge{} }).gauge
}

// Histogram returns the named histogram, creating it on first use with the
// given bounds (nil = DefBuckets; bounds of an existing histogram win).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.slot(name, help, KindHistogram, func(s *series) { s.hist = NewHistogram(bounds) }).hist
}

// CounterFunc attaches a counter whose value is read from fn at snapshot
// time — for instruments owned elsewhere (a pool's atomics). Re-attaching
// under an existing name replaces the previous function.
func (r *Registry) CounterFunc(name, help string, fn func() float64) {
	s := r.slot(name, help, KindCounter, func(s *series) {})
	r.mu.Lock()
	s.counter, s.fn = nil, fn
	r.mu.Unlock()
}

// GaugeFunc attaches a gauge read from fn at snapshot time; see
// CounterFunc.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	s := r.slot(name, help, KindGauge, func(s *series) {})
	r.mu.Lock()
	s.gauge, s.fn = nil, fn
	r.mu.Unlock()
}

// SeriesFunc attaches a dynamic family under one base name: fn is invoked
// at snapshot time and returns the family's current children, fully formed
// (Name carrying the label set; for histograms, Buckets/Sum/Count; for
// counters and gauges, Value — Help and Kind are overwritten from the
// registration). This is how per-job labeled series stay leak-free: when a
// job is pruned its children simply stop appearing, with no unregister
// step. Re-attaching under an existing base replaces the previous function
// (the last-registration-wins contract of the *Func variants).
func (r *Registry) SeriesFunc(base, help string, kind Kind, fn func() []Series) {
	r.mu.Lock()
	r.groups[base] = &seriesGroup{base: base, help: help, kind: kind, fn: fn}
	r.mu.Unlock()
}

// Value returns the current value of a counter or gauge series (0 for
// unknown names or histograms) — the programmatic read tests use to check
// an instrument without scraping.
func (r *Registry) Value(name string) float64 {
	r.mu.Lock()
	s, ok := r.m[name]
	var fn func() float64
	if ok {
		fn = s.fn
	}
	r.mu.Unlock()
	if !ok {
		return 0
	}
	switch {
	case fn != nil:
		return fn()
	case s.counter != nil:
		return float64(s.counter.Value())
	case s.gauge != nil:
		return float64(s.gauge.Value())
	}
	return 0
}

// Snapshot returns a consistent, name-sorted copy of every series,
// including the children of dynamic families. Value functions and family
// functions are evaluated outside the registry lock, so attached closures
// may take their own locks freely.
func (r *Registry) Snapshot() []Series {
	r.mu.Lock()
	names := make([]string, 0, len(r.m))
	for name := range r.m {
		names = append(names, name)
	}
	slots := make([]*series, 0, len(names))
	sort.Strings(names)
	for _, name := range names {
		slots = append(slots, r.m[name])
	}
	bases := make([]string, 0, len(r.groups))
	for base := range r.groups {
		bases = append(bases, base)
	}
	sort.Strings(bases)
	groups := make([]*seriesGroup, 0, len(bases))
	for _, base := range bases {
		groups = append(groups, r.groups[base])
	}
	r.mu.Unlock()

	out := make([]Series, len(slots))
	for i, s := range slots {
		ser := Series{Name: s.name, Help: s.help, Kind: s.kind}
		switch {
		case s.fn != nil:
			ser.Value = s.fn()
		case s.counter != nil:
			ser.Value = float64(s.counter.Value())
		case s.gauge != nil:
			ser.Value = float64(s.gauge.Value())
		case s.hist != nil:
			cum := int64(0)
			ser.Buckets = make([]Bucket, len(s.hist.counts))
			for b := range s.hist.counts {
				cum += s.hist.counts[b].Load()
				le := math.Inf(1)
				if b < len(s.hist.bounds) {
					le = s.hist.bounds[b]
				}
				ser.Buckets[b] = Bucket{Le: le, Count: cum}
			}
			ser.Sum = s.hist.Sum()
			ser.Count = s.hist.Count()
		}
		out[i] = ser
	}
	for _, g := range groups {
		for _, ser := range g.fn() {
			ser.Help, ser.Kind = g.help, g.kind
			out = append(out, ser)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// labelEscaper escapes a label value per the Prometheus text exposition
// format 0.0.4: backslash, double-quote and line feed. Everything else is
// raw UTF-8.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// EscapeLabel escapes a label value for the text exposition format.
func EscapeLabel(v string) string { return labelEscaper.Replace(v) }

// Labels builds a series name with a fixed label set, escaping each value:
// Labels("x", "a", "b") == `x{a="b"}`. Arguments after the name are
// key/value pairs; keys must already be valid label names (they are taken
// as given), values are escaped per EscapeLabel.
func Labels(name string, kv ...string) string {
	if len(kv) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i+1 < len(kv); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(kv[i])
		b.WriteString(`="`)
		b.WriteString(EscapeLabel(kv[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// helpEscaper escapes a # HELP docstring per the text exposition format
// 0.0.4: backslash and line feed (quotes are legal raw in help text).
var helpEscaper = strings.NewReplacer(`\`, `\\`, "\n", `\n`)

// baseName strips a fixed label set from a series name: the # HELP/# TYPE
// lines describe the metric family, not one labeled child.
func baseName(name string) string {
	if i := strings.IndexByte(name, '{'); i >= 0 {
		return name[:i]
	}
	return name
}

// promFloat formats a sample value in Prometheus exposition syntax.
func promFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return fmt.Sprintf("%g", v)
}

// histName splices the le label into a possibly already-labeled series
// name: `x` -> `x_bucket{le="1"}`, `x{a="b"}` -> `x_bucket{a="b",le="1"}`.
func histName(name, suffix, le string) string {
	base := baseName(name)
	labels := name[len(base):]
	if le == "" {
		return base + suffix + labels
	}
	if labels == "" {
		return fmt.Sprintf("%s%s{le=%q}", base, suffix, le)
	}
	return fmt.Sprintf("%s%s{%s,le=%q}", base, suffix, labels[1:len(labels)-1], le)
}

// WritePrometheus writes the snapshot in Prometheus text exposition format
// (version 0.0.4). Series sharing a base name (fixed label sets) are
// grouped under one # HELP/# TYPE header. The snapshot is re-sorted by
// (base name, full name): plain name-order interleaves families — '{'
// sorts after '_', so `x_total` lands between `x` and `x{...}` — and the
// format forbids both the resulting split family and its repeated headers.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	sort.SliceStable(snap, func(i, j int) bool {
		bi, bj := baseName(snap[i].Name), baseName(snap[j].Name)
		if bi != bj {
			return bi < bj
		}
		return snap[i].Name < snap[j].Name
	})
	// One header per family, preferring the first non-empty help text.
	help := map[string]string{}
	for _, s := range snap {
		base := baseName(s.Name)
		if s.Help != "" && help[base] == "" {
			help[base] = s.Help
		}
	}
	prevBase := ""
	for _, s := range snap {
		base := baseName(s.Name)
		if base != prevBase {
			if h := help[base]; h != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", base, helpEscaper.Replace(h)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", base, s.Kind); err != nil {
				return err
			}
			prevBase = base
		}
		if s.Kind == KindHistogram {
			for _, b := range s.Buckets {
				if _, err := fmt.Fprintf(w, "%s %d\n", histName(s.Name, "_bucket", promFloat(b.Le)), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s %s\n%s %d\n",
				histName(s.Name, "_sum", ""), promFloat(s.Sum),
				histName(s.Name, "_count", ""), s.Count); err != nil {
				return err
			}
			continue
		}
		if _, err := fmt.Fprintf(w, "%s %s\n", s.Name, promFloat(s.Value)); err != nil {
			return err
		}
	}
	return nil
}
