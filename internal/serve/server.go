package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"gevo/internal/fault"
	"gevo/internal/obs"
)

// Server exposes a Manager over REST with SSE progress streaming:
//
//	POST   /jobs             submit a JobSpec → JobStatus (dedup aware)
//	GET    /jobs             list jobs → []JobStatus
//	GET    /jobs/{id}        one job → JobStatus
//	DELETE /jobs/{id}        cancel → JobStatus
//	GET    /jobs/{id}/result finished artifact → JobResult (409 until done)
//	GET    /jobs/{id}/costs  cost account → JobCosts (live while running)
//	GET    /jobs/{id}/diag   diagnosis → DiagDoc (stats, operator table, kernel report)
//	GET    /jobs/{id}/events SSE stream of Events (status replay, then live)
//	GET    /metrics          Prometheus text exposition of the manager registry
//	GET    /debug/trace      event journal (?format=jsonl for JSONL, Chrome trace otherwise)
//	GET    /debug/pprof/     runtime profiles (only when ServerOptions.EnablePprof)
//	GET    /healthz          liveness
type Server struct {
	m    *Manager
	mux  *http.ServeMux
	opts ServerOptions
	// inFlight gauges requests currently inside the handler stack.
	inFlight *obs.Gauge
}

// ServerOptions tunes the HTTP surface.
type ServerOptions struct {
	// EnablePprof mounts net/http/pprof under /debug/pprof/. Off by
	// default: profiles expose internals and cost CPU to collect, so the
	// operator opts in per process.
	EnablePprof bool
	// KeepAlive is the idle interval after which an SSE stream emits a
	// ": ping" comment frame so proxies and clients do not time out a
	// quiet stream. Zero means DefaultKeepAlive; negative disables.
	KeepAlive time.Duration
	// Inject arms the HTTP failure domain: each request consults the
	// injector's http.request site before routing, and a scheduled fault
	// answers 503 instead — the client sees exactly the transient server
	// error its retry policy exists for. Nil (the default) costs one pointer
	// compare per request.
	Inject *fault.Injector
}

// DefaultKeepAlive is the SSE comment-frame interval when
// ServerOptions.KeepAlive is zero — short enough for common proxy idle
// timeouts (typically 30–60s), long enough to be negligible traffic.
const DefaultKeepAlive = 15 * time.Second

// NewServer wraps a manager in the REST/SSE API with default options.
func NewServer(m *Manager) *Server { return NewServerWith(m, ServerOptions{}) }

// NewServerWith wraps a manager in the REST/SSE API.
func NewServerWith(m *Manager, opts ServerOptions) *Server {
	if opts.KeepAlive == 0 {
		opts.KeepAlive = DefaultKeepAlive
	}
	s := &Server{m: m, mux: http.NewServeMux(), opts: opts}
	s.inFlight = m.Metrics().Gauge("gevo_http_in_flight", "HTTP requests currently being served.")
	s.mux.HandleFunc("POST /jobs", s.submit)
	s.mux.HandleFunc("GET /jobs", s.list)
	s.mux.HandleFunc("GET /jobs/{id}", s.get)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.cancel)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.result)
	s.mux.HandleFunc("GET /jobs/{id}/costs", s.costs)
	s.mux.HandleFunc("GET /jobs/{id}/diag", s.diag)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.events)
	s.mux.HandleFunc("GET /metrics", s.metrics)
	s.mux.HandleFunc("GET /debug/trace", s.trace)
	if opts.EnablePprof {
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	s.mux.HandleFunc("GET /healthz", s.healthz)
	return s
}

// healthz reports liveness plus the degraded-mode state machine. The code
// stays 200 either way — degraded means "running with failing durable
// writes", and restarting such a process (what a failing healthz usually
// triggers) would only lose the in-memory retry queue.
func (s *Server) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.Health())
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if f := s.opts.Inject.Hit(fault.SiteHTTPRequest); f.Kind != "" {
		writeError(w, http.StatusServiceUnavailable, f.Err)
		return
	}
	s.observe(w, r)
}

// apiError is the uniform error body.
type apiError struct {
	Error string `json:"error"`
}

// writeJSON sends v as one line of compact JSON with its Content-Length.
// The body is encoded before the status is committed, so a value that
// cannot be encoded (a NaN or ±Inf float) answers 500 with an apiError
// rather than the intended status with an empty body.
func writeJSON(w http.ResponseWriter, code int, v any) {
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		code = http.StatusInternalServerError
		body.Reset()
		_ = json.NewEncoder(&body).Encode(apiError{Error: fmt.Sprintf("encode response: %v", err)})
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(body.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(body.Bytes())
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, apiError{Error: err.Error()})
}

// maxSpecBytes bounds a submitted JobSpec body. A real spec is a few
// hundred bytes; the bound keeps a client from making the server allocate
// whatever it sends.
const maxSpecBytes = 1 << 20

func (s *Server) submit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("parse job spec: %w", err))
		return
	}
	// The request span (middleware-started, traceparent-adopting) parents
	// the job's root span, so one trace links submit to slices to evals.
	parent, _ := obs.SpanFromContext(r.Context())
	st, err := s.m.SubmitTraced(spec, parent)
	if err != nil {
		var over *OverloadedError
		if errors.As(err, &over) {
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	code := http.StatusAccepted
	if st.State == StateDone {
		code = http.StatusOK
	}
	writeJSON(w, code, st)
}

func (s *Server) list(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.m.List())
}

func (s *Server) get(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) cancel(w http.ResponseWriter, r *http.Request) {
	st, err := s.m.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) result(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	if st.State != StateDone || st.Result == nil {
		writeError(w, http.StatusConflict, fmt.Errorf("job %q is %s, result available once done", id, st.State))
		return
	}
	// Serve a copy with the cost account attached. The stored document never
	// carries costs (see JobResult.Costs); attaching here keeps the API rich
	// without breaking the persisted artifact's byte-identity invariant.
	res := *st.Result
	res.Costs, _ = s.m.Costs(id)
	writeJSON(w, http.StatusOK, &res)
}

// costs serves a job's cost-account document: evaluation work charged to
// the job so far, plus the trace identity tying it to /debug/trace spans.
func (s *Server) costs(w http.ResponseWriter, r *http.Request) {
	doc, err := s.m.Costs(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// diag serves the per-candidate diagnosis document: search-health stats,
// the per-operator contribution table, and a kernel report for the
// ring-best genome.
func (s *Server) diag(w http.ResponseWriter, r *http.Request) {
	doc, err := s.m.Diag(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// events streams a job's progress as server-sent events. The current
// status is replayed first (type "status", or the terminal type if the job
// already ended), so a late subscriber is consistent without a separate
// poll; the stream closes after a terminal event.
func (s *Server) events(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	st, ok := s.m.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("response writer cannot stream"))
		return
	}
	// Subscribe before the replay snapshot so no event between snapshot and
	// stream start is lost (duplicates are fine, gaps are not).
	ch, cancel := s.m.Subscribe(id)
	defer cancel()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	st, _ = s.m.Get(id)
	typ := "status"
	if st.State.Terminal() {
		typ = string(st.State)
	}
	writeSSE(w, Event{Type: typ, Job: st, Trace: st.Trace, Span: s.m.RootSpan(id)})
	fl.Flush()
	if st.State.Terminal() {
		return
	}
	// Keep-alive: a comment frame on idle streams so proxies and client
	// read deadlines don't kill a stream that is quiet because the search
	// slice is long, not because the server is gone. SSE clients ignore
	// comment lines by spec.
	var keepAlive <-chan time.Time
	if s.opts.KeepAlive > 0 {
		t := time.NewTicker(s.opts.KeepAlive)
		defer t.Stop()
		keepAlive = t.C
	}
	for {
		select {
		case <-r.Context().Done():
			return
		case <-keepAlive:
			fmt.Fprint(w, ": ping\n\n")
			fl.Flush()
		case ev, ok := <-ch:
			if !ok {
				// Lagged out or manager shutdown: end the stream; clients
				// re-sync via the status endpoint.
				return
			}
			writeSSE(w, ev)
			fl.Flush()
			if ev.Type != "progress" && ev.Type != "status" {
				return
			}
		}
	}
}

// writeSSE emits one event in text/event-stream framing.
func writeSSE(w http.ResponseWriter, ev Event) {
	blob, err := json.Marshal(ev)
	if err != nil {
		return
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, blob)
}

// metrics serves the manager's registry in Prometheus text exposition
// format (version 0.0.4) for scrapers; no client library involved.
func (s *Server) metrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_ = s.m.Metrics().WritePrometheus(w)
}

// trace serves the flight-recorder journal: Chrome trace_event JSON by
// default (load in Perfetto / chrome://tracing), JSONL with ?format=jsonl.
func (s *Server) trace(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "jsonl" {
		w.Header().Set("Content-Type", "application/jsonl")
		w.WriteHeader(http.StatusOK)
		_ = s.m.Trace().WriteJSONL(w)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_ = s.m.Trace().WriteChromeTrace(w)
}
