package serve

import (
	"fmt"
	"math"
	"os"
	"slices"
	"sync"
	"time"

	"gevo/internal/core"
	"gevo/internal/fault"
	"gevo/internal/gpu"
	"gevo/internal/island"
	"gevo/internal/obs"
	"gevo/internal/workload"
)

// Options configures a Manager.
type Options struct {
	// Dir is the durable state directory (ledger, per-job checkpoints and
	// results). Empty runs the manager in memory only — jobs do not survive
	// a restart.
	Dir string
	// Workers bounds concurrent fitness evaluations across every job
	// (0 = GOMAXPROCS). All jobs share one core.EvalPool's worker budget;
	// fitness entries are shared within a job's ring (a program two demes
	// breed simulates once per architecture) and released when the job
	// finishes.
	Workers int
	// Executors is the number of scheduler goroutines, i.e. how many jobs
	// advance a slice concurrently (default 2). Parallelism inside a slice
	// comes from the pool; executors only control inter-job overlap.
	Executors int
	// CacheSize caps the retained terminal job records (default 64); past
	// it, the least recently submitted are pruned. A retained done job
	// answers a resubmission of its spec without running; a pruned one
	// re-runs to the identical result.
	CacheSize int
	// Workloads overrides how job workload names become instances
	// (nil = workload.ByName, the standard registry). Embedders use it to
	// serve custom datasets; tests use it to serve small ones. Names must
	// still come from workload.Names — the spec validator checks against
	// the registry either way. Each job builds its own instance when its
	// search opens and drops it when the job ends.
	Workloads func(name string) (workload.Workload, error)
	// Registry receives the manager's metrics (nil = obs.Default). The
	// process-global gpu instruments live in obs.Default either way, so
	// the default gives /metrics the complete picture.
	Registry *obs.Registry
	// MaxActiveJobs bounds queued+running jobs (0 = unlimited). A
	// submission that would create a new job beyond the bound is shed with
	// an *OverloadedError (the HTTP layer answers 429 + Retry-After);
	// submissions that attach to an existing job record are always
	// admitted — they cost nothing to serve.
	MaxActiveJobs int
	// Inject is the fault injector wired through the manager's failure
	// domains: the shared eval pool's dispatch site and every step of the
	// persistence shim (nil = injection off, the production default).
	Inject *fault.Injector
	// PostmortemPath, when non-empty, arms the crash postmortem: a panic in
	// a manager-owned goroutine (executor, persister) writes the flight
	// recorder journal and a metrics snapshot there as one JSON document
	// before re-raising. Empty disables the guard (panics propagate bare).
	PostmortemPath string
}

func (o *Options) fill() {
	if o.Executors <= 0 {
		o.Executors = 2
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 64
	}
	if o.Workloads == nil {
		o.Workloads = workload.ByName
	}
}

// Manager orchestrates many concurrent optimization searches in one
// process. Jobs are content-addressed (identical specs coalesce into one
// search; a retained finished job answers its spec), scheduled fair-share
// — each executor claims the next runnable job round-robin and advances it
// by exactly one migration round before requeueing it — and durable, for
// what recovery reads (DESIGN §6): a checkpoint after every slice but the
// last, a done job's result before its state flips, and the ledger when a
// job is created, requeued or ends. A kill -9 at any instant loses at most
// the slice since the last checkpoint, which the restarted manager re-runs
// to a bit-identical result.
type Manager struct {
	opts Options
	pool *core.EvalPool
	hub  *hub

	// Observability: the metrics registry, the flight-recorder collector
	// (every job's search emits deterministic trace events into it, tagged
	// with the job ID), and the manager's own instruments. None of these
	// influence scheduling or results.
	reg             *obs.Registry
	col             *obs.Collector
	slicesTotal     *obs.Counter
	submitsTotal    *obs.Counter
	dedupTotal      *obs.Counter
	eventsPublished *obs.Counter
	ledgerWrites    *obs.Counter
	ledgerSeconds   *obs.Histogram
	ledgerErrors    *obs.Counter
	persistRetries  *obs.Counter
	shedTotal       *obs.Counter
	ckptCorrupt     *obs.Counter

	// fs is the persistence shim every durable write goes through; its
	// injector is nil in production. Read-only after Open.
	fs fsio

	healthMu sync.Mutex
	// degraded marks the persister in degraded mode — durable writes are
	// failing and being retried; guarded by healthMu.
	degraded bool
	// degradedReason is the newest persist error while degraded; guarded
	// by healthMu.
	degradedReason string

	mu sync.Mutex
	// jobs is the job table, and with it the result cache: a retained done
	// job answers its spec; guarded by mu.
	jobs map[string]*job
	// order is submission order, the round-robin ring; guarded by mu.
	order []string
	// cursor is the ring position of the next slice; guarded by mu.
	cursor int
	// submitSeq numbers submissions, so pruning can tell which terminal
	// record was submitted least recently; guarded by mu.
	submitSeq uint64
	// closed marks a shut-down manager; guarded by mu.
	closed bool
	// pendingRemove queues pruned jobs' state directories for deletion by
	// the persister (disk work never happens under mu); guarded by mu.
	pendingRemove []string

	wake  chan struct{}
	stopc chan struct{}
	wg    sync.WaitGroup

	// The persister goroutine owns all ledger writes: mutations mark dirty
	// (coalescing bursts) and the persister snapshots the job table under
	// mu but marshals, fsyncs and prunes directories outside it, so the
	// scheduler never blocks on disk latency. Ordering is trivial — one
	// writer, each write a fresh snapshot.
	dirty         chan struct{}
	persistStop   chan struct{}
	persisterDone chan struct{}
	// settlec carries settle's requests to the persister.
	settlec chan chan struct{}
}

// Open creates a manager and starts its executors. With a state directory,
// the ledger is loaded first and every job found queued or running is
// requeued to resume from its latest checkpoint.
func Open(opts Options) (*Manager, error) {
	opts.fill()
	m := &Manager{
		opts:  opts,
		pool:  core.NewEvalPool(opts.Workers),
		hub:   newHub(),
		jobs:  make(map[string]*job),
		wake:  make(chan struct{}, 1),
		stopc: make(chan struct{}),
		fs:    fsio{inj: opts.Inject},
	}
	m.pool.SetInjector(opts.Inject)
	m.initObs()
	m.pool.AttachSink(m.col)
	if opts.Dir != "" {
		if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
			return nil, err
		}
		if err := m.recover(); err != nil {
			return nil, err
		}
		m.dirty = make(chan struct{}, 1)
		m.persistStop = make(chan struct{})
		m.persisterDone = make(chan struct{})
		m.settlec = make(chan chan struct{})
		go m.persister()
	}
	m.wg.Add(opts.Executors)
	for i := 0; i < opts.Executors; i++ {
		go m.executor()
	}
	m.wakeup()
	return m, nil
}

// initObs wires the manager's observability: registry, flight recorder,
// own instruments, and attachments for the shared pool's gauges and the
// jobs-by-state levels. Attachments use closures (last registration wins
// in obs), so a test process opening several managers simply hands the
// standard names to the newest one.
func (m *Manager) initObs() {
	m.reg = m.opts.Registry
	if m.reg == nil {
		m.reg = obs.Default
	}
	m.col = obs.NewCollector(m.reg, obs.DefaultJournalBytes)
	m.slicesTotal = m.reg.Counter("gevo_serve_slices_total", "Scheduler slices executed (one migration round each).")
	m.submitsTotal = m.reg.Counter("gevo_serve_submits_total", "Job submissions accepted (including coalesced).")
	m.dedupTotal = m.reg.Counter("gevo_serve_dedup_hits_total", "Submissions attached to an existing job record (single-flight, or a retained finished job).")
	m.eventsPublished = m.reg.Counter("gevo_serve_events_published_total", "Progress/terminal events published to SSE subscribers.")
	m.ledgerWrites = m.reg.Counter("gevo_serve_ledger_writes_total", "Ledger snapshots written by the persister.")
	m.ledgerSeconds = m.reg.Histogram("gevo_serve_ledger_write_seconds", "Wall time of one durable ledger write.", nil)
	m.ledgerErrors = m.reg.Counter("gevo_ledger_errors_total", "Durable write failures (ledger and result documents); each is retried with capped backoff.")
	m.persistRetries = m.reg.Counter("gevo_serve_persist_retries_total", "Durable write retry attempts.")
	m.shedTotal = m.reg.Counter("gevo_serve_shed_total", "Submissions shed by admission control (max active jobs).")
	m.ckptCorrupt = m.reg.Counter("gevo_serve_checkpoint_corrupt_total", "Corrupt checkpoints quarantined aside at search open.")
	m.reg.GaugeFunc("gevo_serve_degraded", "1 while the persister is in degraded mode (durable writes failing), else 0.",
		func() float64 {
			m.healthMu.Lock()
			defer m.healthMu.Unlock()
			if m.degraded {
				return 1
			}
			return 0
		})
	m.opts.Inject.Register(m.reg)
	m.reg.GaugeFunc("gevo_serve_executors", "Configured slice concurrency.",
		func() float64 { return float64(m.opts.Executors) })
	m.reg.RegisterBuildInfo()
	// Search-health aggregates over live (non-terminal) jobs' latest deme
	// stats: how stagnant the most-stuck search is, and how collapsed the
	// least diverse population is. Both read the per-slice snapshots under
	// mu; neither touches the searches themselves.
	m.reg.GaugeFunc("gevo_serve_search_plateau_max",
		"Longest best-ever plateau (generations without improvement) across live searches' demes.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			max := 0.0
			for _, j := range m.jobs {
				if j.state.Terminal() {
					continue
				}
				for _, s := range j.stats {
					if p := float64(s.Plateau); p > max {
						max = p
					}
				}
			}
			return max
		})
	m.reg.GaugeFunc("gevo_serve_search_diversity_min",
		"Lowest population genome diversity (distinct/pop) across live searches' demes; 1 when no live search has reported.",
		func() float64 {
			m.mu.Lock()
			defer m.mu.Unlock()
			min := 1.0
			for _, j := range m.jobs {
				if j.state.Terminal() {
					continue
				}
				for _, s := range j.stats {
					if s.Diversity > 0 && s.Diversity < min {
						min = s.Diversity
					}
				}
			}
			return min
		})
	for _, st := range []State{StateQueued, StateRunning, StateDone, StateFailed, StateCancelled} {
		st := st
		m.reg.GaugeFunc(obs.Labels("gevo_serve_jobs", "state", string(st)), "Jobs by lifecycle state.",
			func() float64 {
				m.mu.Lock()
				defer m.mu.Unlock()
				n := 0
				for _, j := range m.jobs {
					if j.state == st {
						n++
					}
				}
				return float64(n)
			})
	}
	m.pool.Register(m.reg)
	// Compile spans are emitted through the gpu package-global sink (the
	// process-wide program cache cannot carry per-manager sinks); the
	// newest manager claims it, same as the func-instrument registrations
	// above. Without this the compile leg of a job's trace never reaches
	// /debug/trace.
	gpu.SetSink(m.col)
}

// crashGuard returns the deferred recover hook for manager-owned
// goroutines: a no-op without Options.PostmortemPath, otherwise the
// postmortem writer (dump journal + metrics, then re-raise).
func (m *Manager) crashGuard() func() {
	if m.opts.PostmortemPath == "" {
		return func() {}
	}
	return obs.CrashGuard(m.opts.PostmortemPath, m.reg, m.col)
}

// beginJobSpan starts (or restarts) a job's root span under parent — the
// submitter's traceparent for new jobs, the job's own recorded trace for
// requeues and restarts (invalid parent mints a fresh trace).
func (m *Manager) beginJobSpan(j *job, parent obs.SpanContext) {
	sp := obs.StartSpanFrom(parent, m.col, "job", obs.A("job", j.id))
	j.rootSpan = sp
	j.root = sp.Context()
	j.trace = j.root.TraceID
}

// endJobSpan closes the job's root span at a terminal transition.
func (j *job) endJobSpan(state State) {
	if j.rootSpan != nil {
		j.rootSpan.End(obs.A("state", string(state)))
		j.rootSpan = nil
	}
}

// Metrics returns the manager's registry (the /metrics surface).
func (m *Manager) Metrics() *obs.Registry { return m.reg }

// Trace returns the manager's flight recorder.
func (m *Manager) Trace() *obs.Collector { return m.col }

// jobEvent journals one job lifecycle transition.
func (m *Manager) jobEvent(id string, state State) {
	m.col.Emit(obs.Event{Type: "job.state", Attrs: []obs.Attr{
		obs.A("job", id), obs.A("state", string(state)),
	}})
}

// publish counts and forwards one event to the SSE hub.
func (m *Manager) publish(ev Event) {
	m.eventsPublished.Inc()
	m.hub.publish(ev)
}

// recover rebuilds the job table from the ledger. Jobs interrupted by the
// crash (queued or running) return to queued; their searches restore from
// checkpoints when next claimed. Done jobs reload their results; a done job
// whose result file is unreadable is requeued like an interrupted one and
// recomputed (deterministic, so the replacement is identical).
func (m *Manager) recover() error {
	jobs, err := loadLedger(m.opts.Dir)
	if err != nil {
		return err
	}
	// Open calls recover before any executor or persister goroutine exists,
	// but the table invariants are simplest stated unconditionally: all
	// access under mu.
	m.mu.Lock()
	defer m.mu.Unlock()
	for _, lj := range jobs {
		m.submitSeq++
		j := &job{
			id: lj.ID, key: lj.Key, spec: lj.Spec,
			state: lj.State, gen: lj.Gen, bestDeme: -1,
			submits: lj.Submits, lastSubmit: m.submitSeq, errMsg: lj.Error,
			submittedMs: lj.SubmittedUnixMs, startedMs: lj.StartedUnixMs, doneMs: lj.DoneUnixMs,
			cost: new(core.Cost), trace: lj.Trace,
		}
		switch lj.State {
		case StateDone:
			if res, err := loadResult(m.opts.Dir, lj.ID); err == nil {
				j.result = res
				j.bestSpeedup, j.bestDeme, j.migrations = res.Speedup, res.BestDeme, res.Migrations
				break
			}
			// An unreadable result is recomputed like an interrupted job.
			j.gen, j.doneMs = 0, 0
			fallthrough
		case StateQueued, StateRunning:
			j.state = StateQueued
			j.startedMs = 0
			// Resume the job's trace across the restart: a new root span is
			// begun (the old process's never ended in this journal), but it
			// keeps the ledger-recorded trace ID, so the submit-to-result
			// causal chain stays one trace.
			m.beginJobSpan(j, obs.SpanContext{TraceID: j.trace})
		}
		m.jobs[j.id] = j
		m.order = append(m.order, j.id)
	}
	return nil
}

// wakeup nudges one idle executor (non-blocking; the signal is level, not
// counted — executors rescan the ring whenever they wake).
func (m *Manager) wakeup() {
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// OverloadedError is Submit's admission-control rejection: the manager is
// at its configured max active jobs and the spec matched no job record.
// The HTTP layer maps it to 429 + Retry-After; submissions are
// content-addressed, so a client retry is idempotent.
type OverloadedError struct {
	Active, Max int
}

func (e *OverloadedError) Error() string {
	return fmt.Sprintf("serve: at max active jobs (%d/%d), retry later", e.Active, e.Max)
}

// Submit registers a job for the spec, returning its status. Identical
// specs coalesce: while a job for the same content key is queued or
// running, the submission attaches to it (single-flight); once done, the
// status carries the finished result; a failed or cancelled job is
// requeued and resumes from its checkpoint. Every attachment refreshes the
// record's recency, so the records pruning drops are the least recently
// submitted; a spec whose record was pruned runs again, to the identical
// result.
func (m *Manager) Submit(spec JobSpec) (JobStatus, error) {
	return m.SubmitTraced(spec, obs.SpanContext{})
}

// SubmitTraced is Submit with the submitter's span context (the parsed
// traceparent of the HTTP request): a new job's root span — and therefore
// every slice, evaluation and compile span beneath it — joins the caller's
// trace. An invalid parent (the zero SpanContext) mints a fresh trace.
// Coalesced submissions keep the existing job's trace; the caller's own
// request span still links through the returned JobStatus.Trace.
func (m *Manager) SubmitTraced(spec JobSpec, parent obs.SpanContext) (JobStatus, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return JobStatus{}, err
	}
	key := spec.Key()
	id := jobID(key)

	m.submitsTotal.Inc()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return JobStatus{}, fmt.Errorf("serve: manager is closed")
	}
	m.submitSeq++
	if j, ok := m.jobs[id]; ok {
		j.submits++
		j.lastSubmit = m.submitSeq
		m.dedupTotal.Inc()
		if j.state == StateFailed || j.state == StateCancelled {
			j.state = StateQueued
			j.errMsg = ""
			j.cancelWanted = false
			j.doneMs = 0
			// Requeue keeps the job's trace (the retry is the same logical
			// work) but needs a fresh root span — the old one ended with the
			// terminal state.
			if j.rootSpan == nil {
				m.beginJobSpan(j, obs.SpanContext{TraceID: j.trace})
			}
			m.jobEvent(id, StateQueued)
			m.persistLocked()
			m.wakeup()
		}
		return j.status(), nil
	}
	// Admission control: only the creation of a new job is bounded —
	// attachments above are always admitted.
	if m.opts.MaxActiveJobs > 0 {
		active := 0
		for _, j := range m.jobs {
			if !j.state.Terminal() {
				active++
			}
		}
		if active >= m.opts.MaxActiveJobs {
			m.shedTotal.Inc()
			return JobStatus{}, &OverloadedError{Active: active, Max: m.opts.MaxActiveJobs}
		}
	}
	j := &job{
		id: id, key: key, spec: spec,
		state: StateQueued, bestDeme: -1, submits: 1, lastSubmit: m.submitSeq,
		submittedMs: time.Now().UnixMilli(), cost: new(core.Cost),
	}
	m.beginJobSpan(j, parent)
	m.jobs[id] = j
	m.order = append(m.order, id)
	m.jobEvent(id, StateQueued)
	m.persistLocked()
	m.wakeup()
	return j.status(), nil
}

// Get returns a job's status.
func (m *Manager) Get(id string) (JobStatus, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return JobStatus{}, false
	}
	return j.status(), true
}

// RootSpan returns the ID of a job's root span ("" for unknown jobs), so
// the SSE replay snapshot can carry the same trace identity live progress
// events do.
func (m *Manager) RootSpan(id string) string {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return ""
	}
	return j.root.SpanID
}

// List returns every known job in submission order.
func (m *Manager) List() []JobStatus {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]JobStatus, 0, len(m.order))
	for _, id := range m.order {
		if j, ok := m.jobs[id]; ok {
			out = append(out, j.status())
		}
	}
	return out
}

// Costs returns a job's cost-account document: the evaluation work charged
// to it so far (live totals while running, final totals once terminal) plus
// its trace identity.
func (m *Manager) Costs(id string) (*JobCosts, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	if !ok {
		return nil, fmt.Errorf("serve: no job %q", id)
	}
	return j.costsDoc(), nil
}

// Cancel requests a job stop. A queued job cancels immediately; a job
// mid-slice finishes its current round first (cancellation is observed at
// slice boundaries, which is also what keeps its checkpoint resumable).
func (m *Manager) Cancel(id string) (JobStatus, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return JobStatus{}, fmt.Errorf("serve: no job %q", id)
	}
	if j.state.Terminal() {
		st := j.status()
		m.mu.Unlock()
		return st, nil
	}
	var ev *Event
	j.cancelWanted = true
	if !j.claimed {
		m.finalizeLocked(j, StateCancelled, "")
		e := Event{Type: string(StateCancelled), Job: j.status(), Trace: j.trace, Span: j.root.SpanID}
		ev = &e
	}
	st := j.status()
	m.mu.Unlock()
	if ev != nil {
		m.publish(*ev)
	}
	return st, nil
}

// Subscribe returns a channel of progress events for one job ("" = all
// jobs) plus a cancel function. The channel closes if the subscriber lags
// or the manager shuts down.
func (m *Manager) Subscribe(job string) (<-chan Event, func()) {
	s, cancel := m.hub.subscribe(job)
	return s.ch, cancel
}

// Close stops the executors (finishing any in-flight slices) and
// disconnects subscribers. Durable state needs no flush — everything
// recovery reads is already on disk; Close exists for tidiness, not
// correctness, which is the crash-safety invariant.
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.closed = true
	m.mu.Unlock()
	close(m.stopc)
	m.wg.Wait()
	if m.persistStop != nil {
		close(m.persistStop)
		<-m.persisterDone
	}
	m.hub.close()
}

// executor is one scheduler goroutine: claim the next runnable job in
// round-robin order, advance it one slice, repeat.
func (m *Manager) executor() {
	defer m.wg.Done()
	// The crash guard runs first on unwind (deferred last): it writes the
	// postmortem and re-panics, then wg.Done releases Close.
	defer m.crashGuard()()
	for {
		j := m.claimNext()
		if j == nil {
			select {
			case <-m.stopc:
				return
			case <-m.wake:
				continue
			}
		}
		m.runSlice(j)
	}
}

// claimNext picks the next unclaimed, runnable job after the round-robin
// cursor and marks it claimed. Fairness is positional: the cursor advances
// past each claim, so every runnable job gets a slice before any job gets
// two.
func (m *Manager) claimNext() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed || len(m.order) == 0 {
		return nil
	}
	for i := 0; i < len(m.order); i++ {
		idx := (m.cursor + i) % len(m.order)
		j, ok := m.jobs[m.order[idx]]
		if !ok || j.claimed || j.state.Terminal() || j.cancelWanted {
			continue
		}
		j.claimed = true
		if j.state == StateQueued {
			j.state = StateRunning
			if j.startedMs == 0 {
				j.startedMs = time.Now().UnixMilli()
			}
			m.jobEvent(j.id, StateRunning)
		}
		m.cursor = (idx + 1) % len(m.order)
		return j
	}
	return nil
}

// runSlice advances a claimed job by one migration round: build or restore
// the search if this is the job's first slice in this process, step,
// checkpoint, then publish progress — search-state durability strictly
// before visibility, so no progress a client observed can exceed what a
// crash-restart replays. The last slice writes no checkpoint: the result
// document supersedes it, and a crash before the result lands replays the
// slice.
func (m *Manager) runSlice(j *job) {
	defer m.wakeup()
	// serve.slice is the executor's own failure domain: a fault here fires
	// outside the pool's panic containment, so an injected panic escapes to
	// the executor's crash guard (the drivable postmortem path).
	if f := m.opts.Inject.Hit(fault.SiteServeSlice); f.Kind != "" {
		f.Fire()
		m.finalize(j, StateFailed, f.Err.Error(), nil)
		return
	}
	// The slice span parents every evaluation the slice requests: the job's
	// cost account carries it to the pool, which opens pool.eval children
	// under it (and gpu.compile spans under those). Wall time is charged to
	// the account on the way out, span set or not; the span ends with the
	// generation the slice reached.
	start := time.Now()
	sp := obs.StartSpanFrom(j.root, m.col, "slice", obs.A("job", j.id))
	if j.cost != nil {
		j.cost.SetSpan(sp.Context())
	}
	sliceDone := func(attrs ...obs.Attr) {
		if j.cost != nil {
			j.cost.AddSliceNs(time.Since(start).Nanoseconds())
			j.cost.SetSpan(obs.SpanContext{})
		}
		sp.End(attrs...)
	}
	if j.search == nil {
		if err := m.openSearch(j); err != nil {
			sliceDone()
			m.finalize(j, StateFailed, err.Error(), nil)
			return
		}
	}
	j.search.StepRound()
	m.slicesTotal.Inc()
	sliceDone(obs.AI("gen", int64(j.search.Generation())))
	done := j.search.Done()
	if m.opts.Dir != "" && !done {
		cp, err := j.search.Snapshot()
		if err == nil {
			err = cp.Save(checkpointPath(m.opts.Dir, j.id))
		}
		if err != nil {
			m.finalize(j, StateFailed, fmt.Sprintf("checkpoint: %v", err), nil)
			return
		}
	}
	if done {
		m.finalize(j, StateDone, "", m.buildResult(j))
		return
	}
	r := j.search.Result()
	points := genPoints(r, j.search.Generation(), j.lastEventGen)
	stats := j.search.DemeStats()

	m.mu.Lock()
	j.capture(r, stats)
	j.lastEventGen = r.Generations
	j.claimed = false
	var ev *Event
	if j.cancelWanted {
		m.finalizeLocked(j, StateCancelled, "")
		e := Event{Type: string(StateCancelled), Job: j.status(), Trace: j.trace, Span: j.root.SpanID}
		ev = &e
	} else {
		// The per-deme stats give SSE watchers search health without
		// polling /jobs/{id}/diag; pool load is on /metrics.
		e := Event{Type: "progress", Job: j.status(), Gens: points, Stats: stats,
			Trace: j.trace, Span: sp.Context().SpanID}
		ev = &e
	}
	m.mu.Unlock()
	m.publish(*ev)
}

// openSearch builds the job's workload instance and its island search: from
// the job's checkpoint when one exists (resume), from the spec otherwise.
// Both paths attach the manager's shared pool. The job owns the instance
// until it ends (finalizeLocked), so nothing outlives the search that
// measured on it.
//
// Checkpoint failure handling distinguishes the three load outcomes: a
// missing file is a fresh start (first slice ever); a checkpoint that
// fails to parse, carries the wrong version, or does not match its job is
// quarantined — renamed aside to checkpoint.json.corrupt, counted in
// gevo_serve_checkpoint_corrupt_total, noted on the job status — and the
// search restarts from the spec, which is loud where it used to be silent
// but equally deterministic: a restarted search replays to the exact same
// result.
func (m *Manager) openSearch(j *job) error {
	w, err := m.opts.Workloads(j.spec.Workload)
	if err != nil {
		return err
	}
	j.w = w
	if m.opts.Dir != "" {
		cpath := checkpointPath(m.opts.Dir, j.id)
		cp, err := island.Load(cpath)
		if err == nil {
			s, rerr := island.RestoreWithPool(w, cp, m.pool)
			if rerr == nil {
				s.AttachSink(obs.WithAttrs(m.col, obs.A("job", j.id)))
				s.AttachCost(j.cost)
				j.search = s
				// The ledger does not carry progress; the checkpoint does.
				m.mu.Lock()
				j.gen = s.Generation()
				j.lastEventGen = j.gen
				m.mu.Unlock()
				return nil
			}
			err = rerr
		}
		if err != nil && !os.IsNotExist(err) {
			m.quarantineCheckpoint(j, cpath, err)
		}
	}
	cfg, err := j.spec.islandConfig(m.pool)
	if err != nil {
		return err
	}
	s, err := island.New(w, cfg)
	if err != nil {
		return err
	}
	s.AttachSink(obs.WithAttrs(m.col, obs.A("job", j.id)))
	s.AttachCost(j.cost)
	j.search = s
	return nil
}

// quarantineCheckpoint moves an unusable checkpoint aside and records the
// event, so corruption is investigable (the bytes survive) and visible
// (metric, trace event, job warning) instead of silently erased by the
// fresh search's first checkpoint write.
func (m *Manager) quarantineCheckpoint(j *job, cpath string, cause error) {
	_ = os.Rename(cpath, cpath+".corrupt")
	m.ckptCorrupt.Inc()
	m.col.Emit(obs.Event{Type: "job.checkpoint_corrupt", Attrs: []obs.Attr{
		obs.A("job", j.id), obs.A("cause", cause.Error()),
	}})
	m.mu.Lock()
	j.warnings = append(j.warnings,
		fmt.Sprintf("checkpoint unusable (%v); quarantined to checkpoint.json.corrupt, search restarted from generation 0", cause))
	m.mu.Unlock()
}

// buildResult summarizes a finished search, including the CLI-equivalent
// held-out validation of the winning genome.
func (m *Manager) buildResult(j *job) *JobResult {
	r := j.search.Result()
	bestArch := r.Demes[r.BestDeme].Arch
	res := &JobResult{
		Workload:    j.spec.Workload,
		Demes:       j.spec.Demes,
		Pop:         j.spec.Pop,
		Generations: r.Generations,
		Seed:        j.spec.Seed,
		BestDeme:    r.BestDeme,
		BestArch:    bestArch,
		BaseMs:      r.BaseFitness,
		BestMs:      r.Best.Fitness,
		Speedup:     r.Speedup,
		Migrations:  r.Migrations,
		GenomeEdits: len(r.Best.Genome),
	}
	for _, e := range r.Best.Genome {
		res.Genome = append(res.Genome, e.String())
	}
	for _, l := range r.Demes[r.BestDeme].Result.History.Lineage {
		res.Lineage = append(res.Lineage, LineageLine{
			Gen: l.Gen, Op: l.Op, Kind: l.Kind, Site: l.Site, Parent: l.Parent,
			BestMs: l.BestMs, DeltaMs: l.DeltaMs, Speedup: l.Speedup, Edits: l.Edits,
		})
	}
	res.Validated = j.w.Validate(core.Variant(j.w.Base(), r.Best.Genome), gpu.ArchByName(bestArch)) == nil
	return res
}

// finalize moves a claimed job to a terminal state and publishes the
// terminal event. Done results are persisted before the state flips and the
// ledger follows, so a crash before that write leaves a queued job whose
// resume replays the last slice to the identical result.
func (m *Manager) finalize(j *job, state State, errMsg string, res *JobResult) {
	if state == StateDone && m.opts.Dir != "" {
		if err := m.saveResultRetry(j.id, res); err != nil {
			state, errMsg, res = StateFailed, fmt.Sprintf("persist result: %v", err), nil
		}
	}
	m.mu.Lock()
	if j.search != nil {
		// Keep the final search-health snapshot and winning genome past
		// the search's release, so /jobs/{id}/diag stays answerable for a
		// finished job's lifetime in this process.
		j.capture(j.search.Result(), j.search.DemeStats())
	}
	j.result = res
	if res != nil {
		j.bestSpeedup, j.bestDeme = res.Speedup, res.BestDeme
	}
	m.finalizeLocked(j, state, errMsg)
	ev := Event{Type: string(state), Job: j.status(), Trace: j.trace, Span: j.root.SpanID}
	m.mu.Unlock()
	m.publish(ev)
}

// finalizeLocked is the lock-held core of finalize: state flip, unclaim,
// release of the search, its workload instance and the pool's tables for
// it, prune, persist.
func (m *Manager) finalizeLocked(j *job, state State, errMsg string) {
	j.state = state
	j.errMsg = errMsg
	j.endJobSpan(state)
	m.jobEvent(j.id, state)
	j.claimed = false
	j.cancelWanted = false
	j.doneMs = time.Now().UnixMilli()
	j.search = nil
	if j.w != nil {
		m.pool.Release(j.w)
		j.w = nil
	}
	m.pruneLocked()
	m.persistLocked()
}

// pruneLocked caps retained terminal job records at the cache size,
// dropping the least recently submitted. A pruned spec's next submission
// runs it again.
func (m *Manager) pruneLocked() {
	var seqs []uint64
	for _, j := range m.jobs {
		if j.state.Terminal() {
			seqs = append(seqs, j.lastSubmit)
		}
	}
	excess := len(seqs) - m.opts.CacheSize
	if excess <= 0 {
		return
	}
	// Submission numbers are unique, so exactly excess records are at or
	// below the cut.
	slices.Sort(seqs)
	cut := seqs[excess-1]
	kept := m.order[:0]
	for _, id := range m.order {
		j := m.jobs[id]
		if j != nil && j.state.Terminal() && j.lastSubmit <= cut {
			delete(m.jobs, id)
			if m.opts.Dir != "" {
				m.pendingRemove = append(m.pendingRemove, id)
			}
			continue
		}
		kept = append(kept, id)
	}
	m.order = kept
	if len(m.order) > 0 {
		m.cursor %= len(m.order)
	} else {
		m.cursor = 0
	}
}

// Health is the manager's failure-domain summary: "ok", or "degraded"
// while durable writes are failing and being retried. Degradation is a
// report, not a stop — jobs keep running, checkpoints keep the search
// resumable, and the state heals to ok on the next successful write.
type Health struct {
	Status string `json:"status"`
	Reason string `json:"reason,omitempty"`
	// Build identifies the running binary (version/commit and toolchain),
	// so an operator can tell which build answered /healthz.
	Build obs.BuildInfo `json:"build"`
}

// Health samples the degraded-mode state machine.
func (m *Manager) Health() Health {
	m.healthMu.Lock()
	defer m.healthMu.Unlock()
	if m.degraded {
		return Health{Status: "degraded", Reason: m.degradedReason, Build: obs.Build()}
	}
	return Health{Status: "ok", Build: obs.Build()}
}

// setDegraded flips the manager into (or refreshes) degraded mode after a
// durable write failure.
func (m *Manager) setDegraded(err error) {
	m.healthMu.Lock()
	was := m.degraded
	m.degraded = true
	m.degradedReason = err.Error()
	m.healthMu.Unlock()
	if !was {
		m.col.Emit(obs.Event{Type: "serve.degraded", Attrs: []obs.Attr{obs.A("reason", err.Error())}})
	}
}

// clearDegraded returns the manager to ok after a successful durable write.
func (m *Manager) clearDegraded() {
	m.healthMu.Lock()
	was := m.degraded
	m.degraded = false
	m.degradedReason = ""
	m.healthMu.Unlock()
	if was {
		m.col.Emit(obs.Event{Type: "serve.recovered"})
	}
}

// persistBackoff is the deterministic capped backoff between durable-write
// retries: 5ms doubling to a 250ms cap, a fixed function of the attempt
// number — no jitter, so a fault schedule replays identically. The shift is
// clamped before it is taken: the persister retries a ledger write without
// bound, and an unclamped shift overflows from attempt 41 on.
func persistBackoff(attempt int) time.Duration {
	return min(5*time.Millisecond<<min(attempt, 6), 250*time.Millisecond)
}

// resultWriteAttempts bounds the synchronous retry of a result-document
// write before the failure is surfaced (the persister's ledger retry, by
// contrast, never gives up — each attempt writes the then-current table).
const resultWriteAttempts = 5

// saveResultRetry writes a result document with capped deterministic
// backoff, tracking the degraded-mode state machine: failures flip the
// manager degraded, success clears it.
func (m *Manager) saveResultRetry(id string, res *JobResult) error {
	var err error
	for attempt := 0; attempt < resultWriteAttempts; attempt++ {
		if attempt > 0 {
			m.persistRetries.Inc()
			time.Sleep(persistBackoff(attempt - 1))
		}
		if err = saveResult(m.fs, m.opts.Dir, id, res); err == nil {
			m.clearDegraded()
			return nil
		}
		m.ledgerErrors.Inc()
		m.setDegraded(err)
	}
	return err
}

// persistLocked marks the ledger dirty (no-op without a state directory);
// the persister goroutine performs the actual write. Only what recovery
// reads calls it — creation, requeue, terminal states; a resubmit's count,
// running and progress ride along with the next write. Mutations are
// durable within one persister round trip of happening, not synchronously
// — the crash-resume invariant never depends on the ledger being fresher
// than the checkpoints, which the executor that owns the slice writes.
func (m *Manager) persistLocked() {
	if m.dirty == nil {
		return
	}
	select {
	case m.dirty <- struct{}{}:
	default:
	}
}

// persister serializes all ledger writes and pruned-directory removals.
// A failed write flips the manager into degraded mode and is retried with
// capped deterministic backoff until it lands — never silently dropped:
// the ledger is the restart picture, and while it is stale the operator
// sees degraded in /healthz and gevo_serve_degraded. Live jobs are
// never failed over a bookkeeping write — the checkpoint files, not the
// ledger, carry search state — and a success (each attempt snapshots the
// then-current table) heals the state machine back to ok.
func (m *Manager) persister() {
	defer close(m.persisterDone)
	defer m.crashGuard()()
	// maxAttempts 0 = retry until success; shutdown bounds the flush so
	// Close never spins forever on a dead disk.
	writeUntilDurable := func(maxAttempts int) {
		for attempt := 0; ; attempt++ {
			err := m.writeLedger()
			if err == nil {
				m.clearDegraded()
				return
			}
			m.ledgerErrors.Inc()
			m.setDegraded(err)
			if maxAttempts > 0 && attempt+1 >= maxAttempts {
				return
			}
			m.persistRetries.Inc()
			select {
			case <-time.After(persistBackoff(attempt)):
			case <-m.persistStop:
				// Stop requested mid-retry: allow one more attempt, then
				// hand back to the outer loop's final flush.
				maxAttempts = attempt + 2
			}
		}
	}
	for {
		select {
		case <-m.dirty:
			writeUntilDurable(0)
		case done := <-m.settlec:
			writeUntilDurable(0)
			close(done)
		case <-m.persistStop:
			// Final flush so a graceful close leaves the freshest picture.
			writeUntilDurable(2)
			return
		}
	}
}

// settle waits for one persister round trip: when it returns, the ledger
// on disk reflects every transition made before the call, and the
// directories of the jobs pruned by then are gone. A client that has seen a
// job finish has not necessarily seen either (persistLocked): until the
// persister gets to it, the job it pruned still has its files and the write
// its open ones. What counts the state directory or the open fds, as
// TestSoakIsFlatInJobs does, settles first.
func (m *Manager) settle() {
	if m.settlec == nil {
		return
	}
	done := make(chan struct{})
	select {
	case m.settlec <- done:
		<-done
	case <-m.persisterDone:
	}
}

// writeLedger snapshots the job table under the lock, then writes and
// cleans up outside it. Pruned directories are removed only after the
// ledger that no longer lists them is durable — a failed write re-queues
// the removals untouched, so a prune is never half-applied; a crash
// between write and removal leaves orphan directories, which are harmless
// and bounded by the crash count.
func (m *Manager) writeLedger() error {
	m.mu.Lock()
	jobs := make([]ledgerJob, 0, len(m.order))
	for _, id := range m.order {
		j, ok := m.jobs[id]
		if !ok {
			continue
		}
		jobs = append(jobs, ledgerJob{
			ID: j.id, Key: j.key, Spec: j.spec, State: j.state, Gen: j.gen,
			Submits: j.submits, Error: j.errMsg, Trace: j.trace,
			SubmittedUnixMs: j.submittedMs, StartedUnixMs: j.startedMs, DoneUnixMs: j.doneMs,
		})
	}
	var remove []string
	for _, id := range m.pendingRemove {
		// A spec resubmitted since its prune owns the directory again.
		if _, ok := m.jobs[id]; !ok {
			remove = append(remove, id)
		}
	}
	m.pendingRemove = nil
	m.mu.Unlock()

	start := time.Now()
	err := saveLedger(m.fs, m.opts.Dir, jobs)
	if err != nil {
		// The prune stays pending until the ledger that no longer lists
		// these jobs is durable.
		m.mu.Lock()
		m.pendingRemove = append(remove, m.pendingRemove...)
		m.mu.Unlock()
		return err
	}
	m.ledgerWrites.Inc()
	m.ledgerSeconds.Observe(time.Since(start).Seconds())
	for _, id := range remove {
		_ = os.RemoveAll(jobDir(m.opts.Dir, id))
	}
	return nil
}

// genPoints extracts the ring-wide per-generation trajectory newer than
// from: at each generation, the best per-deme speedup (comparable across
// heterogeneous rings) and that deme's fitness.
func genPoints(r *island.Result, gen, from int) []GenPoint {
	var out []GenPoint
	for g := from + 1; g <= gen; g++ {
		var pt GenPoint
		best := 0.0
		for _, d := range r.Demes {
			h := d.Result.History
			if g-1 >= len(h.Records) || h.Records[g-1].Gen != g {
				continue
			}
			rec := h.Records[g-1]
			// An all-invalid generation records +Inf best fitness; such a
			// point is skipped rather than emitted — +Inf is not
			// JSON-encodable, and a generation with nothing valid has no
			// trajectory value to report.
			if rec.BestFitness <= 0 || math.IsInf(rec.BestFitness, 1) {
				continue
			}
			if sp := d.Result.BaseFitness / rec.BestFitness; sp > best {
				best = sp
				pt = GenPoint{Gen: g, BestMs: rec.BestFitness, Speedup: sp}
			}
		}
		if best > 0 {
			out = append(out, pt)
		}
	}
	return out
}
