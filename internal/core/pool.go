package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"

	"gevo/internal/fault"
	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/obs"
	"gevo/internal/workload"
)

// EvalPool is a shared fitness-evaluation pool: one worker budget serving
// any number of engines, and one single-flight table of measured programs
// per fitness function (workload instance, architecture). Island searches
// hand every deme the same pool, so heterogeneous rings draw from a single
// GOMAXPROCS-sized budget instead of oversubscribing the machine with
// per-deme worker shares.
//
// Each table answers "has anyone run this program on this architecture": it
// is keyed by the content of the materialised variant (gpu.ModuleKey), not
// by the edit list that bred it, so two genomes that collapse to one program
// — an inapplicable edit, an edit on a vanished target, the same genome in
// another deme — cost one simulation per (workload instance, architecture).
// Engines answer "have I bred this genome" themselves (Engine.seen) and
// never ask the pool twice. A workload's tables live until its owner calls
// Release.
//
// Determinism: the pool only affects *which goroutine* runs a simulation
// and *whether* a duplicate simulation is skipped. Fitness is a pure
// function of (workload instance, architecture, module content) — the
// program cache relies on the same purity for compilation — so results are
// bit-identical for any worker count, any scheduling and any Release.
//
// Accounting: each charge is one CostTotals update, applied by one call to
// the requester's Cost and to the pool's own total Cost; ChargedTotals,
// Stats' Completed/CacheHits and the gevo_pool_* charge series all read
// that total.
type EvalPool struct {
	sem chan struct{}

	mu sync.Mutex
	// tables holds one fitness table per (workload instance, architecture).
	// Workload names identify content shape, not datasets: two ADEPT
	// workloads built with different seeds share a name but must never
	// share fitness entries; guarded by mu.
	tables map[evalSpace]*fitnessTable

	// Instrumentation gauges/counters (obs instruments, so Register can
	// attach them to a metrics registry), read via Stats. They never
	// influence scheduling or results; an orchestrator (internal/serve)
	// samples them for load reporting.
	queued       obs.Gauge
	inFlight     obs.Gauge
	panics       obs.Counter
	redispatches obs.Counter

	// total is charged in the same call as the requester's account (charge),
	// so the sum over every account (including unattributed) reconciles
	// exactly with it (DESIGN.md §3).
	total Cost
	// unattributed absorbs charges from evaluations requested without a cost
	// account (standalone CLI engines, tests), keeping the reconciliation
	// invariant total.
	unattributed Cost

	// inj is the fault injector consulted at eval dispatch (nil = injection
	// off, the zero-cost default). Set via SetInjector before the first
	// evaluation; never mutated after.
	inj *fault.Injector
	// sink receives quarantine trace events (nil = tracing off). Set via
	// AttachSink before the first evaluation; never mutated after.
	sink obs.Sink

	qMu sync.Mutex
	// quarantined is the log of contained evaluation panics; guarded by qMu.
	quarantined []*EvalPanicError
}

// evalSpace names one fitness function: a workload instance measured on an
// architecture.
type evalSpace struct {
	w    workload.Workload
	arch string
}

// fitnessTable is one fitness function's measured programs, keyed by module
// content. The pool's mu protects both maps.
type fitnessTable struct {
	// settled holds the fitness of every program measured so far.
	settled map[gpu.ModuleKey]float64
	// flights holds the evaluations running right now, for duplicates to
	// wait on; an entry moves to settled when its simulation returns.
	flights map[gpu.ModuleKey]*flight
}

// flight is one evaluation in progress. done is closed once ms is set;
// duplicates of an in-flight program wait on it instead of racing a second
// simulation.
type flight struct {
	done chan struct{}
	ms   float64
}

// NewEvalPool creates a pool bounding concurrent evaluations at workers
// (0 = GOMAXPROCS).
func NewEvalPool(workers int) *EvalPool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &EvalPool{
		sem:    make(chan struct{}, workers),
		tables: make(map[evalSpace]*fitnessTable),
	}
}

// tableLocked returns the fitness table of w on arch, creating it on first
// sight. Caller holds p.mu.
func (p *EvalPool) tableLocked(w workload.Workload, arch *gpu.Arch) *fitnessTable {
	sp := evalSpace{w: w, arch: arch.Name}
	t := p.tables[sp]
	if t == nil {
		t = &fitnessTable{settled: make(map[gpu.ModuleKey]float64), flights: make(map[gpu.ModuleKey]*flight)}
		p.tables[sp] = t
	}
	return t
}

// Release drops every fitness table of w, so the pool no longer holds the
// workload instance or anything measured on it. Evaluations of w still in
// flight finish and answer their waiters; a later request of w starts a new
// table. Fitness is pure, so a release can cost a re-simulation but never
// change a value.
func (p *EvalPool) Release(w workload.Workload) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for sp := range p.tables {
		if sp.w == w {
			delete(p.tables, sp)
		}
	}
}

// PoolStats is a point-in-time sample of an EvalPool's load.
type PoolStats struct {
	// Workers is the pool's concurrency bound.
	Workers int
	// QueueDepth is the number of evaluations waiting for a worker slot.
	QueueDepth int
	// InFlight is the number of simulations running right now.
	InFlight int
	// Completed counts simulations finished since the pool was created
	// (each distinct program simulates once per workload instance and
	// architecture).
	Completed int64
	// CacheHits counts requests answered without a simulation because the
	// program had been measured already or was being measured (the request
	// waited): another engine's genome, or a different genome of the same
	// engine that materialised to the same module.
	CacheHits int64
	// EvalPanics counts evaluations whose fn panicked and was quarantined
	// (scored +Inf instead of tearing down the process).
	EvalPanics int64
	// Redispatches counts injected worker faults absorbed by re-running
	// the evaluation (fault injection only; 0 in production).
	Redispatches int64
}

// Stats samples the pool's gauges. The fields are read independently, so a
// sample taken under load is approximate — fine for dashboards, not a
// barrier.
func (p *EvalPool) Stats() PoolStats {
	t := p.total.Totals()
	return PoolStats{
		Workers:      cap(p.sem),
		QueueDepth:   int(p.queued.Value()),
		InFlight:     int(p.inFlight.Value()),
		Completed:    t.Completed,
		CacheHits:    t.CacheHits,
		EvalPanics:   p.panics.Value(),
		Redispatches: p.redispatches.Value(),
	}
}

// Register attaches the pool's instruments to a metrics registry under the
// standard gevo_pool_* names. Engines create private pools freely, so
// pools never auto-register; the owner of the long-lived shared pool (an
// island ring, a serve manager) opts it into a registry. Re-registering a
// different pool under the same names replaces the attachment (obs's
// last-registration-wins contract).
func (p *EvalPool) Register(r *obs.Registry) {
	r.GaugeFunc("gevo_pool_workers", "Evaluation pool concurrency bound.",
		func() float64 { return float64(cap(p.sem)) })
	r.GaugeFunc("gevo_pool_queue_depth", "Evaluations waiting for a worker slot.",
		func() float64 { return float64(p.queued.Value()) })
	r.GaugeFunc("gevo_pool_in_flight", "Simulations running right now.",
		func() float64 { return float64(p.inFlight.Value()) })
	r.CounterFunc("gevo_pool_evals_completed_total", "Simulations finished (each distinct program simulates once per workload instance and architecture).",
		func() float64 { return float64(p.total.Totals().Completed) })
	r.CounterFunc("gevo_pool_cache_hits_total", "Evaluation requests answered from an already measured (or in-flight) program instead of a simulation.",
		func() float64 { return float64(p.total.Totals().CacheHits) })
	r.CounterFunc("gevo_pool_eval_panics_total", "Evaluation panics recovered and quarantined (scored +Inf).",
		func() float64 { return float64(p.panics.Value()) })
	r.CounterFunc("gevo_pool_redispatch_total", "Injected worker faults absorbed by redispatching the evaluation.",
		func() float64 { return float64(p.redispatches.Value()) })
	r.CounterFunc("gevo_pool_launches_total", "Kernel launches across all computed evaluations.",
		func() float64 { return float64(p.total.Totals().Launches) })
	r.CounterFunc("gevo_pool_dyn_instrs_total", "Dynamic instructions executed across all computed evaluations.",
		func() float64 { return float64(p.total.Totals().DynInstrs) })
	r.CounterFunc("gevo_pool_program_hits_total", "Program-cache hits charged through evaluations.",
		func() float64 { return float64(p.total.Totals().ProgramHits) })
	r.CounterFunc("gevo_pool_program_misses_total", "Program-cache misses (compiles) charged through evaluations.",
		func() float64 { return float64(p.total.Totals().ProgramMisses) })
	r.CounterFunc("gevo_pool_memo_hits_total", "Timing-memo replays charged through evaluations.",
		func() float64 { return float64(p.total.Totals().MemoHits) })
}

// charge applies one charge to the requester's account and to the pool's
// total.
func (p *EvalPool) charge(acct *Cost, f func(*CostTotals)) {
	acct.add(f)
	p.total.add(f)
}

// ChargedTotals samples the pool's total. At quiescence it equals the
// field-wise sum of every account that charged this pool (slices excluded —
// those are orchestrator-charged, not pool-charged).
func (p *EvalPool) ChargedTotals() CostTotals { return p.total.Totals() }

// SetInjector arms the pool's eval-dispatch fault site (nil = off). Must
// be called before the first evaluation; the field is read-only afterwards,
// keeping the injection-off hot path at one pointer compare.
func (p *EvalPool) SetInjector(in *fault.Injector) { p.inj = in }

// AttachSink routes quarantine trace events to a sink (nil = off). Must be
// called before the first evaluation.
func (p *EvalPool) AttachSink(s obs.Sink) { p.sink = s }

// EvalPanicError is one contained evaluation panic: the worker recovered a
// panic out of a workload's Evaluate, scored the genome +Inf (the GEVO
// "any failure is just bad fitness" contract, lifted from the kernel level
// to the process level), and quarantined this record instead of letting
// the panic tear down sibling engines.
type EvalPanicError struct {
	// Workload and Arch name the evaluation that panicked.
	Workload string
	Arch     string
	// Module is the short content key (gpu.ModuleKey.Short) of the program
	// that panicked; empty when the panic came out of building the variant,
	// before there was a program to name.
	Module string
	// Value is the stringified panic value.
	Value string
	// StackDigest is a short digest over the panic stack's file:line
	// frames — stable for a given binary, so repeated panics from one bug
	// collapse to one signature.
	StackDigest string
}

func (e *EvalPanicError) Error() string {
	return fmt.Sprintf("core: eval panic quarantined (workload %s, arch %s, module %s, stack %s): %s",
		e.Workload, e.Arch, e.Module, e.StackDigest, e.Value)
}

// Quarantined returns a copy of the pool's eval-panic quarantine log.
func (p *EvalPool) Quarantined() []*EvalPanicError {
	p.qMu.Lock()
	defer p.qMu.Unlock()
	out := make([]*EvalPanicError, len(p.quarantined))
	copy(out, p.quarantined)
	return out
}

// maxRedispatch bounds how many consecutive injected worker faults the
// pool absorbs for one evaluation before treating the site as genuinely
// broken. Injected faults model transient infrastructure loss (a worker
// crash), so redispatch is the correct response — fitness is a pure
// function, and the retried evaluation returns the exact value the faulted
// one would have, which is why a faulted run stays bit-identical to a
// fault-free one. Real panics from fn never retry: a deterministic panic
// would just panic again.
const maxRedispatch = 8

// evaluateGenome returns the fitness of a genome of a workload on an
// architecture, simulating each distinct *program* at most once across every
// engine sharing the pool (until the workload is released). It takes a worker slot, materialises the variant
// and hashes it (core.variant_us + gpu.hash_us: ≈ 14 µs on search_synth's
// kernels, 23-34 µs on ADEPT-V0), and looks the content key up: a program already
// measured returns its recorded fitness with no verify, compile, device or
// launch; a duplicate of a running one gives its slot back and waits for it;
// a new one runs in the slot, its key riding the stats handle into the
// program cache so the module is hashed once, not twice.
//
// Cost attribution: every request charges one eval to its account (nil = the
// pool's unattributed account), and every charge lands on the pool's total
// in the same call (charge). Hits — settled or waited for — charge the
// requester; compute costs (the EvalStats handle the workload fills) charge
// the account whose request ran the simulation. Workloads implementing
// workload.Costed get the handle, others evaluate uninstrumented (their
// launches simply go uncharged — fitness is identical either way). When the
// account carries a span context and the pool has a sink, the compute is
// wrapped in a pool.eval span parented under it, and the handle carries that
// span down as the parent of any gpu.compile span.
//
// Failure containment: the workload runs behind a recover. However it exits
// — value, injected fault, panic — the deferred block settles the entry and
// the gauges, releases the worker slot and closes the flight, so waiters can
// never hang and the semaphore can never leak. A panicking evaluation
// poisons its program at +Inf (see EvalPanicError).
func (p *EvalPool) evaluateGenome(w workload.Workload, arch *gpu.Arch, genome []Edit, acct *Cost) float64 {
	if acct == nil {
		acct = &p.unattributed
	}
	p.charge(acct, func(t *CostTotals) { t.Evals++ })
	// id names the evaluation, for its span and for a quarantine record.
	id := EvalPanicError{Workload: w.Name(), Arch: arch.Name}

	p.queued.Add(1)
	p.sem <- struct{}{}
	p.queued.Add(-1)

	m, mod, rec := materialise(w.Base(), genome)
	if rec != nil {
		// No program, so nothing to file the failure under: charge it as a
		// compute that never launched, and let a repeat fail the same way.
		<-p.sem
		p.charge(acct, func(t *CostTotals) { t.Completed++ })
		p.quarantine(id, rec)
		return math.Inf(1)
	}

	p.mu.Lock()
	t := p.tableLocked(w, arch)
	ms, settled := t.settled[mod]
	fl := t.flights[mod]
	if settled || fl != nil {
		p.mu.Unlock()
		// A repeat does no simulator work: it returns its slot before
		// waiting, so a flight can never be starved by its own waiters.
		<-p.sem
		p.charge(acct, func(t *CostTotals) { t.CacheHits++ })
		if !settled {
			<-fl.done
			ms = fl.ms
		}
		return ms
	}
	// Poisoned default: should anything below escape past run's recover,
	// waiters still observe worst fitness, never a hang.
	fl = &flight{done: make(chan struct{}), ms: math.Inf(1)}
	t.flights[mod] = fl
	p.mu.Unlock()

	p.inFlight.Add(1)
	id.Module = mod.Short()
	st := &gpu.EvalStats{Module: mod}
	defer func() {
		p.inFlight.Add(-1)
		p.charge(acct, func(t *CostTotals) { t.addEval(st) })
		// A table released meanwhile is settled all the same: nobody can
		// reach it any more, and its waiters already hold fl.
		p.mu.Lock()
		t.settled[mod] = fl.ms
		delete(t.flights, mod)
		p.mu.Unlock()
		<-p.sem
		close(fl.done)
	}()
	var sp *obs.Span
	if parent := acct.Span(); parent.Valid() {
		sp = obs.StartSpanFrom(parent, p.sink, "pool.eval",
			obs.A("workload", id.Workload), obs.A("arch", id.Arch), obs.A("module", id.Module))
		st.Parent = sp.Context()
	}
	fl.ms = p.run(id, func() float64 {
		var ms float64
		var err error
		if cw, ok := w.(workload.Costed); ok {
			ms, err = cw.EvaluateCosted(m, arch, st)
		} else {
			ms, err = w.Evaluate(m, arch)
		}
		if err != nil {
			return math.Inf(1)
		}
		return ms
	})
	sp.End()
	return fl.ms
}

// materialise builds the variant and its content key behind a recover, so a
// panic out of edit application is contained like one out of the workload.
func materialise(base *ir.Module, genome []Edit) (m *ir.Module, key gpu.ModuleKey, rec *panicRecord) {
	defer func() {
		if r := recover(); r != nil {
			rec = newPanicRecord(r)
		}
	}()
	m = Variant(base, genome)
	return m, gpu.HashModule(m), nil
}

// run executes one evaluation with panic containment: injected worker
// faults are redispatched (bounded by maxRedispatch), real panics are
// quarantined and scored +Inf.
func (p *EvalPool) run(id EvalPanicError, fn func() float64) float64 {
	for attempt := 0; ; attempt++ {
		ms, rec, injected := p.runOnce(fn)
		if injected {
			if attempt < maxRedispatch {
				p.redispatches.Add(1)
				continue
			}
			rec = &panicRecord{value: "injected fault budget exhausted"}
		}
		if rec == nil {
			return ms
		}
		p.quarantine(id, rec)
		return math.Inf(1)
	}
}

// quarantine logs one contained panic of the evaluation id names.
func (p *EvalPool) quarantine(id EvalPanicError, rec *panicRecord) {
	q := &id
	q.Value, q.StackDigest = rec.value, rec.stackDigest
	p.qMu.Lock()
	p.quarantined = append(p.quarantined, q)
	p.qMu.Unlock()
	p.panics.Add(1)
	if s := p.sink; s != nil {
		s.Emit(obs.Event{Type: "pool.quarantine", Attrs: []obs.Attr{
			obs.A("workload", q.Workload), obs.A("arch", q.Arch),
			obs.A("module", q.Module), obs.A("stack", q.StackDigest),
		}})
	}
}

// panicRecord captures a recovered panic for quarantine.
type panicRecord struct {
	value       string
	stackDigest string
}

// newPanicRecord describes the panic value r; call it inside the recovering
// deferred function, while the panicking frames are still on the stack.
func newPanicRecord(r any) *panicRecord {
	return &panicRecord{value: fmt.Sprint(r), stackDigest: stackDigest(debug.Stack())}
}

// runOnce runs fn behind the eval-dispatch fault site and a recover.
// Exactly one of the returns is meaningful: ms on success, rec for a real
// panic, injected=true for an injected transient fault (panic or error
// kind) to be redispatched.
func (p *EvalPool) runOnce(fn func() float64) (ms float64, rec *panicRecord, injected bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := fault.AsInjected(r); ok {
				injected = true
				return
			}
			rec = newPanicRecord(r)
		}
	}()
	if f := p.inj.Hit(fault.SiteEvalDispatch); f.Kind != "" {
		f.Fire()
		return 0, nil, true
	}
	return fn(), nil, false
}

// stackDigest hashes the file:line frames of a panic stack (the
// tab-indented lines), dropping the goroutine header and the argument hex
// of function lines, both of which vary run to run. The digest is stable
// for a given binary, so it is safe to surface through the (observing-only)
// trace sink.
func stackDigest(stack []byte) string {
	var b strings.Builder
	for _, line := range strings.Split(string(stack), "\n") {
		if strings.HasPrefix(line, "\t") {
			b.WriteString(strings.TrimSpace(line))
			b.WriteByte('\n')
		}
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:6])
}
