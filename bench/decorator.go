package main

import (
	"sync/atomic"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/workload"
)

// evalCounts are the simulator counts the decorator reads off the
// per-evaluation stats handle, summed over traced evaluations.
type evalCounts struct {
	evals, failed             atomic.Int64
	programHits, programMiss  atomic.Int64
	launches, dynInstrs, memo atomic.Int64
}

// tracedWorkload wraps a real workload to observe every evaluation from
// outside the program. It is handed to engines directly and to the serve
// manager through serve.Options.Workloads. Per evaluation it records a
// gpu.prepare span — it calls gpu.PrepareStats itself, which fills the
// program cache (a miss is a verify+compile) — and then a workload.launch
// span around the inner evaluation, which now finds the program cached and
// spends its time on upload, launches and the oracle compare; a
// workload.eval span encloses the two. With the tracer disabled it forwards
// straight to the inner workload.
type tracedWorkload struct {
	inner  workload.Workload
	costed workload.Costed
	tr     *tracer
	counts *evalCounts
}

// wrapTraced decorates w. Profiler is passed through when w has it, so the
// serve diagnosis endpoint keeps working on decorated workloads.
func wrapTraced(w workload.Workload, tr *tracer, counts *evalCounts) workload.Workload {
	tw := &tracedWorkload{inner: w, tr: tr, counts: counts}
	tw.costed, _ = w.(workload.Costed)
	if p, ok := w.(workload.Profiler); ok {
		return &tracedProfiler{tracedWorkload: tw, prof: p}
	}
	return tw
}

func (t *tracedWorkload) Name() string     { return t.inner.Name() }
func (t *tracedWorkload) Base() *ir.Module { return t.inner.Base() }

func (t *tracedWorkload) Validate(m *ir.Module, arch *gpu.Arch) error {
	id := t.tr.begin("workload.validate", t.tr.parentFor(t.inner.Name()), true)
	defer t.tr.end(id)
	return t.inner.Validate(m, arch)
}

func (t *tracedWorkload) Evaluate(m *ir.Module, arch *gpu.Arch) (float64, error) {
	return t.EvaluateCosted(m, arch, nil)
}

// EvaluateCosted implements workload.Costed. The caller's handle (the
// pool's, which charges the job's cost account) is threaded through
// unchanged; the only difference it sees is the extra program-cache hit the
// decorator's own prepare causes.
func (t *tracedWorkload) EvaluateCosted(m *ir.Module, arch *gpu.Arch, st *gpu.EvalStats) (float64, error) {
	if !t.tr.enabled() {
		return t.evalInner(m, arch, st)
	}
	if st == nil {
		st = &gpu.EvalStats{}
	}
	before := *st
	ev := t.tr.begin("workload.eval", t.tr.parentFor(t.inner.Name()), true)
	id := t.tr.begin("gpu.prepare", ev, true)
	_, _ = gpu.PrepareStats(m, st) // the inner evaluation reports the same error
	t.tr.end(id)
	// The decorator's own lookup is the evaluation's real cache outcome; the
	// inner one that follows is a hit by construction and is not counted.
	t.counts.programHits.Add(st.ProgramHits - before.ProgramHits)
	t.counts.programMiss.Add(st.ProgramMisses - before.ProgramMisses)

	id = t.tr.begin("workload.launch", ev, true)
	ms, err := t.evalInner(m, arch, st)
	t.tr.end(id)
	t.tr.end(ev)

	t.counts.evals.Add(1)
	if err != nil {
		t.counts.failed.Add(1)
		t.tr.markFailed(ev)
	}
	t.counts.launches.Add(st.Launches - before.Launches)
	t.counts.dynInstrs.Add(st.DynInstrs - before.DynInstrs)
	t.counts.memo.Add(st.MemoHits - before.MemoHits)
	return ms, err
}

func (t *tracedWorkload) evalInner(m *ir.Module, arch *gpu.Arch, st *gpu.EvalStats) (float64, error) {
	if t.costed != nil {
		return t.costed.EvaluateCosted(m, arch, st)
	}
	return t.inner.Evaluate(m, arch)
}

type tracedProfiler struct {
	*tracedWorkload
	prof workload.Profiler
}

func (t *tracedProfiler) EvaluateProfiled(m *ir.Module, arch *gpu.Arch) (float64, map[string]*gpu.Profile, error) {
	return t.prof.EvaluateProfiled(m, arch)
}
