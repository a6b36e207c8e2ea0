package core

import (
	"sync/atomic"

	"gevo/internal/gpu"
	"gevo/internal/obs"
)

// Cost is a per-job cost account: the attribution target the evaluation
// pool charges when an engine evaluates genomes on a job's behalf. Engines
// carry one through Config.Cost (island searches fan it out to every deme),
// and the pool charges the account that *requested* each evaluation: one
// eval per request; a hit (the program was already measured, or the request
// waited on its simulation) to the requester; compute costs (launches,
// dynamic instructions, program-cache outcomes) to the account whose request
// ran the simulation. A genome an engine has bred before is answered from
// the engine's own memo and reaches neither the pool nor the account.
// Requests with no account charge the pool's built-in unattributed account,
// so summing every account always reconciles exactly with the pool-wide
// counters (the TestCostReconciliation invariant, DESIGN.md §3).
//
// All fields are atomics: many workers charge one account concurrently,
// and the zero Cost is an empty account ready to charge. The account only
// observes — nothing reads it back into scheduling or fitness, so
// determinism is untouched.
type Cost struct {
	// span is the account's current root span (an obs.SpanContext), set by
	// the orchestrator per executor slice so evaluation spans parent under
	// the slice that requested them. Zero/invalid = spans off.
	span atomic.Value

	evals     atomic.Int64
	completed atomic.Int64
	hits      atomic.Int64

	slices  atomic.Int64
	sliceNs atomic.Int64

	launches   atomic.Int64
	dynInstrs  atomic.Int64
	progHits   atomic.Int64
	progMisses atomic.Int64
	memoHits   atomic.Int64

	failedLaunches  atomic.Int64
	failedDynInstrs atomic.Int64
}

// SetSpan sets the account's current parent span context. Pass the zero
// SpanContext to detach (evaluations stop emitting spans).
func (c *Cost) SetSpan(sc obs.SpanContext) { c.span.Store(sc) }

// Span returns the account's current parent span context (zero when unset).
func (c *Cost) Span() obs.SpanContext {
	if v := c.span.Load(); v != nil {
		return v.(obs.SpanContext)
	}
	return obs.SpanContext{}
}

// AddSliceNs charges one executor slice of wall-clock time (measured by the
// orchestrator — core itself never reads the clock).
func (c *Cost) AddSliceNs(ns int64) {
	c.slices.Add(1)
	c.sliceNs.Add(ns)
}

// CostTotals is a point-in-time copy of an account's counters (also the
// shape of the pool-wide charge counters, see EvalPool.ChargedTotals).
type CostTotals struct {
	// Evals counts evaluation requests that reached the pool (hits +
	// computes): one per distinct genome per engine.
	Evals int64 `json:"evals"`
	// Completed counts simulations this account's requests actually ran.
	Completed int64 `json:"completed"`
	// CacheHits counts requests answered from a program already measured or
	// in flight — no verify, compile or launch was paid for them.
	CacheHits int64 `json:"cache_hits"`
	// Slices and SliceCPUNs are the orchestrator-charged executor slices and
	// their wall time (0 for accounts never driven through serve).
	Slices     int64 `json:"slices"`
	SliceCPUNs int64 `json:"slice_cpu_ns"`
	// Launches, DynInstrs, ProgramHits, ProgramMisses and MemoHits are the
	// simulator-side costs of this account's computed evaluations.
	Launches      int64 `json:"launches"`
	DynInstrs     int64 `json:"dyn_instrs"`
	ProgramHits   int64 `json:"program_hits"`
	ProgramMisses int64 `json:"program_misses"`
	MemoHits      int64 `json:"memo_hits"`
	// FailedLaunches and FailedDynInstrs are the launches that ended in a
	// fault, timeout or execution error and the instructions they ran first
	// (gpu.EvalStats): not part of Launches / DynInstrs, and often more — one
	// runaway mutant can execute more than the rest of its search.
	FailedLaunches  int64 `json:"failed_launches"`
	FailedDynInstrs int64 `json:"failed_dyn_instrs"`
}

// Totals samples the account. Fields are read independently; a sample taken
// under load is approximate, a sample at quiescence is exact.
func (c *Cost) Totals() CostTotals {
	return CostTotals{
		Evals:         c.evals.Load(),
		Completed:     c.completed.Load(),
		CacheHits:     c.hits.Load(),
		Slices:        c.slices.Load(),
		SliceCPUNs:    c.sliceNs.Load(),
		Launches:      c.launches.Load(),
		DynInstrs:     c.dynInstrs.Load(),
		ProgramHits:   c.progHits.Load(),
		ProgramMisses: c.progMisses.Load(),
		MemoHits:      c.memoHits.Load(),

		FailedLaunches:  c.failedLaunches.Load(),
		FailedDynInstrs: c.failedDynInstrs.Load(),
	}
}

// charge folds one computed evaluation's simulator stats into the account.
func (c *Cost) charge(st *gpu.EvalStats) {
	c.completed.Add(1)
	c.launches.Add(st.Launches)
	c.dynInstrs.Add(st.DynInstrs)
	c.progHits.Add(st.ProgramHits)
	c.progMisses.Add(st.ProgramMisses)
	c.memoHits.Add(st.MemoHits)
	c.failedLaunches.Add(st.FailedLaunches)
	c.failedDynInstrs.Add(st.FailedDynInstrs)
}
