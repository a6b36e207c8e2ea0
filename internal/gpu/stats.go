package gpu

import "gevo/internal/obs"

// EvalStats is the per-evaluation cost and trace handle: the evaluation
// pool allocates one per dispatched evaluation, workloads thread it through
// their launch path (Device.Stats) and the program cache (PrepareStats),
// and the pool folds the totals into the owning job's cost account when the
// evaluation returns. One evaluation runs on one goroutine (workloads fan
// out across evaluations, never inside one), so plain fields suffice.
//
// Determinism: the handle only observes. Counts of memo hits and program
// hits depend on scheduling and cache retention, so they are operational
// telemetry, never inputs to fitness (DESIGN.md §9).
type EvalStats struct {
	// Parent is the eval span a compile this evaluation triggers opens its
	// gpu.compile span under; zero when the evaluation is untraced.
	Parent obs.SpanContext

	// Module, when non-zero, is the content key of the module this
	// evaluation runs — set by a caller that has already hashed it, and
	// trusted by PrepareStats for that module only. The zero key means
	// "not hashed yet": PrepareStats hashes for itself.
	Module ModuleKey

	// ProgramHits / ProgramMisses count program-cache outcomes; a miss is a
	// verify+compile this evaluation paid for.
	ProgramHits   int64
	ProgramMisses int64
	// MemoHits counts uniform-launch memo replays.
	MemoHits int64
	// Launches counts kernel launches; DynInstrs totals their dynamic
	// warp-instruction counts.
	Launches  int64
	DynInstrs int64
	// FailedLaunches counts launches that ended in a fault, a timeout or an
	// execution error, and FailedDynInstrs the warp-instructions they ran
	// before that. They are apart from Launches / DynInstrs, which count the
	// launches that returned a Result: a runaway mutant's launch is the most
	// expensive an evaluation makes, and a timeout the non-termination
	// witness proved early charges what it executed, not the budget.
	FailedLaunches  int64
	FailedDynInstrs int64
}

// addLaunch folds one launch result into the handle.
func (st *EvalStats) addLaunch(res *Result, replayed bool) {
	st.Launches++
	st.DynInstrs += res.DynInstrs
	if replayed {
		st.MemoHits++
	}
}
