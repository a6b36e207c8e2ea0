package core

import (
	"testing"

	"gevo/internal/gpu"
	"gevo/internal/rng"
	"gevo/internal/workload"
)

// costConfig is a small fixed-seed search charging the given account.
func costConfig(p *EvalPool, c *Cost, seed uint64) Config {
	return Config{
		Pop: 8, Generations: 4, Seed: seed, Arch: gpu.P100,
		MutationRate: 0.5, CrossoverRate: 0.8,
		Pool: p, Cost: c,
	}
}

// addTotals sums the pool-charged fields of several accounts (slices are
// orchestrator-charged, so they are excluded like ChargedTotals excludes
// them).
func addTotals(ts ...CostTotals) CostTotals {
	var out CostTotals
	for _, t := range ts {
		out.Evals += t.Evals
		out.Completed += t.Completed
		out.CacheHits += t.CacheHits
		out.Launches += t.Launches
		out.DynInstrs += t.DynInstrs
		out.ProgramHits += t.ProgramHits
		out.ProgramMisses += t.ProgramMisses
		out.MemoHits += t.MemoHits
		out.FailedLaunches += t.FailedLaunches
		out.FailedDynInstrs += t.FailedDynInstrs
	}
	return out
}

// TestCostReconciliation pins the accounting invariant (DESIGN.md §3):
// every evaluation the pool serves is charged to exactly one account — the
// requester for cache hits, the account whose request ran the simulation
// for computes — so at quiescence the field-wise sum of every account,
// including the pool's built-in unattributed account, equals the pool-wide
// charge counters exactly. No double counting, no leaks.
func TestCostReconciliation(t *testing.T) {
	w, err := workload.ByName("synth:stencil1d:seed=1:n=32")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	p := NewEvalPool(4)
	a, b := new(Cost), new(Cost)

	// Two identical fixed-seed searches on distinct accounts: the second
	// requests genomes the first already computed, so its account collects
	// cache hits while the first holds the computes — the exact split the
	// invariant must survive. A third search with no account exercises the
	// unattributed fallback.
	for _, cfg := range []Config{
		costConfig(p, a, 3),
		costConfig(p, b, 3),
		costConfig(p, nil, 9),
	} {
		eng := NewEngine(w, cfg)
		if _, err := eng.Run(); err != nil {
			t.Fatalf("search: %v", err)
		}
	}

	// Searches this small breed no mutant that passes the verifier and then
	// fails on the device, so draw single edits until one does: a failed
	// launch is charged — to the account that asked, and pool-wide — like a
	// completed one, in fields of its own.
	r := rng.New(5)
	for tries := 0; a.Totals().FailedLaunches == 0; tries++ {
		if tries == 500 {
			t.Fatal("no single edit in 500 made a launch fail")
		}
		if e, ok := RandomEdit(w.Base(), r); ok {
			p.evaluateGenome(w, gpu.P100, []Edit{e}, a)
		}
	}
	if ft := a.Totals(); ft.FailedDynInstrs <= 0 {
		t.Fatalf("a failed launch charged no instructions: %+v", ft)
	}

	at, bt, ut := a.Totals(), b.Totals(), p.unattributed.Totals()
	for _, c := range []struct {
		label string
		t     CostTotals
	}{{"job-a", at}, {"job-b", bt}, {"unattributed", ut}} {
		if c.t.Evals == 0 {
			t.Fatalf("account %s charged no evaluations — attribution not wired through", c.label)
		}
	}
	if bt.CacheHits == 0 {
		t.Fatalf("duplicate search collected no cache hits; totals %+v", bt)
	}

	got := addTotals(at, bt, ut)
	want := p.ChargedTotals()
	if got != want {
		t.Fatalf("accounts do not reconcile with pool-wide counters:\nsum of accounts: %+v\npool charged:    %+v", got, want)
	}
}
