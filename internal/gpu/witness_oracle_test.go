package gpu_test

import (
	"errors"
	"math"
	"testing"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/obs"
	"gevo/internal/rng"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// loopCarried lists, per function, the values a phi carries round a loop —
// the induction steps. A runaway with its registers at a fixed point is one
// operand away from each: replace the phi in `i1 = add i, 1` by anything
// loop-invariant and i1 never moves again.
func loopCarried(m *ir.Module) map[string]map[int]bool {
	out := map[string]map[int]bool{}
	for _, f := range m.Funcs {
		set := map[int]bool{}
		for _, in := range f.Instructions() {
			for _, inc := range in.Inc {
				if inc.Val.Kind == ir.OperInstr {
					set[inc.Val.Ref] = true
				}
			}
		}
		out[f.Name] = set
	}
	return out
}

// operandHeavyGenome draws one to three edits against base. Three in four are
// operand replacements — the operator that breeds runaway loops — and half of
// those are aimed at an induction step: their target is one of loopCarried's.
func operandHeavyGenome(base *ir.Module, r *rng.R) []core.Edit {
	var g []core.Edit
	for n := 1 + r.Intn(3); len(g) < n; {
		wantOperand, wantLoop := r.Intn(4) != 0, r.Intn(2) == 0
		m := core.Variant(base, g)
		var loops map[string]map[int]bool
		if wantOperand && wantLoop {
			loops = loopCarried(m)
		}
		for try := 0; try < 4096; try++ {
			e, ok := core.RandomEdit(m, r)
			if !ok || wantOperand && (e.Kind != core.EditReplaceOperand || loops != nil && !loops[e.Func][e.Target]) {
				continue
			}
			g = append(g, e)
			break
		}
	}
	return g
}

func proofsSoFar() float64 { return obs.Default.Value("gevo_gpu_nontermination_proofs_total") }

// TestNonTerminationProofAgreesWithInterpreter holds the threaded backend's
// non-termination witness (transferT) against the backend that has none.
// Over 2 000 seeded, operand-replace-heavy mutants of both ADEPT versions,
// SIMCoV and every synth family, at a launch budget the interpreter can afford
// to burn: the two backends fail in the same words or return the same bits,
// so wherever the witness fires the interpreter has run out of budget; and
// the witness has to fire a handful of times for that to mean something. The
// named case is the mutant ring 11 of the benchmark's search_adept breeds, at
// the default budget.
func TestNonTerminationProofAgreesWithInterpreter(t *testing.T) {
	defer func(b gpu.Backend) { gpu.DefaultBackend = b }(gpu.DefaultBackend)
	defer gpu.CheckLaneInvariance(gpu.CheckLaneInvariance(true))
	const budget = 1 << 19

	adept := func(v kernels.ADEPTVersion, opt workload.ADEPTOptions) *workload.ADEPT {
		w, err := workload.NewADEPT(v, opt)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	small := workload.ADEPTOptions{Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 24, QueryLen: 16, Budget: budget}
	simcov, err := workload.NewSIMCoV(workload.SIMCoVOptions{Seed: 3, W: 12, H: 8, Steps: 4, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	// ADEPT takes most of the mutants: its reduction loops are where a spin
	// without a store or a barrier comes from, and V1 more than V0, whose
	// one-lane memset loop makes an evaluation three times as long under -race.
	type base struct {
		w       workload.Workload
		mutants int
	}
	bases := []base{{adept(kernels.ADEPTV0, small), 250}, {adept(kernels.ADEPTV1, small), 1000}, {simcov, 260}}
	for _, fam := range synth.Families() {
		// A synth workload sets its own budget, 32 x what its base executes:
		// too little for most spins to reach the witness's first copy.
		w, err := synth.New(synth.Spec{Family: fam, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, base{w, 70})
	}

	// evaluate reports the fitness, the error and whether a proof was counted.
	evaluate := func(w workload.Workload, m *ir.Module, b gpu.Backend) (float64, error, bool) {
		gpu.DefaultBackend = b
		before := proofsSoFar()
		ms, err := w.Evaluate(m, gpu.P100)
		return ms, err, proofsSoFar() != before
	}
	mutants, proved, timeouts := 0, 0, 0
	for bi, b := range bases {
		w, r := b.w, rng.New(uint64(bi)+97)
		for i := 0; i < b.mutants; i++ {
			g := operandHeavyGenome(w.Base(), r)
			m := core.Variant(w.Base(), g)
			got, gotErr, proven := evaluate(w, m, gpu.BackendThreaded)
			want, wantErr, interpProven := evaluate(w, m, gpu.BackendInterp)
			mutants++
			if interpProven {
				t.Fatalf("%s %v: the reference interpreter counted a proof", w.Name(), g)
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s %v:\nthreaded: %v\ninterp:   %v", w.Name(), g, gotErr, wantErr)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s %v: fitness %v threaded, %v interpreted", w.Name(), g, got, want)
			}
			var te *gpu.TimeoutError
			if errors.As(wantErr, &te) {
				timeouts++
			}
			if proven {
				proved++
				if te == nil {
					t.Fatalf("%s %v: proven never to finish, yet the interpreter says %v", w.Name(), g, wantErr)
				}
			}
		}
	}
	t.Logf("%d mutants, %d budget timeouts under the interpreter, %d of them proven by the threaded backend", mutants, timeouts, proved)
	if mutants < 2000 || proved < 5 {
		t.Errorf("%d mutants and %d proofs: too few for the agreement to mean anything", mutants, proved)
	}

	// search_adept's straggler: ring 11 copies %66 before %123 and replaces
	// the first operand of %168 (`add %152, 1` in red_head) with @lane, after
	// which lane 0 alone circles red_head with its registers at a fixed point
	// and nothing stored. At the default budget that was 67 108 864
	// instructions; proven, it is the launch's work up to the spin plus
	// witnessFrom trips.
	gpu.DefaultBackend = gpu.BackendThreaded
	w := adept(kernels.ADEPTV0, workload.ADEPTOptions{Seed: 11, FitPairs: 2, HoldoutPairs: 8, RefLen: 48, QueryLen: 32})
	ring11 := []core.Edit{
		{Kind: core.EditCopy, Func: "sw_forward", Target: 66, Anchor: 123},
		{Kind: core.EditReplaceOperand, Func: "sw_forward", Target: 168, Slot: 0, NewOperand: ir.SpecialReg(ir.SpecialLane)},
	}
	var st gpu.EvalStats
	_, err = w.EvaluateCosted(core.Variant(w.Base(), ring11), gpu.P100, &st)
	var te *gpu.TimeoutError
	if !errors.As(err, &te) || te.Budget != gpu.DefaultDynInstrBudget {
		t.Fatalf("ring 11's runaway: %v, want a TimeoutError at the default budget", err)
	}
	if st.FailedLaunches != 1 || st.FailedDynInstrs >= 1<<20 || st.Launches != 0 {
		t.Errorf("ring 11's runaway: stats %+v, want one failed launch of fewer than %d instructions", st, 1<<20)
	}
}
