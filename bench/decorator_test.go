package main

import (
	"math"
	"testing"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/kernels"
	"gevo/internal/rng"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// The decorator only observes: on one synthetic and one ADEPT workload,
// fitness through it is bit-identical to the bare workload's, errors and
// all, the caller's stats handle is forwarded to the launch path, and every
// evaluation leaves an eval span enclosing a prepare and a launch span.
func TestDecoratorBitIdentityAndCostedForwarding(t *testing.T) {
	sw, err := synth.New(synth.Spec{Family: "reduce", Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	aw, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32,
		Budget: 1 << 20, // a runaway mutant must not cost the test seconds
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, bare := range []workload.Workload{sw, aw} {
		tr := newTracer()
		tr.on.Store(true)
		counts := &evalCounts{}
		dec := wrapTraced(bare, tr, counts)
		if dec.Name() != bare.Name() || dec.Base() != bare.Base() {
			t.Fatalf("%s: decorator changed identity", bare.Name())
		}
		if _, ok := dec.(workload.Costed); !ok {
			t.Fatalf("%s: decorator lost workload.Costed", bare.Name())
		}
		if _, ok := dec.(workload.Profiler); !ok {
			t.Fatalf("%s: decorator lost workload.Profiler", bare.Name())
		}
		r := rng.New(7)
		var genome []core.Edit
		evals, failures := 0, 0
		for i := 0; i < 12; i++ {
			m := core.Variant(bare.Base(), genome)
			for _, arch := range []*gpu.Arch{gpu.P100, gpu.V100} {
				want, wantErr := bare.Evaluate(m, arch)
				st := &gpu.EvalStats{}
				got, gotErr := dec.(workload.Costed).EvaluateCosted(m, arch, st)
				evals++
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s genome %d: bare err %v, decorated err %v", bare.Name(), i, wantErr, gotErr)
				}
				if wantErr != nil {
					failures++
					continue
				}
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s genome %d on %s: decorated fitness %v != bare %v", bare.Name(), i, arch.Name, got, want)
				}
				if st.Launches == 0 || st.DynInstrs == 0 {
					t.Fatalf("%s: stats handle not forwarded to the launch path: %+v", bare.Name(), *st)
				}
			}
			genome = core.Mutate(bare.Base(), genome, r)
		}
		byName := map[string]int{}
		failed := 0
		for _, s := range tr.take() {
			byName[s.name]++
			if s.failed {
				failed++
			}
		}
		if byName["workload.eval"] != evals || byName["gpu.prepare"] != evals || byName["workload.launch"] != evals {
			t.Errorf("%s: %d evaluations left spans %v", bare.Name(), evals, byName)
		}
		if failed != failures || int(counts.failed.Load()) != failures || int(counts.evals.Load()) != evals {
			t.Errorf("%s: %d failures, %d failed spans, counts %d/%d", bare.Name(), failures, failed, counts.failed.Load(), counts.evals.Load())
		}

		// Switched off, it forwards and records nothing.
		tr.on.Store(false)
		want, _ := bare.Evaluate(bare.Base(), gpu.P100)
		got, err := dec.Evaluate(bare.Base(), gpu.P100)
		if err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s: tracer off: got %v, %v; want %v", bare.Name(), got, err, want)
		}
		if len(tr.take()) != 0 {
			t.Errorf("%s: disabled tracer recorded spans", bare.Name())
		}
	}
}
