package gpu_test

import (
	"reflect"
	"testing"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/obs"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// TestBackendDifferential is the acceptance test of the threaded-code
// backend: every kernel in the kernels package (both ADEPT versions and
// all eight SIMCoV kernels, padded and unpadded) must produce bit-identical
// simulated time under the reference interpreter and under threaded code —
// including the uniform-launch memoization paths, which SIMCoV's repeated
// per-step launches exercise within one evaluation.
//
// CI runs this test by name and fails if it is skipped.
func TestBackendDifferential(t *testing.T) {
	defer func(b gpu.Backend) { gpu.DefaultBackend = b }(gpu.DefaultBackend)
	defer gpu.SetVerifyCompiled(gpu.SetVerifyCompiled(true))
	defer gpu.CheckLaneInvariance(gpu.CheckLaneInvariance(true))

	type wl struct {
		name string
		w    workload.Workload
	}
	var wls []wl
	adeptV0, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 2, HoldoutPairs: 3, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	wls = append(wls, wl{"adept-v0", adeptV0})
	adeptV1, err := workload.NewADEPT(kernels.ADEPTV1, workload.ADEPTOptions{
		Seed: 11, FitPairs: 2, HoldoutPairs: 3, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	wls = append(wls, wl{"adept-v1", adeptV1})
	simcov, err := workload.NewSIMCoV(workload.SIMCoVOptions{Seed: 3, W: 16, H: 12, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	wls = append(wls, wl{"simcov", simcov})
	padded, err := workload.NewSIMCoV(workload.SIMCoVOptions{Seed: 3, W: 16, H: 12, Steps: 6, Padded: true})
	if err != nil {
		t.Fatal(err)
	}
	wls = append(wls, wl{"simcov-padded", padded})

	for _, tc := range wls {
		// The compiled artifact must pass the structural audit before any
		// backend comparison; the explicit call covers programs an earlier
		// test may have left in the cache with verification off.
		prog, err := gpu.Prepare(tc.w.Base())
		if err != nil {
			t.Fatalf("%s: prepare failed: %v", tc.name, err)
		}
		if err := gpu.VerifyProgram(prog); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for _, arch := range gpu.Architectures {
			// Reference interpreter first.
			gpu.DefaultBackend = gpu.BackendInterp
			wantMs, wantErr := tc.w.Evaluate(tc.w.Base(), arch)
			wantVal := tc.w.Validate(tc.w.Base(), arch)

			// Threaded twice: the second run may draw the first one's
			// recycled pool device, which must time like a fresh one.
			gpu.DefaultBackend = gpu.BackendThreaded
			for run := 0; run < 2; run++ {
				gotMs, gotErr := tc.w.Evaluate(tc.w.Base(), arch)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("%s/%s run %d: error mismatch: interp %v, threaded %v",
						tc.name, arch.Name, run, wantErr, gotErr)
				}
				if gotMs != wantMs {
					t.Errorf("%s/%s run %d: fitness %v (threaded) != %v (interp)",
						tc.name, arch.Name, run, gotMs, wantMs)
				}
			}
			if gotVal := tc.w.Validate(tc.w.Base(), arch); (gotVal == nil) != (wantVal == nil) {
				t.Errorf("%s/%s: validation mismatch: interp %v, threaded %v",
					tc.name, arch.Name, wantVal, gotVal)
			}
		}
	}
}

// TestBackendDifferentialSynth extends the backend acceptance test to the
// generated scenario corpus: every default-suite synthetic kernel (plus
// one alternate seed per family, selecting the other structural shapes)
// must produce bit-identical fitness under the reference interpreter and
// under threaded code on every architecture. synth.RunSuite launches each
// threaded kernel twice on one device, so the second launch covers the
// uniform-launch memo replay for the timing-uniform families.
//
// CI runs this test by name and fails if it is skipped.
func TestBackendDifferentialSynth(t *testing.T) {
	defer gpu.SetVerifyCompiled(gpu.SetVerifyCompiled(true))
	defer gpu.CheckLaneInvariance(gpu.CheckLaneInvariance(true))
	specs := append(synth.DefaultSuite(), synth.SeedSuite(1002)...)
	for _, sp := range specs {
		w, err := synth.New(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name(), err)
		}
		prog, err := gpu.Prepare(w.Base())
		if err != nil {
			t.Fatalf("%s: prepare failed: %v", w.Name(), err)
		}
		if err := gpu.VerifyProgram(prog); err != nil {
			t.Fatalf("%s: %v", w.Name(), err)
		}
	}
	for _, arch := range gpu.Architectures {
		if _, err := synth.RunSuite(specs, arch); err != nil {
			t.Errorf("%s: %v", arch.Name, err)
		}
	}
}

// TestBackendDifferentialProfiledAgrees pins the threaded profile to the
// interpreter's: every profile of a profiled evaluation must be equal under
// both backends, bit for bit — per-instruction cycles, counts and lanes,
// branch and memory counters, barrier cycles and every launch's block
// timings — and its fitness must be the one the unprofiled threaded search
// path computes. It covers ADEPT-V0, ADEPT-V1 and SIMCoV, each as its base
// program and with its canonical edit set, on every architecture, and every
// synth family. A profiled launch must not replay from the uniform-launch
// memo (a replay charges nothing to attribute): SIMCoV's per-step launches
// replay in an unprofiled evaluation and must not in a profiled one.
//
// CI runs this test by name and fails if it is skipped.
func TestBackendDifferentialProfiledAgrees(t *testing.T) {
	defer func(b gpu.Backend) { gpu.DefaultBackend = b }(gpu.DefaultBackend)
	defer gpu.SetVerifyCompiled(gpu.SetVerifyCompiled(true))
	defer gpu.CheckLaneInvariance(gpu.CheckLaneInvariance(true))

	type profiled interface {
		workload.Workload
		workload.Profiler
	}
	type tc struct {
		name string
		w    profiled
		m    *ir.Module
	}
	var cases []tc
	add := func(name string, w profiled, edits []core.Edit, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		cases = append(cases,
			tc{name, w, w.Base()},
			tc{name + "/canonical", w, core.Variant(w.Base(), edits)})
	}
	opts := workload.ADEPTOptions{Seed: 7, FitPairs: 2, HoldoutPairs: 2, RefLen: 48, QueryLen: 32}
	v0, err := workload.NewADEPT(kernels.ADEPTV0, opts)
	if err != nil {
		t.Fatal(err)
	}
	edits, err := core.CanonicalADEPTV0(v0.Base())
	add("adept-v0", v0, edits, err)
	v1, err := workload.NewADEPT(kernels.ADEPTV1, opts)
	if err != nil {
		t.Fatal(err)
	}
	_, edits, err = core.CanonicalADEPTV1(v1.Base(), true)
	add("adept-v1", v1, edits, err)
	simcov, err := workload.NewSIMCoV(workload.SIMCoVOptions{Seed: 3, W: 16, H: 12, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	edits, err = core.CanonicalSIMCoV(simcov.Base())
	add("simcov", simcov, edits, err)
	for _, sp := range synth.DefaultSuite() {
		w, err := synth.New(sp)
		if err != nil {
			t.Fatalf("%s: %v", sp.Name(), err)
		}
		cases = append(cases, tc{w.Name(), w, w.Base()})
	}

	for _, c := range cases {
		for _, arch := range gpu.Architectures {
			gpu.DefaultBackend = gpu.BackendThreaded
			ms, err := c.w.Evaluate(c.m, arch)
			if err != nil {
				t.Fatalf("%s/%s: %v", c.name, arch.Name, err)
			}
			gotMs, got, err := c.w.EvaluateProfiled(c.m, arch)
			if err != nil {
				t.Fatalf("%s/%s: threaded profiled: %v", c.name, arch.Name, err)
			}
			gpu.DefaultBackend = gpu.BackendInterp
			wantMs, want, err := c.w.EvaluateProfiled(c.m, arch)
			if err != nil {
				t.Fatalf("%s/%s: interpreted profiled: %v", c.name, arch.Name, err)
			}
			if gotMs != ms || wantMs != ms {
				t.Errorf("%s/%s: profiled fitness %v (threaded), %v (interp) != threaded fitness %v",
					c.name, arch.Name, gotMs, wantMs, ms)
			}
			if len(want) == 0 {
				t.Errorf("%s/%s: profiled evaluation returned no profiles", c.name, arch.Name)
			}
			for name, p := range want {
				if p.SumCycles() <= 0 {
					t.Errorf("%s/%s: %s: the interpreter attributed no cycles", c.name, arch.Name, name)
				}
				if !reflect.DeepEqual(got[name], p) {
					t.Errorf("%s/%s: %s: threaded profile differs from the interpreter's", c.name, arch.Name, name)
				}
			}
			if len(got) != len(want) {
				t.Errorf("%s/%s: %d threaded profiles, %d interpreted", c.name, arch.Name, len(got), len(want))
			}
		}
	}

	// The replays: gevo_gpu_memo_hits_total counts the same events as
	// EvalStats.MemoHits, and nothing else here launches concurrently.
	gpu.DefaultBackend = gpu.BackendThreaded
	st := &gpu.EvalStats{}
	if _, err := simcov.EvaluateCosted(simcov.Base(), gpu.P100, st); err != nil {
		t.Fatal(err)
	}
	if st.MemoHits == 0 {
		t.Fatal("an unprofiled SIMCoV evaluation replayed nothing; the memo check below tests nothing")
	}
	hits := obs.Default.Counter("gevo_gpu_memo_hits_total", "")
	before := hits.Value()
	if _, _, err := simcov.EvaluateProfiled(simcov.Base(), gpu.P100); err != nil {
		t.Fatal(err)
	}
	if n := hits.Value() - before; n != 0 {
		t.Errorf("a profiled SIMCoV evaluation replayed %d launches from the memo, want 0", n)
	}
}
