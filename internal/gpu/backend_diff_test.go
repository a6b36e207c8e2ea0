package gpu_test

import (
	"testing"

	"gevo/internal/gpu"
	"gevo/internal/kernels"
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

// TestBackendDifferentialProfiledAgrees pins that profiled evaluation (which
// always runs interpreted) reports the same fitness the threaded search
// path computes.
func TestBackendDifferentialProfiledAgrees(t *testing.T) {
	defer gpu.CheckLaneInvariance(gpu.CheckLaneInvariance(true))
	w, err := workload.NewADEPT(kernels.ADEPTV1, workload.ADEPTOptions{
		Seed: 7, FitPairs: 2, HoldoutPairs: 2, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	ms, err := w.Evaluate(w.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	pms, profs, err := w.EvaluateProfiled(w.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	if pms != ms {
		t.Errorf("profiled fitness %v != threaded fitness %v", pms, ms)
	}
	if len(profs) == 0 || profs["sw_forward"].SumCycles() <= 0 {
		t.Error("profiled evaluation returned no attribution")
	}
}
