package gevo

// Benchmark harness: one benchmark per table/figure of the paper's
// evaluation. Each benchmark regenerates its experiment at Quick scale and
// reports the headline numbers as custom metrics (speedups as "x_...",
// gains as "pct_..."), so `go test -bench=. -benchmem` reproduces the
// paper's result shapes alongside the harness's own throughput.

import (
	"testing"

	"gevo/internal/align"
	"gevo/internal/experiments"
	"gevo/internal/gpu"
	"gevo/internal/kernels"
	"gevo/internal/workload"
)

// BenchmarkTable1_Archs measures the base ADEPT-V1 runtime on each Table I
// GPU, confirming the arch models are distinct and ordered plausibly.
func BenchmarkTable1_Archs(b *testing.B) {
	w, err := NewADEPT(ADEPTV1, ADEPTOptions{Seed: 11, FitPairs: 3})
	if err != nil {
		b.Fatal(err)
	}
	for _, arch := range Architectures {
		b.Run(arch.Name, func(b *testing.B) {
			var ms float64
			for i := 0; i < b.N; i++ {
				var err error
				ms, err = w.Evaluate(w.Base(), arch)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(ms, "simms/op")
		})
	}
}

// BenchmarkFig2_AlignCPU measures the CPU Smith-Waterman reference and
// verifies the Figure 2 example each iteration.
func BenchmarkFig2_AlignCPU(b *testing.B) {
	p := align.Pair{Ref: []byte("AGCT"), Query: []byte("ATGCT")}
	pairs := align.GeneratePairs(1, 16, 96, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if r := align.Forward(p, align.Figure2Scoring); r.Score != 7 {
			b.Fatalf("Figure 2 score = %d, want 7", r.Score)
		}
		for _, pr := range pairs {
			align.Align(pr, align.DefaultScoring)
		}
	}
}

// BenchmarkFig4_ADEPT replays the canonical ADEPT edit sets on all GPUs and
// reports the paper's Figure 4 ratios.
func BenchmarkFig4_ADEPT(b *testing.B) {
	var rows []experiments.Fig4Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig4(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.V0GevoX, "x_V0GEVO_"+r.Arch)
		b.ReportMetric(r.V1GevoLocal, "x_V1GEVO_"+r.Arch)
	}
}

// BenchmarkFig5_SIMCoV replays the boundary-check removal on all GPUs and
// reports the Figure 5 ratios.
func BenchmarkFig5_SIMCoV(b *testing.B) {
	var rows []experiments.Fig5Row
	for i := 0; i < b.N; i++ {
		var err error
		rows, _, err = experiments.Fig5(experiments.Quick)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		b.ReportMetric(r.GevoX, "x_GEVO_"+r.Arch)
	}
}

// BenchmarkFig6_SearchDistribution runs scaled independent searches (the
// Figure 6 run-to-run distribution study).
func BenchmarkFig6_SearchDistribution(b *testing.B) {
	var runs []experiments.Fig6Run
	for i := 0; i < b.N; i++ {
		var err error
		runs, _, err = experiments.Fig6(experiments.Quick, false)
		if err != nil {
			b.Fatal(err)
		}
	}
	lo, hi := runs[0].Speedup, runs[0].Speedup
	for _, r := range runs {
		if r.Speedup < lo {
			lo = r.Speedup
		}
		if r.Speedup > hi {
			hi = r.Speedup
		}
	}
	b.ReportMetric(lo, "x_min")
	b.ReportMetric(hi, "x_max")
}

// BenchmarkFig7_Subsets runs the exhaustive epistatic-cluster analysis.
func BenchmarkFig7_Subsets(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig8_Staircase replays the cluster-assembly staircase.
func BenchmarkFig8_Staircase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig8(experiments.Quick, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecVIB_BallotSync measures the arch-dependent ballot_sync removal.
func BenchmarkSecVIB_BallotSync(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ballot(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig10_BoundaryChecks runs the Section VI-D study (removal gain,
// large-grid fault, padded fix).
func BenchmarkFig10_BoundaryChecks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig10(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecIV_Generality cross-applies edit sets across GPUs.
func BenchmarkSecIV_Generality(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Generality(experiments.Quick); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecV_Minimize runs the Algorithm 1 + 2 pipeline.
func BenchmarkSecV_Minimize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.MinimizeDemo(experiments.Quick, 3); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator_ADEPTV1Eval measures raw variant-evaluation throughput,
// the quantity that bounds search speed.
func BenchmarkSimulator_ADEPTV1Eval(b *testing.B) {
	w, err := NewADEPT(ADEPTV1, ADEPTOptions{Seed: 11, FitPairs: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Evaluate(w.Base(), P100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator_SIMCoVStep measures per-step simulation throughput.
func BenchmarkSimulator_SIMCoVStep(b *testing.B) {
	s, err := NewSIMCoV(SIMCoVOptions{Seed: 3, W: 32, H: 24, Steps: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(s.Base(), P100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator_ADEPTV1Eval_Interp measures the same evaluation under
// the reference switch interpreter, so `-bench Simulator` reports the
// threaded-code backend's speedup directly.
func BenchmarkSimulator_ADEPTV1Eval_Interp(b *testing.B) {
	defer func(bk gpu.Backend) { gpu.DefaultBackend = bk }(gpu.DefaultBackend)
	gpu.DefaultBackend = gpu.BackendInterp
	w, err := NewADEPT(ADEPTV1, ADEPTOptions{Seed: 11, FitPairs: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Evaluate(w.Base(), P100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator_SIMCoVStep_Interp is the interpreter reference for
// BenchmarkSimulator_SIMCoVStep.
func BenchmarkSimulator_SIMCoVStep_Interp(b *testing.B) {
	defer func(bk gpu.Backend) { gpu.DefaultBackend = bk }(gpu.DefaultBackend)
	gpu.DefaultBackend = gpu.BackendInterp
	s, err := NewSIMCoV(SIMCoVOptions{Seed: 3, W: 32, H: 24, Steps: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Evaluate(s.Base(), P100); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernels_Compile measures the cold hash+verify+compile (mutation
// -> PTX analog) path that runs once per distinct variant.
func BenchmarkKernels_Compile(b *testing.B) {
	m := kernels.ADEPTModule(kernels.ADEPTV1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpu.NewProgramCache().Prepare(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkKernels_PrepareCached measures the content-hash + cache-hit path
// that replaces per-evaluation verification and recompilation in the
// evaluation pipeline.
func BenchmarkKernels_PrepareCached(b *testing.B) {
	m := kernels.ADEPTModule(kernels.ADEPTV1)
	if _, err := gpu.Prepare(m); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gpu.Prepare(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWorkload_Holdout measures full held-out validation (the paper's
// final check on each reported variant).
func BenchmarkWorkload_Holdout(b *testing.B) {
	w, err := workload.NewADEPT(kernels.ADEPTV1, workload.ADEPTOptions{Seed: 11, FitPairs: 2, HoldoutPairs: 8})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Validate(w.Base(), gpu.P100); err != nil {
			b.Fatal(err)
		}
	}
}
