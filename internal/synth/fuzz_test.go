package synth

import (
	"testing"

	"gevo/internal/gpu"
)

// snapN maps an arbitrary fuzz draw onto a small valid size for the
// family, so every fuzz input generates (construction failures would hide
// backend divergence behind spec validation).
func snapN(fd *familyDef, raw int) int {
	if raw < 0 {
		raw = -raw
	}
	switch fd.name {
	case "stencil2d":
		side := 8 + raw%9 // 64..256 cells
		return side * side
	case "matmul":
		return 8 * (1 + raw%3) // 8, 16, 24
	default:
		return fd.minN + raw%(3*fd.minN)
	}
}

// FuzzBackendDifferential fuzzes the generator over (family, seed, size)
// and pins interp ≡ threaded on every generated kernel: identical fitness
// bits on both datasets (the second threaded fitness run exercising the
// uniform-launch memo replay). The checked-in corpus under testdata
// covers every family plus seeds that select the alternative structural
// shapes (9-point stencils, max-reduce, weighted histogram, tile-4
// matmul).
func FuzzBackendDifferential(f *testing.F) {
	defer gpu.CheckLaneInvariance(gpu.CheckLaneInvariance(true))
	for i := range families {
		f.Add(uint16(i), uint64(1), uint16(0))
		f.Add(uint16(i), uint64(2), uint16(97))
	}
	f.Fuzz(func(t *testing.T, fam uint16, seed uint64, nRaw uint16) {
		if testing.Short() {
			t.Skip("synth differential fuzz skipped in -short")
		}
		fd := &families[int(fam)%len(families)]
		sp := Spec{Family: fd.name, Seed: seed, N: snapN(fd, int(nRaw))}
		w, err := New(sp)
		if err != nil {
			t.Fatalf("%s: construction failed: %v", sp.Name(), err)
		}
		if err := gpu.VerifyProgram(w.baseProg); err != nil {
			t.Fatalf("%s: compiled-program verification failed: %v", w.Name(), err)
		}
		want, err := w.EvaluateBackend(w.Base(), gpu.P100, gpu.BackendInterp)
		if err != nil {
			t.Fatalf("%s: interp evaluation failed: %v", w.Name(), err)
		}
		for run := 0; run < 2; run++ {
			got, err := w.EvaluateBackend(w.Base(), gpu.P100, gpu.BackendThreaded)
			if err != nil {
				t.Fatalf("%s: threaded run %d failed: %v", w.Name(), run, err)
			}
			if got != want {
				t.Errorf("%s: threaded run %d fitness %v != interp %v", w.Name(), run, got, want)
			}
		}
		wantHold, err := w.evaluate(w.Base(), gpu.P100, w.hold, gpu.BackendInterp, nil)
		if err != nil {
			t.Fatalf("%s: interp held-out run failed: %v", w.Name(), err)
		}
		gotHold, err := w.evaluate(w.Base(), gpu.P100, w.hold, gpu.BackendThreaded, nil)
		if err != nil {
			t.Fatalf("%s: threaded held-out run failed: %v", w.Name(), err)
		}
		if gotHold != wantHold {
			t.Errorf("%s: held-out fitness %v (threaded) != %v (interp)", w.Name(), gotHold, wantHold)
		}
	})
}
