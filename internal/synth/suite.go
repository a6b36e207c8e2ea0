package synth

import (
	"errors"
	"fmt"

	"gevo/internal/gpu"
)

// SuiteReport is one family's share of a suite run: generation facts
// (instruction count, geometry, proven timing shape) and the differential
// verdict.
type SuiteReport struct {
	Spec   Spec   `json:"-"`
	Name   string `json:"name"`
	Kernel string `json:"kernel"`
	// Instrs is the generated module's instruction count.
	Instrs int `json:"instrs"`
	Grid   int `json:"grid"`
	Block  int `json:"block"`
	// TimingUniform reports what the taint analysis proved for the
	// generated kernel; UniformAsDocumented confirms it matches the
	// family's documented timing shape.
	TimingUniform       bool `json:"timing_uniform"`
	UniformAsDocumented bool `json:"uniform_as_documented"`
	// DifferentialOK reports interp ≡ threaded base fitness (the second
	// threaded launch, on the same device, replays through the
	// uniform-launch memo when the kernel qualifies).
	DifferentialOK bool `json:"differential_ok"`
	// FitnessMs is the base program's simulated kernel time.
	FitnessMs float64 `json:"fitness_ms"`
}

// RunSuite generates every spec and runs the scenario gauntlet on each:
// construction (which verifies the module and cross-checks the oracle
// against the reference interpreter), the documented-timing-shape check,
// and the interp ≡ threaded differential (replayDifferential, which covers
// the uniform-launch memo replay path). It completes the whole suite before
// reporting the joined errors, so one broken family does not hide another's
// verdict.
func RunSuite(specs []Spec, arch *gpu.Arch) ([]SuiteReport, error) {
	var errs []error
	reports := make([]SuiteReport, 0, len(specs))
	for _, sp := range sortedSpecs(specs) {
		w, err := New(sp)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		rep := SuiteReport{
			Spec: w.Spec(), Name: w.Name(), Kernel: w.Kernel(),
			Instrs: w.Base().NumInstrs(), Grid: w.sc.grid, Block: w.sc.block,
		}
		k := w.baseProg.Kernels[w.Kernel()]
		rep.TimingUniform = k.TimingOblivious()
		wantUniform, _ := TimingUniform(sp.Family)
		rep.UniformAsDocumented = rep.TimingUniform == wantUniform
		if !rep.UniformAsDocumented {
			errs = append(errs, fmt.Errorf("synth: %s: taint analysis proved oblivious=%v, family documents %v",
				w.Name(), rep.TimingUniform, wantUniform))
		}

		rep.FitnessMs, err = w.replayDifferential(arch)
		rep.DifferentialOK = err == nil
		if err != nil {
			errs = append(errs, err)
		}
		reports = append(reports, rep)
	}
	return reports, errors.Join(errs...)
}

// replayDifferential is the interp ≡ threaded check on the base program's
// fitness run, with the uniform-launch memo's replay in reach: the memo lives
// for one device acquisition, so the threaded side launches twice on one
// device, and for a timing-oblivious kernel the second launch replays the
// first one's timing. Each threaded launch must match one interpreted launch
// in cycles and dynamic instructions and reproduce the golden output, and
// the second must replay exactly when the kernel is timing-oblivious. It
// returns the interpreted fitness (0 if that run fails).
func (w *Workload) replayDifferential(arch *gpu.Arch) (float64, error) {
	want, out, err := w.launch(w.Base(), arch, w.fit, gpu.BackendInterp, w.budget, nil)
	if err != nil {
		return 0, fmt.Errorf("synth: %s: interp evaluation failed: %w", w.Name(), err)
	}
	if i := firstDiff(out, w.fit.golden); i >= 0 {
		return 0, fmt.Errorf("synth: interp evaluation failed: %w",
			&MismatchError{Name: w.Name(), Offset: i, Got: out[i], Want: w.fit.golden[i]})
	}
	k := w.baseProg.Kernels[w.Kernel()]
	d := gpu.AcquireDevice(arch)
	defer d.Release()
	st := &gpu.EvalStats{}
	d.Stats = st
	var errs []error
	for run := 0; run < 2; run++ {
		d.Reset() // same addresses, so the same launch signature
		got, out, err := w.run(d, k, w.fit, gpu.BackendThreaded, w.budget, nil)
		if err != nil {
			return want.TimeMS, fmt.Errorf("synth: %s: threaded run %d failed: %w", w.Name(), run, err)
		}
		if got.Cycles != want.Cycles || got.DynInstrs != want.DynInstrs {
			errs = append(errs, fmt.Errorf("synth: %s: threaded run %d: %v cycles, %d instrs; interp %v cycles, %d instrs",
				w.Name(), run, got.Cycles, got.DynInstrs, want.Cycles, want.DynInstrs))
		}
		if i := firstDiff(out, w.fit.golden); i >= 0 {
			errs = append(errs, fmt.Errorf("synth: threaded run %d: %w", run,
				&MismatchError{Name: w.Name(), Offset: i, Got: out[i], Want: w.fit.golden[i]}))
		}
	}
	if (st.MemoHits == 1) != k.TimingOblivious() {
		errs = append(errs, fmt.Errorf("synth: %s: %d memo replays in two threaded launches, timing-oblivious %v",
			w.Name(), st.MemoHits, k.TimingOblivious()))
	}
	return want.TimeMS, errors.Join(errs...)
}
