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
	// threaded run replays through the uniform-launch memo when the kernel
	// qualifies).
	DifferentialOK bool `json:"differential_ok"`
	// FitnessMs is the base program's simulated kernel time.
	FitnessMs float64 `json:"fitness_ms"`
}

// RunSuite generates every spec and runs the scenario gauntlet on each:
// construction (which verifies the module and cross-checks the oracle
// against the reference interpreter), the documented-timing-shape check,
// and the interp ≡ threaded differential (twice threaded, to cover the
// uniform-launch memo replay path). It completes the whole suite before
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

		interpMs, err := w.EvaluateBackend(w.Base(), arch, gpu.BackendInterp)
		if err != nil {
			errs = append(errs, fmt.Errorf("synth: %s: interp evaluation failed: %w", w.Name(), err))
			reports = append(reports, rep)
			continue
		}
		rep.FitnessMs = interpMs
		rep.DifferentialOK = true
		for run := 0; run < 2; run++ {
			got, err := w.EvaluateBackend(w.Base(), arch, gpu.BackendThreaded)
			if err != nil {
				errs = append(errs, fmt.Errorf("synth: %s: threaded run %d failed: %w", w.Name(), run, err))
				rep.DifferentialOK = false
				break
			}
			if got != interpMs {
				errs = append(errs, fmt.Errorf("synth: %s: threaded run %d fitness %v != interp %v",
					w.Name(), run, got, interpMs))
				rep.DifferentialOK = false
			}
		}
		reports = append(reports, rep)
	}
	return reports, errors.Join(errs...)
}
