package synth_test

import (
	"testing"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/synth"
)

// TestSearchBitIdentical is the end-to-end determinism guarantee of the
// scenario subsystem, on every family of the default suite: two
// independently generated instances of the same spec, searched with the
// same engine seed, produce bit-identical results — fitness values,
// evaluation counts and genomes — and a non-empty winner passes held-out
// validation. (The engine is already deterministic for a fixed workload;
// this pins that the generated workload itself — IR, datasets, golden
// outputs — introduces no drift.)
func TestSearchBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two small searches per family")
	}
	for _, sp := range synth.DefaultSuite() {
		t.Run(sp.Family, func(t *testing.T) {
			run := func() (*core.Engine, *core.Result) {
				w, err := synth.New(sp)
				if err != nil {
					t.Fatal(err)
				}
				eng := core.NewEngine(w, core.Config{
					Pop: 12, Generations: 10, Seed: 17, Arch: gpu.P100,
					MutationRate: 0.9, CrossoverRate: 0.8,
				})
				res, err := eng.Run()
				if err != nil {
					t.Fatal(err)
				}
				return eng, res
			}
			eng, a := run()
			_, b := run()
			if a.BaseFitness != b.BaseFitness {
				t.Errorf("base fitness drifted: %v != %v", a.BaseFitness, b.BaseFitness)
			}
			if a.Best.Fitness != b.Best.Fitness {
				t.Errorf("best fitness drifted: %v != %v", a.Best.Fitness, b.Best.Fitness)
			}
			if a.Evaluations != b.Evaluations {
				t.Errorf("evaluation count drifted: %d != %d", a.Evaluations, b.Evaluations)
			}
			if ga, gb := core.GenomeKey(a.Best.Genome), core.GenomeKey(b.Best.Genome); ga != gb {
				t.Errorf("best genome drifted:\n%s\n%s", ga, gb)
			}
			if len(a.Best.Genome) > 0 {
				if err := eng.Validate(a.Best.Genome); err != nil {
					t.Errorf("best genome fails held-out validation: %v", err)
				}
			}
		})
	}
}

// TestSearchFindsImprovement: the generated kernels carry deliberate
// mechanical-port redundancy, so a modest search should find a valid
// speedup on at least the stencil families.
func TestSearchFindsImprovement(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a search")
	}
	w, err := synth.New(synth.Spec{Family: "stencil1d", Seed: 2, N: 128})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(w, core.Config{
		Pop: 12, Generations: 10, Seed: 3, Arch: gpu.P100,
		MutationRate: 0.5, CrossoverRate: 0.8,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Speedup < 1 {
		t.Fatalf("search regressed the base: speedup %v", res.Speedup)
	}
	if len(res.Best.Genome) > 0 {
		// Whatever the search found must also survive held-out validation.
		if err := eng.Validate(res.Best.Genome); err != nil {
			t.Errorf("best genome fails held-out validation: %v", err)
		}
	}
}
