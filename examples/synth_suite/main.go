// Scenario suite walkthrough: manufacture workloads instead of porting
// them.
//
// The synth subsystem generates GPU kernel families from a seed — verified
// IR modules with golden outputs derived from the reference interpreter —
// and registers them behind the same workload names every tool accepts.
// This walkthrough runs the default suite through the scenario gauntlet
// (generation, oracle cross-check, backend differential, timing-shape
// proof), then evolves one generated stencil exactly like the paper's
// applications.
//
//	go run ./examples/synth_suite
package main

import (
	"fmt"
	"log"

	"gevo"
)

func main() {
	// 1. The default suite: one scenario per family. RunSynthSuite verifies
	//    every generated module, cross-checks the generator's host oracle
	//    against the reference interpreter, and pins interp ≡ threaded.
	reports, err := gevo.RunSynthSuite(gevo.SynthDefaultSuite(), gevo.P100)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("scenario gauntlet (generate, verify, oracle, differential):")
	for _, r := range reports {
		shape := "data-dependent "
		if r.TimingUniform {
			shape = "timing-uniform"
		}
		fmt.Printf("  %-34s %3d instrs  %s  differential ok=%v\n",
			r.Name, r.Instrs, shape, r.DifferentialOK)
	}

	// 2. Any spec is a workload. Same seed -> byte-identical IR and
	//    bit-identical search results; a new seed -> a fresh scenario.
	w, err := gevo.NewSynth(gevo.SynthSpec{Family: "stencil2d", Seed: 11, N: 256})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nevolving %s (%d instructions)\n", w.Name(), w.Base().NumInstrs())

	cfg := gevo.Config{
		Pop: 16, Elite: 2, Generations: 20,
		CrossoverRate: 0.8, MutationRate: 0.8, Seed: 5, Arch: gevo.P100,
	}
	res, err := gevo.NewEngine(w, cfg).Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("base fitness: %.6f simulated ms\n", res.BaseFitness)
	fmt.Printf("best variant: %.6f simulated ms -> %.3fx speedup (%d edits)\n",
		res.Best.Fitness, res.Speedup, len(res.Best.Genome))

	// 3. Generated scenarios have held-out datasets too: an independently
	//    generated input instance with its own golden output.
	if err := gevo.NewEngine(w, cfg).Validate(res.Best.Genome); err != nil {
		log.Fatalf("held-out validation failed: %v", err)
	}
	fmt.Println("held-out validation passed: output bytes exactly reproduce the oracle")

	// 4. The same scenario is reachable by name from every tool:
	//    gevo -workload synth:stencil2d:seed=11:n=256 and a gevo-serve
	//    job spec both accept w.Name().
	if err := gevo.ResolveWorkload(w.Name()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("registered name: %s\n", w.Name())
}
