package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/island"
	"gevo/internal/rng"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// Layer probes call one public function of the program directly, in a loop,
// on the workload's own base modules and a fixed seeded genome corpus, and
// report the median. They run after the rounds, on an otherwise idle
// process, so they price a layer's operation in isolation; the traced
// rounds price it under the workload's real mix.

const (
	probeReps    = 40 // cheap operations (clone, verify, hash, mutate, variant)
	probeSlow    = 5  // expensive ones (cold compile, validate, checkpoint I/O)
	probeTargets = 7  // at most this many of a workload's modules are probed
	probeGenomes = 12
)

// timeMedian runs f reps times and returns the median duration in the
// given unit.
func timeMedian(reps int, per time.Duration, f func()) float64 {
	ds := make([]float64, reps)
	for i := range ds {
		t0 := time.Now()
		f()
		ds[i] = float64(time.Since(t0)) / float64(per)
	}
	return median(ds)
}

// genomeCorpus grows a fixed-seed set of genomes by repeated mutation of
// the base, the shape of edit list a search hands to core.Variant.
func genomeCorpus(w workload.Workload, r *rng.R) [][]core.Edit {
	out := make([][]core.Edit, 0, probeGenomes)
	var g []core.Edit
	for len(out) < probeGenomes {
		g = core.Mutate(w.Base(), g, r)
		out = append(out, g)
		if len(g) >= 4 {
			g = nil
		}
	}
	return out
}

// probe fills the probe-backed per-layer metrics. Medians are taken per
// target and then across targets, so one large module does not stand for
// the workload.
func probe(m map[string]float64, targets []workload.Workload, p int, root string) {
	if len(targets) > probeTargets {
		targets = targets[:probeTargets]
	}
	r := rng.New(0x6765766f) // fixed: the corpus must not depend on the run
	var clone, verify, mutate, variant, hash, compile, validate, synthNew []float64
	var instrs int
	var simMs, interpS, threadedS float64
	for _, w := range targets {
		base := w.Base()
		instrs += base.NumInstrs()
		clone = append(clone, timeMedian(probeReps, time.Microsecond, func() { _ = base.Clone() }))
		verify = append(verify, timeMedian(probeReps, time.Microsecond, func() { _ = base.Verify() }))
		hash = append(hash, timeMedian(probeReps, time.Microsecond, func() { _ = gpu.HashModule(base) }))
		corpus := genomeCorpus(w, r)
		i := 0
		mutate = append(mutate, timeMedian(probeReps, time.Microsecond, func() {
			_ = core.Mutate(base, corpus[i%len(corpus)], r)
			i++
		}))
		variant = append(variant, timeMedian(probeReps, time.Microsecond, func() {
			_ = core.Variant(base, corpus[i%len(corpus)])
			i++
		}))
		compile = append(compile, timeMedian(probeSlow, time.Microsecond, func() {
			_, _ = gpu.NewProgramCache().Prepare(base)
		}))
		validate = append(validate, timeMedian(probeSlow, time.Millisecond, func() { _ = w.Validate(base, gpu.P100) }))
		if ms, err := w.Evaluate(base, gpu.P100); err == nil {
			simMs += ms
		}
		threadedS += timeBackend(w, gpu.BackendThreaded)
		interpS += timeBackend(w, gpu.BackendInterp)
		if sw, ok := w.(*synth.Workload); ok {
			synthNew = append(synthNew, timeMedian(probeSlow, time.Millisecond, func() { _, _ = synth.New(sw.Spec()) }))
		}
	}
	m["ir.base_instrs"] = float64(instrs)
	m["ir.clone_us"] = median(clone)
	m["ir.verify_us"] = median(verify)
	m["core.mutate_us"] = median(mutate)
	m["core.variant_us"] = median(variant)
	m["gpu.hash_us"] = median(hash)
	m["gpu.compile_us"] = median(compile)
	m["gpu.sim_ms"] = simMs
	m["gpu.threaded_over_interp"] = ratio(interpS, threadedS)
	m["workload.validate_ms"] = median(validate)
	m["synth.new_ms"] = median(synthNew)
	if len(targets) > 0 {
		probeIsland(m, targets[0], p, root)
	}
}

// timeBackend is the host time of three base evaluations on one backend.
// The backend is selected through the package default, as the CLIs do.
func timeBackend(w workload.Workload, b gpu.Backend) float64 {
	old := gpu.DefaultBackend
	gpu.DefaultBackend = b
	defer func() { gpu.DefaultBackend = old }()
	t0 := time.Now()
	for i := 0; i < 3; i++ {
		_, _ = w.Evaluate(w.Base(), gpu.P100)
	}
	return time.Since(t0).Seconds()
}

// probeIsland prices the checkpoint path on a small fixed-seed ring over w:
// snapshot, the synchronous durable save the serve executor pays per slice,
// and the load+restore a resumed job pays.
func probeIsland(m map[string]float64, w workload.Workload, p int, root string) {
	s, err := island.New(w, island.Config{
		Demes: 2, MigrationInterval: 2, MigrationSize: 1, Generations: 4, Seed: 1, Workers: p,
		Base: core.Config{Pop: 8, Elite: 2, CrossoverRate: 0.8, MutationRate: 0.5, Arch: gpu.P100},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: island probe:", err)
		return
	}
	s.StepRound()
	var cp *island.Checkpoint
	m["island.snapshot_us"] = timeMedian(probeReps, time.Microsecond, func() { cp, _ = s.Snapshot() })
	path := filepath.Join(root, "probe-checkpoint.json")
	m["island.save_us"] = timeMedian(probeSlow, time.Microsecond, func() { _ = cp.Save(path) })
	m["island.load_us"] = timeMedian(probeSlow, time.Microsecond, func() {
		if loaded, err := island.Load(path); err == nil {
			_, _ = island.Restore(w, loaded)
		}
	})
	if m["island.checkpoint_bytes"] == 0 {
		if fi, err := os.Stat(path); err == nil {
			m["island.checkpoint_bytes"] = float64(fi.Size())
		}
	}
}
