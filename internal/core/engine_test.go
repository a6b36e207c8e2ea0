package core

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/workload"
)

func smallADEPT(t *testing.T) *workload.ADEPT {
	t.Helper()
	a, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEngineDeterministicAcrossWorkers checks that the worker count affects
// only wall time, never results: same seed, same Best, same History, same
// evaluation count (the single-flight cache counts each distinct genome
// exactly once regardless of concurrency).
func TestEngineDeterministicAcrossWorkers(t *testing.T) {
	a := smallADEPT(t)
	run := func(workers int) *Result {
		eng := NewEngine(a, Config{
			Pop: 8, Elite: 1, Generations: 3, Seed: 42, Arch: gpu.P100,
			CrossoverRate: 0.8, MutationRate: 0.5, Workers: workers,
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1 := run(1)
	r8 := run(8)
	if r1.Best.Fitness != r8.Best.Fitness {
		t.Errorf("best fitness differs across workers: %v vs %v", r1.Best.Fitness, r8.Best.Fitness)
	}
	if GenomeKey(r1.Best.Genome) != GenomeKey(r8.Best.Genome) {
		t.Errorf("best genome differs across workers:\n  %v\n  %v", r1.Best.Genome, r8.Best.Genome)
	}
	if r1.Evaluations != r8.Evaluations {
		t.Errorf("evaluation count differs across workers: %d vs %d", r1.Evaluations, r8.Evaluations)
	}
	if len(r1.History.Records) != len(r8.History.Records) {
		t.Fatalf("history length differs: %d vs %d", len(r1.History.Records), len(r8.History.Records))
	}
	for i := range r1.History.Records {
		a, b := r1.History.Records[i], r8.History.Records[i]
		if a.BestFitness != b.BestFitness || a.MeanFitness != b.MeanFitness || a.ValidFrac != b.ValidFrac {
			t.Errorf("gen %d record differs: %+v vs %+v", a.Gen, a, b)
		}
	}
}

// TestConfigZeroRatesAreLegal checks that zero crossover/mutation rates are
// respected instead of being silently overridden to the paper defaults.
func TestConfigZeroRatesAreLegal(t *testing.T) {
	a := smallADEPT(t)
	eng := NewEngine(a, Config{
		Pop: 6, Elite: 1, Generations: 2, Seed: 7, Arch: gpu.P100,
		CrossoverRate: 0, MutationRate: 0,
	})
	if eng.cfg.CrossoverRate != 0 || eng.cfg.MutationRate != 0 {
		t.Fatalf("zero rates overridden: crossover=%v mutation=%v",
			eng.cfg.CrossoverRate, eng.cfg.MutationRate)
	}
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	// With both operators disabled, offspring are exact copies of the initial
	// single-edit individuals; no genome can grow.
	if len(res.Best.Genome) > 1 {
		t.Errorf("genome grew to %d edits with zero-rate operators", len(res.Best.Genome))
	}

	neg := NewEngine(a, Config{CrossoverRate: -1, MutationRate: -0.5})
	if neg.cfg.CrossoverRate != 0 || neg.cfg.MutationRate != 0 {
		t.Errorf("negative rates should clamp to zero, got crossover=%v mutation=%v",
			neg.cfg.CrossoverRate, neg.cfg.MutationRate)
	}

	def := DefaultConfig(gpu.P100)
	if def.CrossoverRate != 0.8 || def.MutationRate != 0.3 {
		t.Errorf("DefaultConfig rates = %v/%v, want 0.8/0.3", def.CrossoverRate, def.MutationRate)
	}
}

// TestFitnessCacheAgreesWithUncached is the regression test for the
// evaluation pipeline: a fitness served from the cache must equal both a
// recomputation within the same engine and a fresh engine's first
// evaluation (which exercises recycled pooled devices and the compiled
// program cache).
func TestFitnessCacheAgreesWithUncached(t *testing.T) {
	a := smallADEPT(t)
	cfg := Config{Pop: 4, Generations: 1, Seed: 3, Arch: gpu.P100, CrossoverRate: 0.8, MutationRate: 0.3}
	e1 := NewEngine(a, cfg)

	ed, ok := RandomEdit(a.Base(), e1.r)
	if !ok {
		t.Fatal("no random edit available")
	}
	genome := []Edit{ed}

	first := e1.fitness(genome)
	cached := e1.fitness(genome)
	if first != cached && !(math.IsInf(first, 1) && math.IsInf(cached, 1)) {
		t.Errorf("cached fitness %v != first evaluation %v", cached, first)
	}
	if got := e1.evals; got != 1 {
		t.Errorf("evals = %d after two identical requests, want 1", got)
	}

	e2 := NewEngine(a, cfg)
	fresh := e2.fitness(genome)
	if first != fresh && !(math.IsInf(first, 1) && math.IsInf(fresh, 1)) {
		t.Errorf("fresh engine fitness %v != cached engine %v", fresh, first)
	}
}

// TestFitnessSingleFlight checks that concurrent requests for one program
// block on one simulation, on the tightest pool there is: with a single
// worker slot, a duplicate that kept its slot while waiting would deadlock
// against the evaluation it waits for.
func TestFitnessSingleFlight(t *testing.T) {
	a := smallADEPT(t)
	p := NewEvalPool(1)

	const n = 8
	results := make([]float64, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = p.evaluateGenome(a, gpu.P100, nil, nil)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("deadlock: duplicates on a 1-worker pool never returned")
	}
	for i := 1; i < n; i++ {
		if results[i] != results[0] {
			t.Errorf("concurrent fitness diverged: %v vs %v", results[i], results[0])
		}
	}
	if st := p.Stats(); st.Completed != 1 || st.CacheHits != n-1 {
		t.Errorf("completed %d, hits %d after %d concurrent requests for one program, want 1 and %d",
			st.Completed, st.CacheHits, n, n-1)
	}
}

// TestSpeedupGuard checks the all-invalid-population guard: +Inf best
// fitness reports speedup 0, a valid best reports the plain quotient.
func TestSpeedupGuard(t *testing.T) {
	if got := speedupOf(5, Individual{Fitness: math.Inf(1)}); got != 0 {
		t.Errorf("speedup with +Inf best = %v, want 0", got)
	}
	if got := speedupOf(6, Individual{Fitness: 3}); got != 2 {
		t.Errorf("speedup = %v, want 2", got)
	}
}

// failAfterBase passes the base evaluation and fails every variant,
// producing an all-invalid population.
type failAfterBase struct {
	base  *ir.Module
	mu    sync.Mutex
	calls int
}

func (f *failAfterBase) Name() string                         { return "fail-after-base" }
func (f *failAfterBase) Base() *ir.Module                     { return f.base }
func (f *failAfterBase) Validate(*ir.Module, *gpu.Arch) error { return nil }

func (f *failAfterBase) Evaluate(m *ir.Module, arch *gpu.Arch) (float64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.calls++
	if f.calls == 1 {
		return 5, nil
	}
	return 0, errors.New("variant fails its test cases")
}

// TestEngineAllInvalidPopulation checks that a run whose variants all fail
// still finishes with a finite, sensible result: the base program remains
// the best-ever individual.
func TestEngineAllInvalidPopulation(t *testing.T) {
	w := &failAfterBase{base: kernels.ADEPTModule(kernels.ADEPTV0)}
	eng := NewEngine(w, Config{
		Pop: 4, Elite: 1, Generations: 2, Seed: 9, Arch: gpu.P100,
		CrossoverRate: 0.8, MutationRate: 0.3, Workers: 1,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	if math.IsInf(res.Speedup, 0) || math.IsNaN(res.Speedup) {
		t.Errorf("speedup = %v, want finite", res.Speedup)
	}
	if res.Speedup != 1 {
		t.Errorf("speedup = %v, want 1 (base program is best)", res.Speedup)
	}
	if !res.Best.Valid() {
		t.Errorf("best should be the valid base program, got fitness %v", res.Best.Fitness)
	}
}
