// Command gevo-bench runs a small standardized benchmark suite and emits
// machine-readable JSON (default BENCH_islands.json), so the repository's
// performance trajectory can be tracked across commits without parsing
// `go test -bench` text output.
//
// The suite covers the three throughput layers: raw variant evaluation
// (bounds everything), a single-population search, and an island search at
// the same evaluation budget.
//
// Two documents are produced: BENCH_islands.json tracks the search-layer
// benchmarks (evaluation throughput, single-population and island search),
// and BENCH_core.json tracks the simulator core — per-backend evaluation
// latency for the two paper workloads (reference interpreter vs threaded
// code with uniform-launch memoization) with the speedup between them.
//
// Usage:
//
//	gevo-bench -out BENCH_islands.json -core-out BENCH_core.json
//	gevo-bench -out -          # write search benchmarks to stdout
//
// With -baseline it doubles as a regression gate: the fresh run of the
// baseline's suite is compared benchmark by benchmark (ms_per_eval when
// reported, wall_ms otherwise) and the process exits nonzero when any
// metric grew more than -gate-pct percent:
//
//	gevo-bench -baseline BENCH_core.json -gate-pct 15
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"sort"
	"time"

	"gevo/internal/core"
	"gevo/internal/diag"
	"gevo/internal/fault"
	"gevo/internal/gpu"
	"gevo/internal/island"
	"gevo/internal/kernels"
	"gevo/internal/obs"
	"gevo/internal/serve"
	"gevo/internal/serve/client"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// benchResult is one benchmark's summary.
type benchResult struct {
	Name    string             `json:"name"`
	WallMs  float64            `json:"wall_ms"`
	Metrics map[string]float64 `json:"metrics"`
}

// report is the file-level JSON document.
type report struct {
	Suite      string        `json:"suite"`
	GoVersion  string        `json:"go_version"`
	GOMAXPROCS int           `json:"gomaxprocs"`
	UnixMs     int64         `json:"unix_ms"`
	Benchmarks []benchResult `json:"benchmarks"`
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gevo-bench:", err)
	os.Exit(1)
}

// inj arms the benchmark evaluation loops' eval.dispatch fault site (nil =
// off, the default). The gate's own regression test injects a per-eval
// delay here and asserts the gate trips; see README "Bench regression
// gate".
var inj *fault.Injector

// benchEval measures raw base-program evaluation throughput on ADEPT-V1.
func benchEval(evals int) (benchResult, error) {
	w, err := workload.NewADEPT(kernels.ADEPTV1, workload.ADEPTOptions{Seed: 11, FitPairs: 2})
	if err != nil {
		return benchResult{}, err
	}
	start := time.Now()
	for i := 0; i < evals; i++ {
		inj.Hit(fault.SiteEvalDispatch)
		if _, err := w.Evaluate(w.Base(), gpu.P100); err != nil {
			return benchResult{}, err
		}
	}
	wall := time.Since(start)
	return benchResult{
		Name:   "eval_adept_v1_p100",
		WallMs: float64(wall.Microseconds()) / 1000,
		Metrics: map[string]float64{
			"evals":        float64(evals),
			"ms_per_eval":  float64(wall.Microseconds()) / 1000 / float64(evals),
			"evals_per_ms": float64(evals) / (float64(wall.Microseconds()) / 1000),
		},
	}, nil
}

// benchSearch measures a small single-population search end to end.
func benchSearch(pop, gens int) (benchResult, error) {
	w, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		return benchResult{}, err
	}
	eng := core.NewEngine(w, core.Config{
		Pop: pop, Generations: gens, Seed: 1, Arch: gpu.P100,
		CrossoverRate: 0.8, MutationRate: 0.5,
	})
	start := time.Now()
	res, err := eng.Run()
	if err != nil {
		return benchResult{}, err
	}
	wall := time.Since(start)
	return benchResult{
		Name:   "search_single_pop",
		WallMs: float64(wall.Microseconds()) / 1000,
		Metrics: map[string]float64{
			"pop": float64(pop), "gens": float64(gens),
			"speedup": res.Speedup, "evaluations": float64(res.Evaluations),
		},
	}, nil
}

// benchIslands measures the island search at the same pop x gens budget as
// benchSearch, split across a 4-deme ring.
func benchIslands(pop, gens int) (benchResult, error) {
	w, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		return benchResult{}, err
	}
	const demes = 4
	// Guard the integer split: Pop <= 0 would be re-defaulted to 256 by the
	// engine, silently breaking the equal-budget comparison.
	perDeme := pop / demes
	if perDeme < 1 {
		perDeme = 1
	}
	s, err := island.New(w, island.Config{
		Demes: demes, MigrationInterval: 3, MigrationSize: 1,
		Generations: gens, Seed: 1,
		Base: core.Config{
			Pop: perDeme, Arch: gpu.P100,
			CrossoverRate: 0.8, MutationRate: 0.5,
		},
	})
	if err != nil {
		return benchResult{}, err
	}
	start := time.Now()
	res, err := s.Run()
	if err != nil {
		return benchResult{}, err
	}
	wall := time.Since(start)
	return benchResult{
		Name:   "search_islands_ring4",
		WallMs: float64(wall.Microseconds()) / 1000,
		Metrics: map[string]float64{
			"demes": demes, "pop_per_deme": float64(perDeme), "gens": float64(gens),
			"speedup": res.Speedup, "evaluations": float64(res.Evaluations),
			"migrations": float64(res.Migrations),
		},
	}, nil
}

// benchSimulator measures one workload's evaluation latency under both
// execution backends and reports the threaded-over-interpreter speedup.
func benchSimulator(name string, w workload.Workload, evals int) (benchResult, error) {
	defer func(b gpu.Backend) { gpu.DefaultBackend = b }(gpu.DefaultBackend)
	measure := func(backend gpu.Backend) (float64, error) {
		gpu.DefaultBackend = backend
		// Warm the compile cache, device pool and launch memo so the loop
		// measures steady-state evaluation, like the Go benchmarks.
		if _, err := w.Evaluate(w.Base(), gpu.P100); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < evals; i++ {
			inj.Hit(fault.SiteEvalDispatch)
			if _, err := w.Evaluate(w.Base(), gpu.P100); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(start).Microseconds()) / 1000 / float64(evals), nil
	}
	interpMs, err := measure(gpu.BackendInterp)
	if err != nil {
		return benchResult{}, err
	}
	// Snapshot the backend's global instruments around the threaded run so
	// the report carries steady-state cache effectiveness, not absolutes
	// polluted by whatever ran before.
	gpuBefore := gpuCounters()
	threadedMs, err := measure(gpu.BackendThreaded)
	if err != nil {
		return benchResult{}, err
	}
	gpuAfter := gpuCounters()
	return benchResult{
		Name:   name,
		WallMs: threadedMs * float64(evals),
		Metrics: map[string]float64{
			"evals":                  float64(evals),
			"interp_ms_per_eval":     interpMs,
			"ms_per_eval":            threadedMs,
			"ns_per_eval":            threadedMs * 1e6,
			"evals_per_sec":          1000 / threadedMs,
			"speedup_vs_interp":      interpMs / threadedMs,
			"program_cache_hit_rate": hitRate(gpuAfter.progHits-gpuBefore.progHits, gpuAfter.progMisses-gpuBefore.progMisses),
			"uniform_memo_hit_rate":  hitRate(gpuAfter.memoHits-gpuBefore.memoHits, gpuAfter.memoTimed-gpuBefore.memoTimed),
		},
	}, nil
}

// gpuCounterSample holds one reading of the backend-wide cache counters.
type gpuCounterSample struct {
	progHits, progMisses, memoHits, memoTimed float64
}

func gpuCounters() gpuCounterSample {
	return gpuCounterSample{
		progHits:   obs.Default.Value("gevo_gpu_program_cache_hits_total"),
		progMisses: obs.Default.Value("gevo_gpu_program_cache_misses_total"),
		memoHits:   obs.Default.Value("gevo_gpu_memo_hits_total"),
		memoTimed:  obs.Default.Value("gevo_gpu_memo_timed_total"),
	}
}

// hitRate is hits/(hits+misses), 0 when the pair never fired.
func hitRate(hits, misses float64) float64 {
	if hits+misses <= 0 {
		return 0
	}
	return hits / (hits + misses)
}

// coreSuite runs the simulator-core benchmarks behind BENCH_core.json: the
// same two workload configurations as BenchmarkSimulator_ADEPTV1Eval and
// BenchmarkSimulator_SIMCoVStep in bench_test.go.
func coreSuite(evals int) ([]benchResult, error) {
	adept, err := workload.NewADEPT(kernels.ADEPTV1, workload.ADEPTOptions{Seed: 11, FitPairs: 2})
	if err != nil {
		return nil, err
	}
	simcov, err := workload.NewSIMCoV(workload.SIMCoVOptions{Seed: 3, W: 32, H: 24, Steps: 8})
	if err != nil {
		return nil, err
	}
	var out []benchResult
	for _, b := range []struct {
		name string
		w    workload.Workload
	}{
		{"sim_adept_v1_eval", adept},
		{"sim_simcov_step", simcov},
	} {
		r, err := benchSimulator(b.name, b.w, evals)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
		fmt.Fprintf(os.Stderr, "gevo-bench: %-22s %8.2f ms/eval (%.2fx vs interp)\n",
			r.Name, r.Metrics["ms_per_eval"], r.Metrics["speedup_vs_interp"])
	}
	cache, err := benchCacheHealth()
	if err != nil {
		return nil, err
	}
	out = append(out, cache)
	fmt.Fprintf(os.Stderr, "gevo-bench: %-22s fitness %.2f, program %.2f, memo %.2f hit rate\n",
		cache.Name, cache.Metrics["fitness_cache_hit_rate"],
		cache.Metrics["program_cache_hit_rate"], cache.Metrics["uniform_memo_hit_rate"])
	return out, nil
}

// benchCacheHealth runs a small search against an explicit evaluation pool
// and reports the three cache hit rates of the evaluation path: the
// pool's single-flight program table, the compiled-program cache and the
// uniform-launch memo (backend counters from the obs registry). Cache decay
// here flags perf regressions that ns/op alone can hide — a slower hash, a
// key that stopped matching — before they show up as wall time.
func benchCacheHealth() (benchResult, error) {
	w, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		return benchResult{}, err
	}
	pool := core.NewEvalPool(0)
	pool.SetInjector(inj)
	gpuBefore := gpuCounters()
	eng := core.NewEngine(w, core.Config{
		Pop: 12, Generations: 8, Seed: 1, Arch: gpu.P100,
		CrossoverRate: 0.8, MutationRate: 0.5, Pool: pool,
	})
	start := time.Now()
	if _, err := eng.Run(); err != nil {
		return benchResult{}, err
	}
	wall := time.Since(start)
	gpuAfter := gpuCounters()
	ps := pool.Stats()
	return benchResult{
		Name:   "search_cache_health",
		WallMs: float64(wall.Microseconds()) / 1000,
		Metrics: map[string]float64{
			"fitness_cache_hits":     float64(ps.CacheHits),
			"fitness_cache_misses":   float64(ps.Completed),
			"fitness_cache_hit_rate": hitRate(float64(ps.CacheHits), float64(ps.Completed)),
			"program_cache_hit_rate": hitRate(gpuAfter.progHits-gpuBefore.progHits, gpuAfter.progMisses-gpuBefore.progMisses),
			"uniform_memo_hit_rate":  hitRate(gpuAfter.memoHits-gpuBefore.memoHits, gpuAfter.memoTimed-gpuBefore.memoTimed),
		},
	}, nil
}

// serveSuite is a load-style benchmark of the search-as-a-service layer:
// a real gevo-serve stack (durable manager + HTTP + SSE) on a loopback
// port, a mixed stream of ADEPT and SIMCoV jobs submitted through the
// typed client, and end-to-end job latency measured from the server's own
// submit/done timestamps. One duplicate of the first spec rides along to
// exercise the single-flight path under load.
func serveSuite(jobs, executors int) ([]benchResult, error) {
	if jobs < 1 {
		jobs = 1
	}
	if executors < 1 {
		executors = 1
	}
	dir, err := os.MkdirTemp("", "gevo-serve-bench-*")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	m, err := serve.Open(serve.Options{Dir: dir, Executors: executors})
	if err != nil {
		return nil, err
	}
	defer m.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: serve.NewServer(m)}
	go srv.Serve(ln)
	defer srv.Close()
	c := client.New("http://" + ln.Addr().String())
	ctx := context.Background()

	mutation, crossover := 0.5, 0.8
	spec := func(i int) serve.JobSpec {
		wl := "adept-v0"
		if i%2 == 1 {
			wl = "simcov"
		}
		return serve.JobSpec{
			Workload: wl, Demes: 2, Pop: 6,
			Generations: 8, MigrationInterval: 4, MigrationSize: 1,
			MutationRate: &mutation, CrossoverRate: &crossover,
			Seed: uint64(100 + i),
		}
	}

	start := time.Now()
	ids := make([]string, 0, jobs+1)
	for i := 0; i < jobs; i++ {
		st, err := c.Submit(ctx, spec(i))
		if err != nil {
			return nil, err
		}
		ids = append(ids, st.ID)
	}
	// The duplicate submission must coalesce, not spawn an (jobs+1)-th search.
	dup, err := c.Submit(ctx, spec(0))
	if err != nil {
		return nil, err
	}
	if dup.ID != ids[0] || dup.Submits < 2 {
		return nil, fmt.Errorf("single-flight violated: duplicate of %s got %s (submits %d)", ids[0], dup.ID, dup.Submits)
	}

	var latencies []float64
	for _, id := range ids {
		st, err := c.WaitDone(ctx, id, nil)
		if err != nil {
			return nil, err
		}
		if st.State != serve.StateDone {
			return nil, fmt.Errorf("job %s ended %s: %s", id, st.State, st.Error)
		}
		latencies = append(latencies, float64(st.DoneUnixMs-st.SubmittedUnixMs))
	}
	wall := time.Since(start)
	stats, err := c.Stats(ctx)
	if err != nil {
		return nil, err
	}

	sort.Float64s(latencies)
	quantile := func(q float64) float64 {
		idx := int(q * float64(len(latencies)-1))
		return latencies[idx]
	}
	wallMin := wall.Minutes()
	wallSec := wall.Seconds()
	return []benchResult{{
		Name:   "serve_mixed_jobs",
		WallMs: float64(wall.Microseconds()) / 1000,
		Metrics: map[string]float64{
			"jobs":          float64(jobs),
			"executors":     float64(executors),
			"jobs_per_min":  float64(jobs) / wallMin,
			"evals_per_sec": float64(stats.Pool.Completed) / wallSec,
			"p50_job_ms":    quantile(0.50),
			"p95_job_ms":    quantile(0.95),
		},
	}}, nil
}

// synthSuite runs the scenario-generation benchmarks behind
// BENCH_synth.json: the default suite through the synth gauntlet
// (generation, oracle cross-check, interp ≡ threaded differential,
// per-backend evaluation latency), plus a short fixed-budget search per
// family over `seeds` scenario instances at the minimum problem size, so
// the per-family search-speedup distribution is tracked across commits.
// Any verification or differential failure is an error — CI's synth-smoke
// job fails on it.
func synthSuite(evals, seeds, pop, gens int) ([]benchResult, error) {
	if seeds < 1 {
		seeds = 1
	}
	reps, err := synth.RunSuite(synth.DefaultSuite(), gpu.P100, evals)
	if err != nil {
		return nil, err
	}
	out := make([]benchResult, 0, len(reps))
	for _, r := range reps {
		res := benchResult{
			Name:   "synth_" + r.Spec.Family,
			WallMs: r.ThreadedMsPerEval * float64(evals),
			Metrics: map[string]float64{
				"instrs":             float64(r.Instrs),
				"grid":               float64(r.Grid),
				"block":              float64(r.Block),
				"timing_uniform":     boolMetric(r.TimingUniform),
				"fitness_ms":         r.FitnessMs,
				"ms_per_eval":        r.ThreadedMsPerEval,
				"ns_per_eval":        r.ThreadedMsPerEval * 1e6,
				"interp_ms_per_eval": r.InterpMsPerEval,
				"speedup_vs_interp":  r.BackendSpeedup,
			},
		}
		speedups, evalsTotal, err := synthSearches(r.Spec.Family, seeds, pop, gens)
		if err != nil {
			return nil, err
		}
		lo, mid, hi := speedups[0], speedups[len(speedups)/2], speedups[len(speedups)-1]
		res.Metrics["search_seeds"] = float64(seeds)
		res.Metrics["search_speedup_min"] = lo
		res.Metrics["search_speedup_median"] = mid
		res.Metrics["search_speedup_max"] = hi
		res.Metrics["search_evaluations"] = float64(evalsTotal)
		out = append(out, res)
		fmt.Fprintf(os.Stderr, "gevo-bench: %-18s %6.0f ns/eval  uniform=%v  search speedup %0.3fx/%0.3fx/%0.3fx\n",
			res.Name, res.Metrics["ns_per_eval"], r.TimingUniform, lo, mid, hi)
	}
	return out, nil
}

// synthSearches runs one short search per scenario seed on a family's
// minimum-size instance and returns the sorted speedups plus the total
// evaluation count.
func synthSearches(family string, seeds, pop, gens int) ([]float64, int, error) {
	speedups := make([]float64, 0, seeds)
	evalsTotal := 0
	for s := 1; s <= seeds; s++ {
		var sp *synth.Spec
		for _, c := range synth.SearchSuite(uint64(s)) {
			if c.Family == family {
				sp = &c
				break
			}
		}
		if sp == nil {
			return nil, 0, fmt.Errorf("synth search suite lacks family %q", family)
		}
		w, err := synth.New(*sp)
		if err != nil {
			return nil, 0, err
		}
		eng := core.NewEngine(w, core.Config{
			Pop: pop, Generations: gens, Seed: uint64(s), Arch: gpu.P100,
			MutationRate: 0.5, CrossoverRate: 0.8,
		})
		res, err := eng.Run()
		if err != nil {
			return nil, 0, fmt.Errorf("%s: search failed: %w", sp.Name(), err)
		}
		speedups = append(speedups, res.Speedup)
		evalsTotal += res.Evaluations
	}
	sort.Float64s(speedups)
	return speedups, evalsTotal, nil
}

func boolMetric(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func writeReport(rep report, path string) error {
	blob, err := json.MarshalIndent(rep, "", " ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	if path == "-" {
		os.Stdout.Write(blob)
		return nil
	}
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gevo-bench: wrote %s\n", path)
	return nil
}

func main() {
	out := flag.String("out", "BENCH_islands.json", "search-benchmark output file ('' to skip, '-' for stdout)")
	coreOut := flag.String("core-out", "BENCH_core.json", "simulator-core output file ('' to skip, '-' for stdout)")
	serveOut := flag.String("serve-out", "BENCH_serve.json", "serve-layer output file ('' to skip, '-' for stdout)")
	evals := flag.Int("evals", 40, "evaluation count for the throughput benchmarks")
	pop := flag.Int("pop", 16, "total population for the search benchmarks")
	gens := flag.Int("gens", 10, "generations for the search benchmarks")
	serveJobs := flag.Int("serve-jobs", 6, "concurrent mixed jobs for the serve benchmark")
	serveExecutors := flag.Int("serve-executors", 4, "executor goroutines for the serve benchmark")
	synthOut := flag.String("synth-out", "BENCH_synth.json", "scenario-suite output file ('' to skip, '-' for stdout)")
	synthSeeds := flag.Int("synth-seeds", 3, "scenario seeds searched per family for the speedup distribution")
	synthGens := flag.Int("synth-gens", 8, "generations per synth search")
	baseline := flag.String("baseline", "", "regression gate: baseline report JSON (e.g. BENCH_core.json); exit nonzero when the fresh run of the same suite regresses")
	gatePct := flag.Float64("gate-pct", 15, "allowed metric growth over the baseline, percent")
	faults := flag.String("faults", "", "arm the eval.dispatch fault site in the benchmark loops, e.g. 'eval.dispatch:delay=5ms/1' (gate self-test; '' = off)")
	traceOut := flag.String("trace", "", "also write the ADEPT-V1 kernel diagnosis as Chrome trace_event JSON to this file (Perfetto artifact)")
	flag.Parse()

	if *faults != "" {
		var err error
		if inj, err = fault.Parse(*faults); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gevo-bench: fault injection armed: %s\n", *faults)
	}
	var produced []report

	if *coreOut != "" {
		rep := report{
			Suite:      "gevo-bench-core",
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			UnixMs:     time.Now().UnixMilli(),
		}
		core, err := coreSuite(*evals)
		if err != nil {
			fatal(err)
		}
		rep.Benchmarks = core
		if err := writeReport(rep, *coreOut); err != nil {
			fatal(err)
		}
		produced = append(produced, rep)
	}

	if *synthOut != "" {
		rep := report{
			Suite:      "gevo-bench-synth",
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			UnixMs:     time.Now().UnixMilli(),
		}
		res, err := synthSuite(*evals, *synthSeeds, 8, *synthGens)
		if err != nil {
			fatal(err)
		}
		rep.Benchmarks = res
		if err := writeReport(rep, *synthOut); err != nil {
			fatal(err)
		}
		produced = append(produced, rep)
	}

	if *serveOut != "" {
		rep := report{
			Suite:      "gevo-bench-serve",
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			UnixMs:     time.Now().UnixMilli(),
		}
		res, err := serveSuite(*serveJobs, *serveExecutors)
		if err != nil {
			fatal(err)
		}
		rep.Benchmarks = res
		for _, r := range res {
			fmt.Fprintf(os.Stderr, "gevo-bench: %-22s %6.1f jobs/min, %7.0f evals/sec, p50 %.0f ms, p95 %.0f ms\n",
				r.Name, r.Metrics["jobs_per_min"], r.Metrics["evals_per_sec"],
				r.Metrics["p50_job_ms"], r.Metrics["p95_job_ms"])
		}
		if err := writeReport(rep, *serveOut); err != nil {
			fatal(err)
		}
		produced = append(produced, rep)
	}

	if *out != "" {
		rep := report{
			Suite:      "gevo-bench",
			GoVersion:  runtime.Version(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
			UnixMs:     time.Now().UnixMilli(),
		}
		for _, run := range []func() (benchResult, error){
			func() (benchResult, error) { return benchEval(*evals) },
			func() (benchResult, error) { return benchSearch(*pop, *gens) },
			func() (benchResult, error) { return benchIslands(*pop, *gens) },
		} {
			r, err := run()
			if err != nil {
				fatal(err)
			}
			rep.Benchmarks = append(rep.Benchmarks, r)
			fmt.Fprintf(os.Stderr, "gevo-bench: %-22s %8.1f ms\n", r.Name, r.WallMs)
		}
		if err := writeReport(rep, *out); err != nil {
			fatal(err)
		}
		produced = append(produced, rep)
	}

	if *traceOut != "" {
		if err := writeDiagTrace(*traceOut); err != nil {
			fatal(err)
		}
	}
	if *baseline != "" {
		runGate(*baseline, *gatePct, produced)
	}
}

// writeDiagTrace diagnoses the canonical ADEPT-V1 base program and saves
// the per-block cost attribution as Chrome trace_event JSON — the Perfetto
// artifact CI's bench-smoke job uploads next to the BENCH_*.json documents.
func writeDiagTrace(path string) error {
	w, err := workload.NewADEPT(kernels.ADEPTV1, workload.ADEPTOptions{Seed: 11, FitPairs: 2})
	if err != nil {
		return err
	}
	rep, err := diag.Diagnose(w, gpu.P100, nil)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "gevo-bench: wrote %s\n", path)
	return nil
}
