// Command gevo-islands runs the island-model evolutionary search: N demes
// in a ring, each optionally on its own GPU architecture, exchanging their
// best individuals every few generations, with checkpoint/resume for
// long-running searches.
//
// Usage:
//
//	gevo-islands -workload adept-v0 -demes 4 -archs P100,V100 -pop 16 \
//	    -gens 40 -interval 5 -k 2 -seed 1 -checkpoint search.json
//
// A killed search resumes bit-identically:
//
//	gevo-islands -workload adept-v0 -resume search.json -checkpoint search.json
//
// -archs cycles its comma-separated list across the demes (a heterogeneous
// ring); a single name gives a homogeneous ring. With -json the human
// report is replaced by one machine-readable JSON object on stdout.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/island"
	"gevo/internal/obs"
	"gevo/internal/workload"
)

// jsonResult is the machine-readable island-search summary emitted by -json.
type jsonResult struct {
	Workload    string     `json:"workload"`
	Demes       int        `json:"demes"`
	Interval    int        `json:"migration_interval"`
	K           int        `json:"migration_size"`
	Pop         int        `json:"pop"`
	Generations int        `json:"generations"`
	Seed        uint64     `json:"seed"`
	BestDeme    int        `json:"best_deme"`
	BestArch    string     `json:"best_arch"`
	BaseMs      float64    `json:"base_ms"`
	BestMs      float64    `json:"best_ms"`
	Speedup     float64    `json:"speedup"`
	Migrations  int        `json:"migrations"`
	Evaluations int        `json:"evaluations"`
	WallMs      float64    `json:"wall_ms"`
	GenomeEdits int        `json:"genome_edits"`
	Validated   bool       `json:"validated"`
	PerDeme     []demeLine `json:"per_deme"`
}

type demeLine struct {
	Deme    int     `json:"deme"`
	Arch    string  `json:"arch"`
	Speedup float64 `json:"speedup"`
	BestMs  float64 `json:"best_ms"`
}

// parseOverrides turns the -archs list into per-deme overrides, cycling the
// list across the ring. A single homogeneous arch needs no overrides.
func parseOverrides(archs string, demes int) (*gpu.Arch, []island.Override, error) {
	names := strings.Split(archs, ",")
	parsed := make([]*gpu.Arch, 0, len(names))
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		a, err := gpu.ResolveArch(n)
		if err != nil {
			return nil, nil, err
		}
		parsed = append(parsed, a)
	}
	if len(parsed) == 0 {
		return nil, nil, fmt.Errorf("no architectures in %q", archs)
	}
	if len(parsed) == 1 {
		return parsed[0], nil, nil
	}
	ov := make([]island.Override, demes)
	for i := range ov {
		ov[i].Arch = parsed[i%len(parsed)]
	}
	return parsed[0], ov, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gevo-islands:", err)
	os.Exit(1)
}

func main() {
	wl := flag.String("workload", "adept-v0", "workload: "+workload.CLINames)
	archs := flag.String("archs", "P100", "comma-separated GPU list cycled across demes ("+strings.Join(gpu.ArchNames(), ", ")+")")
	demes := flag.Int("demes", 4, "number of islands in the ring")
	pop := flag.Int("pop", 16, "population size per deme")
	gens := flag.Int("gens", 40, "generations per deme")
	interval := flag.Int("interval", 5, "generations between migrations")
	k := flag.Int("k", 2, "elites migrated to the ring successor per migration")
	seed := flag.Uint64("seed", 1, "master seed (per-deme seeds are derived)")
	mut := flag.Float64("mut", 0.5, "mutation rate (0 disables)")
	cross := flag.Float64("cross", 0.8, "crossover rate (0 disables)")
	workers := flag.Int("workers", 0, "total parallel fitness evaluations (0 = GOMAXPROCS)")
	checkpoint := flag.String("checkpoint", "", "write a checkpoint here after every migration round")
	resume := flag.String("resume", "", "resume from a checkpoint file (topology flags come from the checkpoint)")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON result on stdout")
	validate := flag.Bool("validate", true, "run held-out validation on the best variant")
	traceOut := flag.String("trace", "", "write the event journal to this file (.jsonl = JSON lines, else Chrome trace_event for Perfetto)")
	listWorkloads := flag.Bool("list-workloads", false, "print the registered workload names and exit")
	flag.Parse()

	if *listWorkloads {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		return
	}

	w, err := workload.ByName(*wl)
	if err != nil {
		fatal(err)
	}
	if *resume == "" && *demes < 1 {
		fatal(fmt.Errorf("-demes must be at least 1, got %d", *demes))
	}

	var col *obs.Collector
	if *traceOut != "" {
		col = obs.NewCollector(nil, 0)
		gpu.SetSink(col)
	}

	var s *island.Search
	if *resume != "" {
		cp, err := island.Load(*resume)
		if err != nil {
			fatal(err)
		}
		// The checkpoint carries the original machine's worker count; an
		// explicit -workers refits the resumed search to this machine
		// (results are deterministic in the seed either way).
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				cp.Config.Workers = *workers
			}
		})
		if s, err = island.Restore(w, cp); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("resumed %s at generation %d (%d migrations done)\n",
				*resume, s.Generation(), s.Migrations())
		}
	} else {
		baseArch, overrides, err := parseOverrides(*archs, *demes)
		if err != nil {
			fatal(err)
		}
		cfg := island.Config{
			Demes: *demes, MigrationInterval: *interval, MigrationSize: *k,
			Generations: *gens, Seed: *seed, Workers: *workers,
			Overrides: overrides,
			Base: core.Config{
				Pop: *pop, Arch: baseArch,
				MutationRate: *mut, CrossoverRate: *cross,
			},
		}
		if s, err = island.New(w, cfg); err != nil {
			fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("island search: %s, %d demes (archs %s), pop %d x %d generations, migrate %d every %d, seed %d\n",
				w.Name(), *demes, *archs, *pop, *gens, *k, *interval, *seed)
		}
	}

	if col != nil {
		s.AttachSink(col)
	}

	start := time.Now()
	for !s.Done() {
		s.StepRound()
		if *checkpoint != "" {
			cp, err := s.Snapshot()
			if err != nil {
				fatal(err)
			}
			if err := cp.Save(*checkpoint); err != nil {
				fatal(err)
			}
		}
		if !*jsonOut {
			r := s.Result()
			fmt.Printf("  gen %3d: best %.3fx on deme %d (%d migrations, %d evals)\n",
				s.Generation(), r.Speedup, r.BestDeme, r.Migrations, r.Evaluations)
		}
	}
	wall := time.Since(start)
	res := s.Result()

	if col != nil {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		if err := col.WriteTo(f, *traceOut); err != nil {
			f.Close()
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}

	validated := false
	var vErr error
	if *validate {
		eng := core.NewEngine(w, core.Config{Arch: gpu.ArchByName(res.Demes[res.BestDeme].Arch)})
		vErr = eng.Validate(res.Best.Genome)
		validated = vErr == nil
	}

	if *jsonOut {
		cfg := s.Config()
		out := jsonResult{
			Workload: w.Name(), Demes: len(res.Demes),
			Pop: cfg.Base.Pop, Generations: res.Generations, Seed: cfg.Seed,
			Interval: cfg.MigrationInterval, K: cfg.MigrationSize,
			BestDeme: res.BestDeme, BestArch: res.Demes[res.BestDeme].Arch,
			BaseMs: res.BaseFitness, BestMs: res.Best.Fitness, Speedup: res.Speedup,
			Migrations: res.Migrations, Evaluations: res.Evaluations,
			WallMs: float64(wall.Microseconds()) / 1000, GenomeEdits: len(res.Best.Genome),
			Validated: validated,
		}
		for _, d := range res.Demes {
			out.PerDeme = append(out.PerDeme, demeLine{
				Deme: d.Deme, Arch: d.Arch, Speedup: d.Result.Speedup, BestMs: d.Result.Best.Fitness,
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fatal(err)
		}
	} else {
		fmt.Printf("best: %.4f ms (%.3fx) on deme %d [%s], %d evaluations, %d migrations, %.1fs wall\n",
			res.Best.Fitness, res.Speedup, res.BestDeme, res.Demes[res.BestDeme].Arch,
			res.Evaluations, res.Migrations, wall.Seconds())
		fmt.Printf("best genome (%d edits):\n", len(res.Best.Genome))
		for _, e := range res.Best.Genome {
			fmt.Printf("  %v\n", e)
		}
		fmt.Println("per-deme results:")
		for _, d := range res.Demes {
			fmt.Printf("  deme %d [%7s]: %.3fx (best %.4f ms)\n", d.Deme, d.Arch, d.Result.Speedup, d.Result.Best.Fitness)
		}
	}

	if *validate {
		if vErr != nil {
			if !*jsonOut {
				fmt.Printf("held-out validation: FAILED: %v\n", vErr)
			}
			os.Exit(1)
		}
		if !*jsonOut {
			fmt.Println("held-out validation: PASSED")
		}
	}
}
