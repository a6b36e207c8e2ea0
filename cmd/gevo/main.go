// Command gevo runs the GEVO evolutionary search on a workload — the
// paper's tool, scaled for the simulator — as an island model: N demes in a
// ring, each optionally on its own GPU architecture, exchanging their best
// individuals every few generations, with checkpoint/resume for
// long-running searches.
//
// Usage:
//
//	gevo -workload adept-v0 -demes 4 -archs P100,V100 -pop 16 \
//	    -gens 40 -interval 5 -k 2 -seed 1 -checkpoint search.json
//
// A killed search resumes bit-identically:
//
//	gevo -workload adept-v0 -resume search.json -checkpoint search.json
//
// -demes 1 is the single-population search: one engine, never migrating,
// seeded with the first seed the ring derives from -seed (not -seed itself).
// -archs cycles its comma-separated list across the demes (a heterogeneous
// ring); a single name gives a homogeneous ring. With -json the human
// report is replaced by one machine-readable JSON object on stdout.
//
// Two reports read the finished search. -lineage prints the best deme's
// best-improvement provenance chain and the per-operator table; -diag prints
// every deme's search health and a kernel diagnosis of the best genome
// (-diag-trace also saves it as Chrome trace_event JSON). -diag -gens 0
// diagnoses the base program without searching:
//
//	gevo -workload adept-v1 -demes 1 -pop 32 -gens 40 -lineage -diag
//	gevo -workload adept-v0 -gens 0 -diag
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"gevo/internal/core"
	"gevo/internal/diag"
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

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gevo:", err)
	os.Exit(1)
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(f *os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	wl := flag.String("workload", "adept-v0", "workload: "+workload.CLINames)
	archs := flag.String("archs", "P100", "comma-separated GPU list cycled across demes ("+strings.Join(gpu.ArchNames(), ", ")+")")
	demes := flag.Int("demes", 4, "number of islands in the ring (1 = single-population search)")
	pop := flag.Int("pop", 16, "population size per deme")
	gens := flag.Int("gens", 40, "generations per deme (0 only with -diag: diagnose the base program)")
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
	lineage := flag.Bool("lineage", false, "after the search, print the best deme's best-improvement lineage and the per-operator table")
	diagnose := flag.Bool("diag", false, "after the search, print search health and a performance diagnosis of the best genome")
	diagTrace := flag.String("diag-trace", "", "with -diag, also write the per-block cost attribution as Chrome trace_event JSON to this file")
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
	if *jsonOut && (*lineage || *diagnose) {
		fatal(fmt.Errorf("-json cannot be combined with -lineage or -diag"))
	}
	if *resume == "" && *demes < 1 {
		fatal(fmt.Errorf("-demes must be at least 1, got %d", *demes))
	}
	if *resume == "" && *gens < 1 {
		if *gens != 0 || !*diagnose {
			fatal(fmt.Errorf("-gens must be at least 1 (0 only with -diag), got %d", *gens))
		}
		arch, _, err := island.ArchRing(strings.Split(*archs, ","), 1)
		if err != nil {
			fatal(err)
		}
		printDiag(w, arch, nil, *diagTrace)
		return
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
		baseArch, overrides, err := island.ArchRing(strings.Split(*archs, ","), *demes)
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
	bestArch := gpu.ArchByName(res.Demes[res.BestDeme].Arch)

	if col != nil {
		if err := writeFile(*traceOut, func(f *os.File) error { return col.WriteTo(f, *traceOut) }); err != nil {
			fatal(err)
		}
		if st := col.Stats(); st.Dropped > 0 {
			fmt.Fprintf(os.Stderr, "gevo: %s holds the newest %d records; the %d oldest were dropped to keep the journal within its %d-byte budget\n",
				*traceOut, st.Records, st.Dropped, st.Budget)
		}
	}

	validated := false
	var vErr error
	if *validate {
		vErr = w.Validate(core.Variant(w.Base(), res.Best.Genome), bestArch)
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

	if *lineage {
		printLineage(res, s.DemeStats())
	}
	if *diagnose {
		fmt.Println()
		for i, st := range s.DemeStats() {
			fmt.Printf("deme %d health after gen %d: valid %.0f%%, fitness ms [%.4f / %.4f / %.4f / %.4f / %.4f], diversity %.2f (%d distinct), entropy %.2f bits, plateau %d\n",
				i, st.Gen, 100*st.ValidFrac, st.BestMs, st.Q1Ms, st.MedianMs, st.Q3Ms, st.WorstMs,
				st.Diversity, st.Distinct, st.Entropy, st.Plateau)
		}
		fmt.Println()
		var genome []core.Edit
		if res.Best.Valid() {
			genome = res.Best.Genome
		}
		printDiag(w, bestArch, genome, *diagTrace)
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

// printLineage prints the provenance of every best-improvement on the best
// deme — the operator that produced the improver, the mutated edit and
// site, the parent genome hash and the fitness delta — then the
// per-operator table: productivity summed over demes, discoveries and gain
// attributed by that lineage.
func printLineage(res *island.Result, stats []core.GenStats) {
	lin := res.Demes[res.BestDeme].Result.History.Lineage
	fmt.Printf("\nlineage of deme %d: %d best-improvements\n", res.BestDeme, len(lin))
	if len(lin) > 0 {
		fmt.Printf("%4s  %-19s  %-22s  %-12s  %10s  %9s  %8s  %5s\n",
			"gen", "op", "mutation", "parent", "best_ms", "delta_ms", "speedup", "edits")
	}
	for _, l := range lin {
		mut := l.Kind
		if l.Site != "" {
			mut = l.Kind + "@" + l.Site
		}
		fmt.Printf("%4d  %-19s  %-22s  %-12s  %10.4f  %9.4f  %7.3fx  %5d\n",
			l.Gen, l.Op, orDash(mut), orDash(l.Parent), l.BestMs, l.DeltaMs, l.Speedup, l.Edits)
	}
	fmt.Printf("\n%-19s  %9s  %9s  %9s  %11s  %9s\n", "op", "attempts", "valid", "improved", "discoveries", "delta_ms")
	for _, o := range core.OpContributions(stats, lin) {
		fmt.Printf("%-19s  %9d  %9d  %9d  %11d  %9.4f\n", o.Op, o.Attempts, o.Valid, o.Improved, o.Discoveries, o.DeltaMs)
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// printDiag diagnoses genome (nil = the base program) on arch: per-block
// cost attribution, divergence, memory traffic, timing-obliviousness and the
// SM schedule go to stdout as text, and to path as Chrome trace_event JSON
// for Perfetto when path is set.
func printDiag(w workload.Workload, arch *gpu.Arch, genome []core.Edit, path string) {
	rep, err := diag.Diagnose(w, arch, genome)
	if err != nil {
		fatal(err)
	}
	if err := rep.WriteText(os.Stdout); err != nil {
		fatal(err)
	}
	if path != "" {
		if err := writeFile(path, func(f *os.File) error { return rep.WriteChromeTrace(f) }); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gevo: wrote Chrome trace to %s\n", path)
	}
}
