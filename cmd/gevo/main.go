// Command gevo runs the evolutionary search on a workload and reports the
// best variant, its speedup, and the discovery history — the paper's main
// tool, scaled for the simulator.
//
// Usage:
//
//	gevo -workload adept-v1 -arch P100 -pop 32 -gens 40 -seed 1 -workers 8
//
// With -json the human report is replaced by one machine-readable JSON
// object on stdout.
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
	"gevo/internal/obs"
	"gevo/internal/workload"
)

// jsonResult is the machine-readable search summary emitted by -json.
type jsonResult struct {
	Workload    string   `json:"workload"`
	Arch        string   `json:"arch"`
	Pop         int      `json:"pop"`
	Generations int      `json:"generations"`
	Seed        uint64   `json:"seed"`
	Workers     int      `json:"workers"`
	BaseMs      float64  `json:"base_ms"`
	BestMs      float64  `json:"best_ms"`
	Speedup     float64  `json:"speedup"`
	Evaluations int      `json:"evaluations"`
	WallMs      float64  `json:"wall_ms"`
	GenomeEdits int      `json:"genome_edits"`
	Genome      []string `json:"genome,omitempty"`
	Validated   bool     `json:"validated"`
}

func main() {
	wl := flag.String("workload", "adept-v1", "workload: "+workload.CLINames)
	archName := flag.String("arch", "P100", "GPU: "+strings.Join(gpu.ArchNames(), ", "))
	pop := flag.Int("pop", 32, "population size (paper: 256)")
	gens := flag.Int("gens", 40, "generations (paper: 300 ADEPT / 130 SIMCoV)")
	seed := flag.Uint64("seed", 1, "search seed")
	mut := flag.Float64("mut", 0.5, "mutation rate (paper: 0.3 at pop 256; 0 disables)")
	cross := flag.Float64("cross", 0.8, "crossover rate (paper: 0.8; 0 disables)")
	workers := flag.Int("workers", 0, "parallel fitness evaluations (0 = GOMAXPROCS)")
	validate := flag.Bool("validate", true, "run held-out validation on the best variant")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON result on stdout")
	traceOut := flag.String("trace", "", "write the event journal to this file (.jsonl = JSON lines, else Chrome trace_event for Perfetto)")
	listWorkloads := flag.Bool("list-workloads", false, "print the registered workload names and exit")
	flag.Parse()

	if *listWorkloads {
		for _, name := range workload.Names() {
			fmt.Println(name)
		}
		return
	}
	arch, err := gpu.ResolveArch(*archName)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gevo:", err)
		os.Exit(2)
	}
	w, err := workload.ByName(*wl)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gevo:", err)
		os.Exit(2)
	}

	if !*jsonOut {
		fmt.Printf("GEVO search: %s on %s, pop %d x %d generations, seed %d\n",
			w.Name(), arch.Name, *pop, *gens, *seed)
	}
	var col *obs.Collector
	var sink obs.Sink
	if *traceOut != "" {
		col = obs.NewCollector(nil, 0)
		sink = col
		gpu.SetSink(col)
	}
	eng := core.NewEngine(w, core.Config{
		Pop: *pop, Generations: *gens, Seed: *seed, Arch: arch,
		MutationRate: *mut, CrossoverRate: *cross, Workers: *workers,
		Sink: sink,
	})
	start := time.Now()
	res, err := eng.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gevo:", err)
		os.Exit(1)
	}
	wall := time.Since(start)

	if col != nil {
		if err := writeTrace(col, *traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "gevo:", err)
			os.Exit(1)
		}
	}

	validated := false
	var vErr error
	if *validate {
		vErr = eng.Validate(res.Best.Genome)
		validated = vErr == nil
	}

	if *jsonOut {
		out := jsonResult{
			Workload: w.Name(), Arch: arch.Name, Pop: *pop, Generations: *gens,
			Seed: *seed, Workers: *workers,
			BaseMs: res.BaseFitness, BestMs: res.Best.Fitness, Speedup: res.Speedup,
			Evaluations: res.Evaluations, WallMs: float64(wall.Microseconds()) / 1000,
			GenomeEdits: len(res.Best.Genome), Validated: validated,
		}
		for _, e := range res.Best.Genome {
			out.Genome = append(out.Genome, e.String())
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintln(os.Stderr, "gevo:", err)
			os.Exit(1)
		}
	} else {
		fmt.Printf("base fitness   %.4f ms\n", res.BaseFitness)
		fmt.Printf("best fitness   %.4f ms (%.3fx) after %d evaluations (%.1fs wall)\n",
			res.Best.Fitness, res.Speedup, res.Evaluations, wall.Seconds())
		fmt.Printf("best genome (%d edits):\n", len(res.Best.Genome))
		for _, e := range res.Best.Genome {
			fmt.Printf("  %v\n", e)
		}
		fmt.Println("discovery history:")
		for _, d := range res.History.Discoveries() {
			fmt.Printf("  gen %3d: %.3fx (+%d edits)\n", d.Gen, d.Speedup, len(d.NewEdits))
		}
		if *validate {
			if vErr != nil {
				fmt.Printf("held-out validation: FAILED: %v\n", vErr)
			} else {
				fmt.Println("held-out validation: PASSED")
			}
		}
	}
	if *validate && vErr != nil {
		os.Exit(1)
	}
}

// writeTrace flushes the collector's journal to path, picking the format
// from the file extension (.jsonl = JSON lines, else Chrome trace_event).
func writeTrace(col *obs.Collector, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WriteTo(f, path); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
