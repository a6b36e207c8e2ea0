// Package gevo is the public API of GEVO-Go, a reproduction of
// "Understanding the Power of Evolutionary Computation for GPU Code
// Optimization" (Liou et al., IISWC 2022). It evolves GPU kernels —
// expressed in a compact SSA IR and executed on a cycle-accurate-in-spirit
// SIMT simulator — to minimize kernel runtime while preserving test-suite
// behaviour.
//
// The three layers, bottom to top:
//
//   - internal/ir + internal/gpu: the LLVM-IR and NVIDIA-GPU substitutes
//     (see DESIGN.md for the substitution argument and the evaluation
//     pipeline — content-addressed compiled-program cache, pooled devices,
//     pre-decoded interpreter — that keeps search throughput high);
//   - internal/workload: the paper's two applications, ADEPT sequence
//     alignment and the SIMCoV infection model, wired to fitness and
//     held-out validation;
//   - internal/core + internal/analysis: the evolutionary engine (with a
//     content-addressed single-flight evaluation pool) and the Section V edit-analysis
//     algorithms.
//
// This package re-exports what the walkthroughs in examples/ and the README
// use, plus the types in those signatures; cmd/ holds the operational tools,
// which import the internal packages directly.
package gevo

import (
	"gevo/internal/analysis"
	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/island"
	"gevo/internal/kernels"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// Search engine (internal/core).
type (
	// Edit is one code modification; a genome is an ordered []Edit.
	Edit = core.Edit
	// Config holds evolutionary-search parameters (paper Section III-E).
	Config = core.Config
	// Engine runs the GEVO search.
	Engine = core.Engine
)

// EditDelete is the instruction-deletion mutation operator, the one the
// paper's key optimizations are made of.
const EditDelete = core.EditDelete

// NewEngine creates a search engine for a workload.
func NewEngine(w Workload, cfg Config) *Engine { return core.NewEngine(w, cfg) }

// DefaultConfig returns the paper's search parameters (pop 256, elitism 4,
// 80% crossover, 30% mutation).
func DefaultConfig(arch *Arch) Config { return core.DefaultConfig(arch) }

// Variant clones a workload's base module and applies a genome.
var Variant = core.Variant

// Workloads (internal/workload): the paper's two applications.
type (
	// Workload is an optimizable GPU application.
	Workload = workload.Workload
	// ADEPTWorkload is the sequence-alignment application.
	ADEPTWorkload = workload.ADEPT
	// SIMCoVWorkload is the infection-simulation application.
	SIMCoVWorkload = workload.SIMCoV
	// ADEPTOptions configures ADEPT dataset generation.
	ADEPTOptions = workload.ADEPTOptions
	// SIMCoVOptions configures the simulation scale.
	SIMCoVOptions = workload.SIMCoVOptions
)

// ADEPT code versions (paper Section III-B).
const (
	ADEPTV0 = kernels.ADEPTV0
	ADEPTV1 = kernels.ADEPTV1
)

// NewADEPT builds the sequence-alignment workload for the given code
// version.
func NewADEPT(v kernels.ADEPTVersion, opt ADEPTOptions) (*ADEPTWorkload, error) {
	return workload.NewADEPT(v, opt)
}

// NewSIMCoV builds the infection-simulation workload.
func NewSIMCoV(opt SIMCoVOptions) (*SIMCoVWorkload, error) {
	return workload.NewSIMCoV(opt)
}

// ResolveWorkload validates a workload name (including parameterized
// synth: specs) without generating datasets.
var ResolveWorkload = workload.Resolve

// Arch describes a simulated GPU (Table I).
type Arch = gpu.Arch

// The three evaluation GPUs of Table I.
var (
	P100      = gpu.P100
	GTX1080Ti = gpu.GTX1080Ti
	V100      = gpu.V100
	// Architectures lists them in Table I order.
	Architectures = gpu.Architectures
)

// Island-model search (internal/island): N concurrent demes with ring
// migration, deterministic for a fixed topology+seed regardless of worker
// count, checkpointable to versioned JSON.
type (
	// IslandConfig describes the island topology and per-deme parameters.
	IslandConfig = island.Config
	// IslandOverride customizes one deme (arch, operator rates).
	IslandOverride = island.Override
	// IslandSearch is a running island-model search.
	IslandSearch = island.Search
)

// NewIslands builds an island-model search over a workload.
func NewIslands(w Workload, cfg IslandConfig) (*IslandSearch, error) { return island.New(w, cfg) }

// Scenario generation (internal/synth, DESIGN.md §7): a deterministic,
// seed-driven generator of GPU kernel families, addressed by parseable
// names (synth:FAMILY[:seed=S][:n=N]); the same spec always yields
// byte-identical IR and bit-identical fixed-seed search results.
type (
	// SynthSpec addresses one generated scenario (family, seed, size).
	SynthSpec = synth.Spec
	// SynthWorkload is a generated scenario wired as a Workload.
	SynthWorkload = synth.Workload
	// SynthSuiteReport is one family's share of a suite run.
	SynthSuiteReport = synth.SuiteReport
)

// NewSynth generates the scenario addressed by a spec: a verified module
// with generator-derived golden outputs, cross-checked against the
// reference interpreter at construction.
func NewSynth(sp SynthSpec) (*SynthWorkload, error) { return synth.New(sp) }

// SynthDefaultSuite returns one default-configuration spec per family.
var SynthDefaultSuite = synth.DefaultSuite

// RunSynthSuite runs the scenario gauntlet (verification, oracle
// cross-check, interp ≡ threaded differential, timing-shape proof) over a
// set of specs.
var RunSynthSuite = synth.RunSuite

// Edit analysis (internal/analysis, paper Section V).
type (
	// Evaluator measures fitness of the base program plus an edit subset.
	Evaluator = analysis.Evaluator
	// SubsetResult is one point of the exhaustive epistasis search (Fig 7).
	SubsetResult = analysis.SubsetResult
	// DepGraph is the Figure 7 dependency structure.
	DepGraph = analysis.DepGraph
)

// Subsets exhaustively evaluates edit subsets (Figure 7).
var Subsets = analysis.Subsets

// Dependencies derives the Figure 7 dependency graph from subset results.
var Dependencies = analysis.Dependencies
