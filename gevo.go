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
// This package re-exports the types a downstream user needs; examples/ holds
// runnable walkthroughs and cmd/ the operational tools.
package gevo

import (
	"gevo/internal/analysis"
	"gevo/internal/core"
	"gevo/internal/fault"
	"gevo/internal/gpu"
	"gevo/internal/island"
	"gevo/internal/kernels"
	"gevo/internal/obs"
	"gevo/internal/serve"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// Re-exported core types.
type (
	// Edit is one code modification; a genome is an ordered []Edit.
	Edit = core.Edit
	// Config holds evolutionary-search parameters (paper Section III-E).
	Config = core.Config
	// Engine runs the GEVO search.
	Engine = core.Engine
	// Result summarizes a finished search.
	Result = core.Result
	// History records the per-generation trajectory (Figures 6 and 8).
	History = core.History
	// Individual is one population member.
	Individual = core.Individual

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

	// Arch describes a simulated GPU (Table I).
	Arch = gpu.Arch
	// Device is a simulated GPU instance.
	Device = gpu.Device
)

// Edit kinds (the paper's mutation operators).
const (
	EditDelete         = core.EditDelete
	EditCopy           = core.EditCopy
	EditMove           = core.EditMove
	EditSwap           = core.EditSwap
	EditReplaceInstr   = core.EditReplaceInstr
	EditReplaceOperand = core.EditReplaceOperand
)

// ADEPT code versions (paper Section III-B).
const (
	ADEPTV0 = kernels.ADEPTV0
	ADEPTV1 = kernels.ADEPTV1
)

// The three evaluation GPUs of Table I.
var (
	P100      = gpu.P100
	GTX1080Ti = gpu.GTX1080Ti
	V100      = gpu.V100
	// Architectures lists them in Table I order.
	Architectures = gpu.Architectures
)

// Execution backends (DESIGN.md §5). The threaded-code backend is the
// default; the reference interpreter runs when profiling or when forced.
type Backend = gpu.Backend

const (
	// BackendAuto defers to gpu.DefaultBackend (threaded unless profiling).
	BackendAuto = gpu.BackendAuto
	// BackendInterp forces the reference switch interpreter.
	BackendInterp = gpu.BackendInterp
	// BackendThreaded forces the threaded-code backend.
	BackendThreaded = gpu.BackendThreaded
)

// EvalPool is a shared fitness-evaluation pool: one worker budget and one
// cross-engine single-flight cache serving any number of engines (DESIGN.md
// §5). Assign it to Config.Pool to share workers across searches.
type EvalPool = core.EvalPool

// NewEvalPool creates an evaluation pool bounding concurrent simulations
// (0 = GOMAXPROCS).
func NewEvalPool(workers int) *EvalPool { return core.NewEvalPool(workers) }

// NewEngine creates a search engine for a workload.
func NewEngine(w Workload, cfg Config) *Engine { return core.NewEngine(w, cfg) }

// DefaultConfig returns the paper's search parameters (pop 256, elitism 4,
// 80% crossover, 30% mutation).
func DefaultConfig(arch *Arch) Config { return core.DefaultConfig(arch) }

// NewADEPT builds the sequence-alignment workload for the given code
// version.
func NewADEPT(v kernels.ADEPTVersion, opt ADEPTOptions) (*ADEPTWorkload, error) {
	return workload.NewADEPT(v, opt)
}

// NewSIMCoV builds the infection-simulation workload.
func NewSIMCoV(opt SIMCoVOptions) (*SIMCoVWorkload, error) {
	return workload.NewSIMCoV(opt)
}

// Island-model search re-exports (internal/island): N concurrent demes
// with ring migration, deterministic for a fixed topology+seed regardless
// of worker count, checkpointable to versioned JSON.
type (
	// IslandConfig describes the island topology and per-deme parameters.
	IslandConfig = island.Config
	// IslandOverride customizes one deme (arch, operator rates).
	IslandOverride = island.Override
	// IslandSearch is a running island-model search.
	IslandSearch = island.Search
	// IslandResult summarizes a finished island search.
	IslandResult = island.Result
	// DemeResult is one deme's share of an IslandResult.
	DemeResult = island.DemeResult
	// Checkpoint is the on-disk state of an island search.
	Checkpoint = island.Checkpoint

	// EngineState is the serializable search state of a single engine.
	EngineState = core.EngineState
	// HistoryState is the serializable form of a History.
	HistoryState = core.HistoryState
)

// NewIslands builds an island-model search over a workload.
func NewIslands(w Workload, cfg IslandConfig) (*IslandSearch, error) { return island.New(w, cfg) }

// RestoreIslands rebuilds an island search from a checkpoint; the workload
// must be constructed identically to the original run.
func RestoreIslands(w Workload, cp *Checkpoint) (*IslandSearch, error) { return island.Restore(w, cp) }

// LoadCheckpoint reads an island checkpoint written by Checkpoint.Save.
var LoadCheckpoint = island.Load

// RestoreEngine rebuilds a single engine from a checkpointed EngineState.
var RestoreEngine = core.RestoreEngine

// Search-as-a-service re-exports (internal/serve, DESIGN.md §6): a
// JobManager runs many concurrent searches in one process with
// content-addressed dedup, an LRU result cache, fair-share scheduling over
// one shared EvalPool, and crash-safe resume from the job ledger plus
// island checkpoints. cmd/gevo-serve wraps it in the REST/SSE API;
// cmd/gevo-submit and internal/serve/client talk to that.
type (
	// JobSpec describes one search job; it is content-addressed.
	JobSpec = serve.JobSpec
	// JobStatus is a job's externally visible snapshot.
	JobStatus = serve.JobStatus
	// JobResult is a finished job's artifact.
	JobResult = serve.JobResult
	// JobManager orchestrates the jobs.
	JobManager = serve.Manager
	// JobManagerOptions configures OpenJobManager.
	JobManagerOptions = serve.Options
	// JobState is a job's lifecycle position.
	JobState = serve.State
	// JobEvent is one progress notification.
	JobEvent = serve.Event
	// PoolStats samples an EvalPool's load gauges.
	PoolStats = core.PoolStats
)

// Job lifecycle states.
const (
	JobQueued    = serve.StateQueued
	JobRunning   = serve.StateRunning
	JobDone      = serve.StateDone
	JobFailed    = serve.StateFailed
	JobCancelled = serve.StateCancelled
)

// OpenJobManager creates (or, given a durable state directory, reopens and
// resumes) a job manager.
var OpenJobManager = serve.Open

// NewJobServer wraps a manager in the REST/SSE http.Handler.
var NewJobServer = serve.NewServer

// Fault-injection re-exports (internal/fault, DESIGN.md §10): a
// deterministic, seed-driven fault injector wired through the evaluation
// pool, the persistence shim and the HTTP surface. A nil injector is the
// production default (one pointer compare per site); with injection armed,
// fixed-seed search results stay byte-identical to a fault-free run.
type (
	// FaultInjector schedules deterministic faults at named sites.
	FaultInjector = fault.Injector
	// FaultRule arms one (site, kind) schedule in an injector.
	FaultRule = fault.Rule
	// FaultCount reports one scheduled (site, kind)'s planned/fired tally.
	FaultCount = fault.Count
	// EvalPanicError is a quarantined evaluation panic: the genome, the
	// workload, the panic value and a deterministic stack digest.
	EvalPanicError = core.EvalPanicError
	// OverloadedError is the admission-control rejection from JobManager
	// Submit (HTTP 429 + Retry-After at the REST surface).
	OverloadedError = serve.OverloadedError
	// ManagerHealth is the failure-domain summary ("ok" or "degraded").
	ManagerHealth = serve.Health
)

// ParseFaults decodes a fault-schedule spec (the gevo-serve -faults
// syntax), e.g. "eval.dispatch:panic@3,9;persist.write:error/5".
var ParseFaults = fault.Parse

// NewFaultInjector builds an injector from rules, rejecting schedules
// that arm the same (site, hit) twice.
var NewFaultInjector = fault.New

// Scenario-generation re-exports (internal/synth, DESIGN.md §7): a
// deterministic, seed-driven generator of GPU kernel families. Scenarios
// are addressed by parseable names (synth:FAMILY[:seed=S][:n=N]) through
// the shared workload registry, so every tool and the serve job API search
// them like the two applications; the same spec always yields
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

// ParseSynthSpec decodes a synth:FAMILY[:seed=S][:n=N] workload name.
var ParseSynthSpec = synth.Parse

// SynthFamilies lists the kernel family names.
var SynthFamilies = synth.Families

// SynthDefaultSuite returns one default-configuration spec per family.
var SynthDefaultSuite = synth.DefaultSuite

// RunSynthSuite runs the scenario gauntlet (verification, oracle
// cross-check, interp ≡ threaded differential, per-backend timing) over a
// set of specs.
var RunSynthSuite = synth.RunSuite

// WorkloadByName builds any registered workload — the applications or a
// synth: scenario — from its name with the standard configuration.
var WorkloadByName = workload.ByName

// WorkloadNames lists the registered workload names.
var WorkloadNames = workload.Names

// ResolveWorkload validates a workload name (including parameterized
// synth: specs) without generating datasets.
var ResolveWorkload = workload.Resolve

// Analysis re-exports (paper Section V).
type (
	// Evaluator measures fitness of the base program plus an edit subset.
	Evaluator = analysis.Evaluator
	// SubsetResult is one point of the exhaustive epistasis search (Fig 7).
	SubsetResult = analysis.SubsetResult
	// DepGraph is the Figure 7 dependency structure.
	DepGraph = analysis.DepGraph
)

// Minimize implements the paper's Algorithm 1 (weak-edit elimination).
var Minimize = analysis.Minimize

// Split implements the paper's Algorithm 2 (independent vs epistatic).
var Split = analysis.Split

// Subsets exhaustively evaluates edit subsets (Figure 7).
var Subsets = analysis.Subsets

// Dependencies derives the Figure 7 dependency graph from subset results.
var Dependencies = analysis.Dependencies

// Variant clones a workload's base module and applies a genome.
var Variant = core.Variant

// Observability re-exports (internal/obs, DESIGN.md §9): a dependency-free
// metrics registry with Prometheus text exposition, a deterministic trace
// sink the search layers emit typed events into, and a flight-recorder
// collector that stamps wall clocks, keeps a bounded journal and exports
// JSONL or Chrome trace_event (Perfetto). Search results are bit-identical
// with or without a sink attached.
type (
	// MetricsRegistry names, creates and snapshots metric instruments.
	MetricsRegistry = obs.Registry
	// TraceSink receives typed events; a nil sink is a no-op everywhere.
	TraceSink = obs.Sink
	// TraceEvent is one emitted event (type plus ordered attributes).
	TraceEvent = obs.Event
	// TraceAttr is one event attribute (string key/value).
	TraceAttr = obs.Attr
	// TraceCollector is the flight recorder: it stamps, journals and
	// exports events and aggregates compile-span histograms.
	TraceCollector = obs.Collector
	// TraceRecord is one journaled event with sequence and wall-clock.
	TraceRecord = obs.Record
	// LineageEntry is the provenance of one best-ever improvement.
	LineageEntry = core.LineageEntry
)

// DefaultMetrics is the process-global metrics registry (backend counters
// register here; cmd tools and tests read it).
var DefaultMetrics = obs.Default

// NewMetricsRegistry creates an empty, private metrics registry.
var NewMetricsRegistry = obs.NewRegistry

// NewTraceCollector creates a flight recorder journaling into reg (nil =
// DefaultMetrics) with the given ring capacity (<=0 = default).
var NewTraceCollector = obs.NewCollector

// WithTraceAttrs returns a sink that stamps fixed attributes onto every
// event before forwarding (nil inner stays nil).
var WithTraceAttrs = obs.WithAttrs
