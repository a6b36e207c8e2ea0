// Package workload wires the applications (ADEPT, SIMCoV) to the GPU
// simulator and defines the fitness/validation harnesses the evolutionary
// engine optimizes against, following the paper's Section III-C methodology:
// a small fitness test set drives the search, and a larger held-out set
// validates the final optimized program.
package workload

import (
	"fmt"
	"strings"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/synth"
)

// Workload is one optimizable GPU application. Implementations must be safe
// for concurrent Evaluate calls (each call creates its own device).
type Workload interface {
	// Name identifies the workload (e.g. "ADEPT-V1", "SIMCoV").
	Name() string
	// Base returns the unmutated module. It is read-only, instructions
	// included: every variant the search builds (core.Variant) shares the
	// base's *ir.Instr values, from many goroutines at once, so nothing
	// reachable from Base() is ever written after construction. Callers that
	// want to patch a module by hand start from Base().Clone().
	Base() *ir.Module
	// Evaluate runs the module variant on the fitness test set and returns
	// the fitness: total simulated kernel time in milliseconds. Any
	// verification failure, fault, timeout or output mismatch is an error —
	// the variant "fails one or more test cases" in the paper's terms. A
	// timeout (*gpu.TimeoutError) is a launch that ran out of its
	// dynamic-instruction budget or was proven bound to; the error is the
	// same either way, so what Evaluate returns for a module does not depend
	// on how long the simulator took to reach the verdict.
	Evaluate(m *ir.Module, arch *gpu.Arch) (float64, error)
	// Validate runs the module variant against the held-out set, returning
	// an error unless it passes in full.
	Validate(m *ir.Module, arch *gpu.Arch) error
}

// Costed is the optional cost-attribution extension of Workload:
// EvaluateCosted is Evaluate with a per-evaluation stats handle threaded
// through the launch path and the program cache, so the evaluation pool can
// charge launches, dynamic instructions and cache outcomes to the job that
// requested the evaluation. Implementations must return bit-identical
// fitness to Evaluate — the handle only observes (DESIGN.md §12). A nil st
// must behave exactly like Evaluate.
type Costed interface {
	EvaluateCosted(m *ir.Module, arch *gpu.Arch, st *gpu.EvalStats) (float64, error)
}

// Options carries the per-family dataset knobs accepted by ByNameWith. A
// nil field keeps the tools' standard configuration for that family,
// including the standard dataset seed; a non-nil field is passed through
// verbatim (its own zero values then mean the workload's documented
// defaults).
type Options struct {
	ADEPT  *ADEPTOptions
	SIMCoV *SIMCoVOptions
}

// registry is the single name→constructor table shared by every binary, so
// the set of names (which checkpoints and serve job specs are keyed on)
// cannot drift between tools. Standard dataset seeds live here: ADEPT 11,
// SIMCoV 3. The synthetic families (internal/synth) are appended by init in
// their short default form; parameterized synth: names parse through the
// same generator in ByNameWith.
var registry = []struct {
	name  string
	build func(Options) (Workload, error)
}{
	{"adept-v0", func(o Options) (Workload, error) { return NewADEPT(kernels.ADEPTV0, o.adept()) }},
	{"adept-v1", func(o Options) (Workload, error) { return NewADEPT(kernels.ADEPTV1, o.adept()) }},
	{"simcov", func(o Options) (Workload, error) { return NewSIMCoV(o.simcov()) }},
}

func init() {
	for _, name := range synthNames() {
		name := name
		registry = append(registry, struct {
			name  string
			build func(Options) (Workload, error)
		}{name, func(Options) (Workload, error) { return buildSynth(name) }})
	}
	CLINames = strings.Join(Names(), ", ")
}

func (o Options) adept() ADEPTOptions {
	if o.ADEPT != nil {
		return *o.ADEPT
	}
	return ADEPTOptions{Seed: 11}
}

func (o Options) simcov() SIMCoVOptions {
	if o.SIMCoV != nil {
		return *o.SIMCoV
	}
	return SIMCoVOptions{Seed: 3}
}

// Names lists the registered workload names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i, b := range registry {
		names[i] = b.name
	}
	return names
}

// CLINames is the comma-separated registry listing, for flag help.
var CLINames = strings.Join(Names(), ", ")

// ByName builds a workload from its registered name with the tools'
// standard dataset configuration.
func ByName(name string) (Workload, error) { return ByNameWith(name, Options{}) }

// ByNameWith builds a workload from its registered name with caller-chosen
// dataset options. synth: names accept full parameter spellings
// (synth:FAMILY:seed=S:n=N) beyond the registered defaults; Options does
// not apply to them (the name itself is the complete configuration).
// Unknown names report the full registry.
func ByNameWith(name string, opt Options) (Workload, error) {
	for _, b := range registry {
		if b.name == name {
			return b.build(opt)
		}
	}
	if strings.HasPrefix(name, synth.Prefix) {
		return buildSynth(name)
	}
	return nil, fmt.Errorf("unknown workload %q (known: %s)", name, CLINames)
}

// Profiler is implemented by workloads that can attribute cycles to
// instructions (the nvprof analog used by the Section V analysis).
type Profiler interface {
	// EvaluateProfiled is Evaluate plus per-kernel instruction profiles.
	EvaluateProfiled(m *ir.Module, arch *gpu.Arch) (float64, map[string]*gpu.Profile, error)
}
