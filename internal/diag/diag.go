// Package diag is the deterministic performance-diagnosis layer: it turns
// the raw per-instruction counters the simulator's profiling path records
// (internal/gpu.Profile) into a structured Report attributing dynamic cost
// to IR blocks and instructions — the "why is this candidate fast/slow"
// answer the paper's Section V edit analysis computes by hand, packaged for
// tools and for future diagnosis-driven operators.
//
// Determinism: a Report is a pure function of (workload, arch, genome).
// The profiled evaluation runs on the backend the search runs on, both
// backends record the same profile bit for bit, and every aggregation
// below iterates IR structures in their canonical order (module function
// order, block order, instruction order) — never over Go maps. The same
// spec therefore yields byte-identical Canonical() documents, which the
// golden test pins.
package diag

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/workload"
)

// Report is the per-candidate performance diagnosis: one profiled
// evaluation of a genome on an architecture, attributed to IR structure.
type Report struct {
	// Workload and Arch identify the evaluation; GenomeKey is the canonical
	// genome cache key ("" for the base program) and Edits its readable
	// edit list.
	Workload  string   `json:"workload"`
	Arch      string   `json:"arch"`
	GenomeKey string   `json:"genome_key,omitempty"`
	Edits     []string `json:"edits,omitempty"`
	// FitnessMs is the profiled evaluation's fitness (total kernel ms).
	FitnessMs float64 `json:"fitness_ms"`
	// Kernels holds one diagnosis per profiled kernel, in module function
	// order.
	Kernels []KernelReport `json:"kernels"`
}

// KernelReport attributes one kernel's dynamic cost to its IR.
type KernelReport struct {
	Kernel string `json:"kernel"`
	// TimingOblivious is the uniform-launch taint verdict: true means the
	// kernel's cycle count is provably independent of memory contents, so
	// the memo layer may replay it (see gpu/uniform.go).
	TimingOblivious bool `json:"timing_oblivious"`
	// Launches and TotalCycles come from the profile: profiled launch count
	// and summed grid makespans. BarrierCycles is barrier-release cost,
	// charged per block, not per instruction. IssueCycles is the sum of
	// per-instruction attributed cycles; block Frac values are fractions of
	// it (the makespan itself is a max over warps and SMs, so instruction
	// cycles deliberately do not sum to TotalCycles — Sched carries the
	// exact zero-residue attribution of the makespan).
	Launches      int     `json:"launches"`
	TotalCycles   float64 `json:"total_cycles"`
	IssueCycles   float64 `json:"issue_cycles"`
	BarrierCycles float64 `json:"barrier_cycles"`
	// Blocks is the per-IR-block issue-cost breakdown, in block order.
	Blocks []BlockCost `json:"blocks"`
	// Branches lists executed conditional branches with their divergence
	// behaviour, in block/instruction order.
	Branches []BranchSite `json:"branches,omitempty"`
	// Mem lists executed load/store/atomic sites with their traffic, in
	// block/instruction order.
	Mem []MemSite `json:"mem,omitempty"`
	// Sched is the grid-level attribution of the recorded launches.
	Sched SchedSummary `json:"sched"`
}

// BlockCost is one IR basic block's share of the kernel's issue cycles.
type BlockCost struct {
	Block  string  `json:"block"`
	Cycles float64 `json:"cycles"`
	// Frac is Cycles over the kernel's IssueCycles (0 when no cycles).
	Frac float64 `json:"frac"`
	// Classes breaks the block's cycles down by issue-cost class, in
	// first-appearance (instruction) order.
	Classes []ClassCost `json:"classes,omitempty"`
}

// ClassCost is one issue-cost class's share of a block.
type ClassCost struct {
	// Class is the cost-class label: "alu", "div", "fp", "conv", "shfl",
	// "ballot", "activemask", "branch", "mem.global", "mem.shared" or
	// "atomic".
	Class  string  `json:"class"`
	Cycles float64 `json:"cycles"`
	Count  int64   `json:"count"`
	Lanes  int64   `json:"lanes"`
}

// BranchSite is one conditional branch's accumulated divergence behaviour.
type BranchSite struct {
	UID   int    `json:"uid"`
	Block string `json:"block"`
	// Exec is the warp-level issue count; Div how many issues diverged.
	Exec int64 `json:"exec"`
	Div  int64 `json:"div"`
	// DivFrac is Div/Exec; TakenFrac the fraction of active lanes taking
	// the true successor; MaskedLaneFrac the fraction of active lanes idled
	// by divergence (smaller side of each divergent split).
	DivFrac        float64 `json:"div_frac"`
	TakenFrac      float64 `json:"taken_frac"`
	MaskedLaneFrac float64 `json:"masked_lane_frac"`
}

// MemSite is one load/store/atomic site's accumulated traffic.
type MemSite struct {
	UID   int    `json:"uid"`
	Block string `json:"block"`
	Op    string `json:"op"`
	Space string `json:"space"`
	// Access is the warp-level access count, Lanes the active lanes summed
	// across accesses, Txns the serialization units paid (global 128-byte
	// segments, shared bank replays, serialized atomic lanes).
	Access int64 `json:"access"`
	Lanes  int64 `json:"lanes"`
	Txns   int64 `json:"txns"`
	// TxnsPerAccess is Txns/Access — the coalescing/conflict quality signal
	// (1.0 = perfectly coalesced / conflict-free).
	TxnsPerAccess float64 `json:"txns_per_access"`
	// Cycles is the issue cost attributed to the site.
	Cycles float64 `json:"cycles"`
}

// SchedSummary is the grid-level attribution: replaying the recorded
// per-block timings through the SM scheduler reproduces each launch's
// makespan exactly, so the launch total attributes to SMs and blocks with
// zero residue.
type SchedSummary struct {
	// Launches is the recorded launch count; Cycles their summed makespans
	// (equals TotalCycles).
	Launches int     `json:"launches"`
	Cycles   float64 `json:"cycles"`
	// MaxResidue is the largest |replayed makespan − recorded makespan|
	// across launches. It is exactly zero by construction (same greedy
	// loop, same float64 addition order); the exactness test asserts it.
	MaxResidue float64 `json:"max_residue"`
	// MeanSMUtil is the mean over launches of total block cycles divided by
	// SMs × makespan — 1.0 means a perfectly balanced grid.
	MeanSMUtil float64 `json:"mean_sm_util"`
}

// Diagnose evaluates the genome on the workload with profiling and builds
// the report. The workload must implement workload.Profiler (all registry
// and synth workloads do).
func Diagnose(w workload.Workload, arch *gpu.Arch, genome []core.Edit) (*Report, error) {
	p, ok := w.(workload.Profiler)
	if !ok {
		return nil, fmt.Errorf("diag: workload %s cannot profile", w.Name())
	}
	m := core.Variant(w.Base(), genome)
	ms, profs, err := p.EvaluateProfiled(m, arch)
	if err != nil {
		return nil, fmt.Errorf("diag: profiled evaluation: %w", err)
	}
	prog, err := gpu.Prepare(m)
	if err != nil {
		return nil, fmt.Errorf("diag: prepare: %w", err)
	}
	r := &Report{
		Workload:  w.Name(),
		Arch:      arch.Name,
		GenomeKey: core.GenomeKey(genome),
		FitnessMs: ms,
	}
	for _, e := range genome {
		r.Edits = append(r.Edits, e.String())
	}
	for _, f := range m.Funcs {
		prof := profs[f.Name]
		if prof == nil {
			continue
		}
		kr := kernelReport(f, prog.Kernels[f.Name], prof)
		r.Kernels = append(r.Kernels, kr)
	}
	return r, nil
}

// kernelReport attributes one kernel's profile to its IR function.
func kernelReport(f *ir.Function, k *gpu.Kernel, prof *gpu.Profile) KernelReport {
	kr := KernelReport{
		Kernel:        f.Name,
		Launches:      prof.Launches,
		TotalCycles:   prof.TotalCycles,
		IssueCycles:   prof.SumCycles(),
		BarrierCycles: prof.BarrierCycles,
	}
	if k != nil {
		kr.TimingOblivious = k.TimingOblivious()
	}
	for _, b := range f.Blocks {
		bc := BlockCost{Block: b.Name}
		classIdx := map[string]int{}
		for _, in := range b.Instrs {
			cyc := prof.Cycles(in.UID)
			cnt := prof.Count(in.UID)
			lanes := prof.Lanes(in.UID)
			bc.Cycles += cyc
			if cnt > 0 {
				cls := classOf(in)
				i, ok := classIdx[cls]
				if !ok {
					i = len(bc.Classes)
					classIdx[cls] = i
					bc.Classes = append(bc.Classes, ClassCost{Class: cls})
				}
				bc.Classes[i].Cycles += cyc
				bc.Classes[i].Count += cnt
				bc.Classes[i].Lanes += lanes
			}
			switch {
			case in.Op == ir.OpCondBr:
				if bs := prof.BranchStat(in.UID); bs.Exec > 0 {
					kr.Branches = append(kr.Branches, BranchSite{
						UID: in.UID, Block: b.Name,
						Exec: bs.Exec, Div: bs.Div,
						DivFrac:        ratio(float64(bs.Div), float64(bs.Exec)),
						TakenFrac:      ratio(float64(bs.Taken), float64(bs.Active)),
						MaskedLaneFrac: ratio(float64(bs.Masked), float64(bs.Active)),
					})
				}
			case in.Op == ir.OpLoad || in.Op == ir.OpStore || isAtomic(in.Op):
				if msf := prof.MemStat(in.UID); msf.Access > 0 {
					kr.Mem = append(kr.Mem, MemSite{
						UID: in.UID, Block: b.Name,
						Op: in.Op.String(), Space: in.Space.String(),
						Access: msf.Access, Lanes: msf.Lanes, Txns: msf.Txns,
						TxnsPerAccess: ratio(float64(msf.Txns), float64(msf.Access)),
						Cycles:        cyc,
					})
				}
			}
		}
		if kr.IssueCycles > 0 {
			bc.Frac = bc.Cycles / kr.IssueCycles
		}
		kr.Blocks = append(kr.Blocks, bc)
	}
	kr.Sched = schedSummary(prof.LaunchRecords())
	return kr
}

// schedSummary replays each recorded launch through the SM scheduler and
// summarizes the grid-level attribution.
func schedSummary(recs []gpu.LaunchRecord) SchedSummary {
	s := SchedSummary{Launches: len(recs)}
	var utilSum float64
	utilN := 0
	for _, rec := range recs {
		s.Cycles += rec.Cycles
		loads, _ := gpu.ScheduleSMLoads(rec.BlockCycles, rec.SMs)
		var makespan, total float64
		for _, l := range loads {
			if l > makespan {
				makespan = l
			}
			total += l
		}
		if res := math.Abs(makespan - rec.Cycles); res > s.MaxResidue {
			s.MaxResidue = res
		}
		if makespan > 0 && rec.SMs > 0 {
			utilSum += total / (float64(rec.SMs) * makespan)
			utilN++
		}
	}
	if utilN > 0 {
		s.MeanSMUtil = utilSum / float64(utilN)
	}
	return s
}

func isAtomic(op ir.Opcode) bool { return op >= ir.OpAtomicAdd && op <= ir.OpAtomicExch }

// classOf labels an instruction's cost class: memory operations by space,
// atomics as "atomic", everything else by the issue-cost class table.
func classOf(in *ir.Instr) string {
	switch {
	case isAtomic(in.Op):
		return "atomic"
	case in.Op == ir.OpLoad || in.Op == ir.OpStore:
		return "mem." + in.Space.String()
	case in.Op == ir.OpBarrier:
		return "barrier"
	default:
		return gpu.CostClassName(in.Op)
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Canonical returns the report's canonical byte serialization (indented
// JSON). Byte-identical for the same (workload, arch, genome) — the golden
// test's contract.
func (r *Report) Canonical() ([]byte, error) {
	return json.MarshalIndent(r, "", " ")
}

// WriteText renders the report as a human-readable summary.
func (r *Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "diagnosis: %s on %s\n", r.Workload, r.Arch)
	if len(r.Edits) > 0 {
		fmt.Fprintf(w, "genome (%d edits):\n", len(r.Edits))
		for _, e := range r.Edits {
			fmt.Fprintf(w, "  %s\n", e)
		}
	} else {
		fmt.Fprintf(w, "genome: base program\n")
	}
	fmt.Fprintf(w, "fitness: %.6f ms\n", r.FitnessMs)
	for _, k := range r.Kernels {
		fmt.Fprintf(w, "\nkernel %s: launches=%d total=%.0f cycles issue=%.0f barrier=%.0f oblivious=%v\n",
			k.Kernel, k.Launches, k.TotalCycles, k.IssueCycles, k.BarrierCycles, k.TimingOblivious)
		fmt.Fprintf(w, "  sched: %d launches, mean SM util %.3f, max residue %g\n",
			k.Sched.Launches, k.Sched.MeanSMUtil, k.Sched.MaxResidue)
		fmt.Fprintf(w, "  %-14s %12s %6s  classes\n", "block", "cycles", "frac")
		for _, b := range k.Blocks {
			fmt.Fprintf(w, "  %-14s %12.0f %5.1f%%  ", b.Block, b.Cycles, 100*b.Frac)
			for i, c := range b.Classes {
				if i > 0 {
					fmt.Fprint(w, " ")
				}
				fmt.Fprintf(w, "%s=%.0f", c.Class, c.Cycles)
			}
			fmt.Fprintln(w)
		}
		if len(k.Branches) > 0 {
			fmt.Fprintf(w, "  %-14s %6s %8s %8s %8s %8s\n", "branch", "uid", "exec", "div%", "taken%", "masked%")
			for _, br := range k.Branches {
				fmt.Fprintf(w, "  %-14s %6d %8d %7.1f%% %7.1f%% %7.1f%%\n",
					br.Block, br.UID, br.Exec, 100*br.DivFrac, 100*br.TakenFrac, 100*br.MaskedLaneFrac)
			}
		}
		if len(k.Mem) > 0 {
			fmt.Fprintf(w, "  %-14s %6s %-10s %-7s %8s %10s %8s %12s\n", "mem", "uid", "op", "space", "access", "txns", "txn/acc", "cycles")
			for _, m := range k.Mem {
				fmt.Fprintf(w, "  %-14s %6d %-10s %-7s %8d %10d %8.2f %12.0f\n",
					m.Block, m.UID, m.Op, m.Space, m.Access, m.Txns, m.TxnsPerAccess, m.Cycles)
			}
		}
	}
	return nil
}

// traceEvent is one Chrome trace_event record (same shape obs uses).
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TsUs  float64        `json:"ts"`
	DurUs float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// WriteChromeTrace renders the report as Chrome trace_event JSON: one
// process per kernel, one track (thread) per IR block, the block's issue
// cycles laid out as consecutive slices per cost class (1 cycle = 1 µs).
// Load the file in Perfetto or chrome://tracing.
func (r *Report) WriteChromeTrace(w io.Writer) error {
	var evs []traceEvent
	meta := func(pid, tid int, key, name string) traceEvent {
		return traceEvent{Name: key, Phase: "M", PID: pid, TID: tid,
			Args: map[string]any{"name": name}}
	}
	for ki, k := range r.Kernels {
		pid := ki + 1
		evs = append(evs, meta(pid, 0, "process_name", "kernel "+k.Kernel))
		for bi, b := range k.Blocks {
			tid := bi + 1
			evs = append(evs, meta(pid, tid, "thread_name", "block "+b.Block))
			ts := 0.0
			for _, c := range b.Classes {
				if c.Cycles <= 0 {
					continue
				}
				evs = append(evs, traceEvent{
					Name: c.Class, Phase: "X", TsUs: ts, DurUs: c.Cycles,
					PID: pid, TID: tid,
					Args: map[string]any{"count": c.Count, "lanes": c.Lanes},
				})
				ts += c.Cycles
			}
		}
	}
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range evs {
		blob, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(evs)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(blob, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}

// Residue replays every recorded launch of every kernel profile through the
// SM scheduler and returns the largest absolute difference between replayed
// and recorded makespans, plus the largest difference between the critical
// SM's sequential block sum and the makespan. Both are exactly zero — the
// "no residue" invariant the acceptance test pins across workloads.
func Residue(profs map[string]*gpu.Profile) (maxMakespan, maxCritical float64) {
	names := make([]string, 0, len(profs))
	for name := range profs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		for _, rec := range profs[name].LaunchRecords() {
			loads, assign := gpu.ScheduleSMLoads(rec.BlockCycles, rec.SMs)
			makespan, critical := 0.0, 0
			for i, l := range loads {
				if l > makespan {
					makespan = l
					critical = i
				}
			}
			if d := math.Abs(makespan - rec.Cycles); d > maxMakespan {
				maxMakespan = d
			}
			// The critical SM's blocks, summed in assignment order, must hit
			// the makespan exactly: same additions in the same order.
			var sum float64
			for b, sm := range assign {
				if sm == critical {
					sum += rec.BlockCycles[b]
				}
			}
			if d := math.Abs(sum - rec.Cycles); d > maxCritical {
				maxCritical = d
			}
		}
	}
	return maxMakespan, maxCritical
}
