package gpu

import (
	"slices"

	"gevo/internal/ir"
)

// Uniform-launch detection and timing memoization.
//
// A kernel is "timing-oblivious" when its cycle count cannot depend on the
// data it loads: no loaded (or atomically read) value flows into a branch
// condition or a memory address. For such kernels every timing observation
// the simulator makes — active masks, divergence, address coalescing, bank
// conflicts, atomic contention, barrier alignment, dynamic instruction
// counts — is a pure function of (kernel, grid geometry, argument values,
// architecture, arena capacity). Launch memoizes the resulting makespan for
// one device acquisition (Device.memo): a repeat of an identical launch
// signature replays the blocks in functional-only mode (loads/stores/atomics
// still execute, so memory effects are exact) and reuses the recorded cycle
// count, skipping the coalescing scans, conflict modeling and per-instruction
// accounting.
//
// This is the uniform-block structure of the paper's applications: SIMCoV
// launches the same stencil kernels with the same arguments every step, and
// its diffusion/update kernels branch only on grid coordinates — their
// timing is identical across all steps even though the concentrations
// change. Data-dependent kernels (ADEPT's length-driven DP loops, SIMCoV's
// per-cell state machines) are detected by the taint analysis and always
// run fully timed.

// isAtomicOp reports whether the opcode is one of the atomic read-modify-
// write operations.
func isAtomicOp(op ir.Opcode) bool {
	return op == ir.OpAtomicAdd || op == ir.OpAtomicMax || op == ir.OpAtomicCAS || op == ir.OpAtomicExch
}

// kernelTimingOblivious runs the taint analysis over the compiled form:
// loads and atomics introduce taint, every value-producing instruction and
// phi copy propagates it, and the kernel qualifies iff no branch condition
// and no memory address is tainted. Conservative by construction — a false
// negative only costs performance, a false positive would break the
// bit-identity guarantee.
func kernelTimingOblivious(k *Kernel) bool {
	tainted := make([]bool, k.nslots)
	argTainted := func(a *carg) bool { return a.kind == argReg && tainted[a.slot] }

	for changed := true; changed; {
		changed = false
		for bi := range k.blocks {
			cb := &k.blocks[bi]
			for ii := range cb.ins {
				in := &cb.ins[ii]
				if in.dst < 0 {
					continue
				}
				t := false
				switch {
				case in.op == ir.OpLoad || isAtomicOp(in.op):
					// Memory reads are the taint sources. (Atomic results
					// carry the old memory value.)
					t = true
				default:
					for ai := range in.args {
						if argTainted(&in.args[ai]) {
							t = true
							break
						}
					}
				}
				if t && !tainted[in.dst] {
					tainted[in.dst] = true
					changed = true
				}
			}
			for ei := range cb.phiFrom {
				copies := cb.phiFrom[ei].copies
				for ci := range copies {
					if argTainted(&copies[ci].src) && !tainted[copies[ci].dst] {
						tainted[copies[ci].dst] = true
						changed = true
					}
				}
			}
		}
	}

	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			in := &cb.ins[ii]
			switch {
			case in.op == ir.OpCondBr:
				if argTainted(&in.args[0]) {
					return false
				}
			case in.op == ir.OpLoad:
				if argTainted(&in.args[0]) {
					return false
				}
			case in.op == ir.OpStore:
				if argTainted(&in.args[1]) {
					return false
				}
			case isAtomicOp(in.op):
				if argTainted(&in.args[0]) {
					return false
				}
			}
		}
	}
	return true
}

// TimingOblivious reports whether the kernel's cycle count is provably
// independent of memory contents (see kernelTimingOblivious). Exposed for
// tests and benchmark tooling.
func (k *Kernel) TimingOblivious() bool { return k.oblivious }

// memoEntry records one successful launch signature and its makespan.
type memoEntry struct {
	k      *Kernel
	grid   int
	block  int
	args   []uint64
	cycles float64
}

// memoGet returns the memoized makespan of an identical prior launch and
// counts the lookup as a hit or a timed miss.
func (d *Device) memoGet(k *Kernel, cfg *LaunchConfig) (float64, bool) {
	for _, e := range d.memo {
		if e.k == k && e.grid == cfg.Grid && e.block == cfg.Block && slices.Equal(e.args, cfg.Args) {
			metricMemoHits.Inc()
			return e.cycles, true
		}
	}
	metricMemoTimed.Inc()
	return 0, false
}

// memoPut records a successful timed launch of a timing-oblivious kernel.
// Arguments are copied: callers may reuse their slices.
func (d *Device) memoPut(k *Kernel, cfg *LaunchConfig, cycles float64) {
	d.memo = append(d.memo, memoEntry{k: k, grid: cfg.Grid, block: cfg.Block, args: slices.Clone(cfg.Args), cycles: cycles})
}
