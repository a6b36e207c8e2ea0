package gpu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"gevo/internal/ir"
)

// The threaded backend. Lowering (uopFor, fuseCmpBranches) assigns every
// instruction shape a dense micro-opcode, and three single-purpose pieces
// execute a block's contiguous []uop array:
//
//   - control: runWarpU, the driver — SIMT stack, budget, branches, barrier,
//     return, the escape call and, in a profiled launch, a call to the
//     recorder per straight-line run and per conditional branch
//     (profileRun, profileBranch). It keeps the budget,
//     register file and active mask in locals across instructions and
//     dispatches through one jump-table switch: no closure call, no
//     operand-kind resolution, no per-lane type switch.
//   - arithmetic: aluU, one case per register-to-register lane loop, and
//     cmpMaskU, the same loops for a compare fused into its branch. Neither
//     touches cycles or budget; the driver charges what they compute.
//   - memory: loadU/storeU, the twelve load/store micro-ops with their bounds
//     checks, fault order and cost model.
//
// They are separate functions because of how the Go compiler treats a large
// one: past 5 000 nodes a function is "big" and only trivial callees inline
// into it, and its registers are allocated over the whole switch, so as one
// 1 476-line function an edit to one case moved the speed of every other.
// scripts/check_inlining.sh holds the present shape in CI. The few shapes with
// no micro-op (uEscape) are the closed set listed at the top of dispatch.go,
// where the reason each is not one is given.
//
// The table is indexed by what a lane loop computes, not by IR opcode x width
// x predicate. Two lowering rules, applied in uopFor and nowhere else, make
// it so. Both rest on registers being canonical — an i32 sign-extended to 64
// bits, an i1 0 or 1 — which constants (Compile), loads, every producing
// micro-op and launch arguments (Launch) guarantee:
//
//   - width: and, or, xor, smin, smax, ashr and srem of canonical operands
//     are canonical (intUop has the one-line proofs), so the 64-bit loop is
//     the i32 loop, and for and/or/xor the i1 loop;
//   - mirror: a > b is b < a and a >= b is b <= a, for integers and for
//     floats (a NaN on either side makes both sides false), so GT and GE are
//     LT and LE with s1 and s2 swapped.
//
// Every lane loop comes twice, a dense full-warp form next to a masked
// bit-iteration form, selected by the mask the driver already holds. That
// pair stays because both halves have traffic, which the product above did
// not: of its 84 non-escape codes 27 were dispatched zero times on every
// benchmark workload. Micro-ops dispatched at the parent of the change that
// split the driver (one atomic.AddInt64 per dispatch in a scratch copy, every
// check kept, one `bash bench/run.sh --seed 1 --seconds 5` process per
// workload, set-up included; never shipped), the share under a partial mask
// with its mean active lanes, and the share by piece — control is branches,
// barrier and return with fused compares; mul-add is uMulAdd64 and
// uChargeOnly, which the driver keeps; arithmetic is what pays the call to
// aluU; re-routed is what the two rules send through another code; invariant,
// measured the same way when the lane-invariance analysis came in, is the
// share that ran its lane-invariant path (uop.inv) — at that change, so of
// other totals (103 722 548, 211 012 217, 72 798 369 and 115 399 833) and with
// search_adept's partial-mask share down to 2.4 % — with scalar, defined
// below, in parentheses:
//
//	                  dispatched   partial mask   control  mul-add  memory  arithmetic  escape  re-routed  invariant (scalar)
//	sim_paper         117 251 576  21.4 % (14.5)   17.6 %   25.8 %  12.9 %      43.3 %   0.5 %     11.1 %     23.2 % (17.4 %)
//	search_adept      478 315 547  56.9 % (1.2)    16.5 %   37.1 %  18.9 %      27.6 %   0            4.9 %     56.3 % (56.1 %)
//	search_synth       61 568 702  43.7 % (12.0)   25.7 %   18.1 %   9.2 %      46.9 %   0.0 %      8.4 %      3.0 % (0.7 %)
//	serve_small_jobs  115 472 077  45.7 % (14.8)   26.5 %   16.5 %   8.5 %      48.5 %   0.0 %      8.4 %      3.1 % (0.4 %)
//
// (search_adept's 1.2 lanes is ADEPT-V0's one-lane memset loop; serve_reads
// launches only in set-up.) The masked-only form was measured when the
// memory micro-ops were split out: 6-8 % slower per paper program. A
// lane-invariant micro-op runs its loop on lane 0 of its operands' words and
// writes its destination's word, filling the active lanes as well
// (fillMasked) only for a destination that has a lane image; for memory
// it skips shapeOf. Scalar is the share of all dispatches that ran the
// lane-invariant path and wrote no lane: a destination that is a word alone
// (homeScalar), or none — a store or a branch. It was measured the same way
// at the change that gave slots their homes, of totals of 128 525 766,
// 211 012 217, 76 411 947 and 115 399 833.

type uopCode uint8

// The enumeration is grouped by the piece that executes the code: the driver's
// own cases first, then the memory micro-ops, then everything aluU computes —
// so each of the two switches indexes a dense jump table.
const (
	uEscape uopCode = iota

	// uChargeOnly is an identity copy whose every consumer was redirected
	// to its source (see finalizeKernel): only budget and cycles remain.
	uChargeOnly
	// uMulAdd64 fuses the address-computation idiom mul64 feeding a
	// single-use add64 (GlobalIdx): one lane pass, two instructions'
	// budget and cycles.
	uMulAdd64

	uBr
	uCondBr
	uRet
	uBarrier

	// Fused compare+branch, in the order of the compare codes below: an
	// icmp/fcmp whose only use is the block's conditional branch skips
	// materializing its i1 lanes — the compare feeds the branch mask directly
	// (cmpMaskU). Budget and cycle accounting remain those of two
	// instructions.
	uICmpBrEQ
	uICmpBrNE
	uICmpBrLT
	uICmpBrLE
	uFCmpBrEQ
	uFCmpBrNE
	uFCmpBrLT
	uFCmpBrLE

	uLoadG8
	uLoadG4
	uLoadG1
	uLoadS8
	uLoadS4
	uLoadS1
	uStoreG8
	uStoreG4
	uStoreG1
	uStoreS8
	uStoreS4
	uStoreS1

	// Integer arithmetic whose result depends on the width (see intUop): an
	// i32 loop that renormalises and an i64 loop.
	uAdd32
	uSub32
	uMul32
	uSDiv32
	uShl32
	uLShr32

	uAdd64
	uSub64
	uMul64
	uSDiv64
	uShl64
	uLShr64

	// Integer arithmetic closed on canonical registers: one loop for i64,
	// i32 and, for and/or/xor, i1.
	uSRem
	uAnd
	uOr
	uXor
	uAShr
	uSMin
	uSMax

	// Float arithmetic in ir.Opcode order (OpFAdd..OpFMax).
	uFAdd
	uFSub
	uFMul
	uFDiv
	uFMin
	uFMax

	// Comparisons, ir.PredEQ..PredLE; GT and GE are LT and LE with the
	// operands swapped (see uopFor).
	uICmpEQ
	uICmpNE
	uICmpLT
	uICmpLE
	uFCmpEQ
	uFCmpNE
	uFCmpLT
	uFCmpLE

	uSelect
	uSextTo64 // sext/trunc to i64: identity on canonical registers
	uSextTo32 // sext/trunc to i32
	uZext32to64
	uShfl
	uBallot
	uActiveMask

	// numUops bounds the table: VerifyProgram rejects a code at or past it,
	// and TestEscapeSetIsClosed fails for a code below it that no admitted
	// shape emits.
	numUops
)

// isFusedCmpBr reports whether c is one of the fused compare+branch codes.
func isFusedCmpBr(c uopCode) bool { return c >= uICmpBrEQ && c <= uFCmpBrLE }

// intUop maps integer arithmetic (index: opcode - ir.OpAdd) to its lane loop
// on i32 and on i64 registers. Registers hold canonical values — an i32
// sign-extended to 64 bits, an i1 as 0 or 1 — and seven operations are closed
// on them, so the 64-bit loop already yields the canonical narrow result and
// one code serves every width: a bitwise op of two sign-extensions is a
// sign-extension (and of two 0/1 values, 0 or 1); smin/smax return one of
// their operands; an arithmetic shift right moves a value towards 0 or -1;
// |x rem y| <= |x|. The other six can leave the i32 range — add/sub/mul/shl
// overflow, MinInt32 / -1 = 2^31, lshr of a negative i32 must shift zeros in
// at bit 31, not bit 63 — and keep an i32 loop that renormalises
// (TestWidthFreeOpsAreClosed has a counter-example for each).
var intUop = [...][2]uopCode{
	ir.OpAdd - ir.OpAdd:  {uAdd32, uAdd64},
	ir.OpSub - ir.OpAdd:  {uSub32, uSub64},
	ir.OpMul - ir.OpAdd:  {uMul32, uMul64},
	ir.OpSDiv - ir.OpAdd: {uSDiv32, uSDiv64},
	ir.OpSRem - ir.OpAdd: {uSRem, uSRem},
	ir.OpAnd - ir.OpAdd:  {uAnd, uAnd},
	ir.OpOr - ir.OpAdd:   {uOr, uOr},
	ir.OpXor - ir.OpAdd:  {uXor, uXor},
	ir.OpShl - ir.OpAdd:  {uShl32, uShl64},
	ir.OpLShr - ir.OpAdd: {uLShr32, uLShr64},
	ir.OpAShr - ir.OpAdd: {uAShr, uAShr},
	ir.OpSMin - ir.OpAdd: {uSMin, uSMin},
	ir.OpSMax - ir.OpAdd: {uSMax, uSMax},
}

// uop is one pre-decoded micro-instruction: every operand an extended
// register-file offset, control-flow targets and cost class pre-bound.
type uop struct {
	code uopCode
	cls  costClass
	// cls2 is the second instruction's cost class in fused pairs.
	cls2 costClass
	both bool
	// inv marks a micro-op whose operands are all lane-invariant
	// (markLaneInvariant). Its s1, s2, s3 and d are words (Kernel.wordOf):
	// it computes one value from the operands' and writes the destination's,
	// and a memory micro-op is a broadcast.
	inv bool
	// lanes marks a lane-invariant micro-op whose destination has a lane
	// image (a home other than homeScalar): the value also goes to the
	// active lanes at fill.
	lanes bool
	d     int32
	s1    int32
	s2    int32
	s3    int32
	// control fields (uBr/uCondBr): successor and reconvergence blocks.
	succ0  int32
	succ1  int32
	reconv int32
	uid    int32
	// fill is the lane image of a lane-invariant micro-op's destination.
	fill int32
}

// uopFor translates a decoded instruction into its uop; ok=false means the
// shape has none and escapes (the set listed at the top of dispatch.go).
func uopFor(cb *cblock, in *cinstr) (uop, bool) {
	u := uop{cls: in.cost, uid: in.uid}
	if in.dst >= 0 {
		u.d = in.dst * warpSize
	}
	setArgs := func(n int) {
		if n > 0 {
			u.s1 = in.args[0].ebase
		}
		if n > 1 {
			u.s2 = in.args[1].ebase
		}
		if n > 2 {
			u.s3 = in.args[2].ebase
		}
	}
	switch in.op {
	case ir.OpBarrier:
		u.code = uBarrier
		return u, true
	case ir.OpRet:
		u.code = uRet
		return u, true
	case ir.OpBr:
		u.code = uBr
		u.succ0 = in.succs[0]
		return u, true
	case ir.OpCondBr:
		u.code = uCondBr
		setArgs(1)
		u.succ0, u.succ1 = in.succs[0], in.succs[1]
		u.reconv = cb.ipdom
		u.both = in.succs[0] != cb.ipdom && in.succs[1] != cb.ipdom
		return u, true
	case ir.OpLoad:
		setArgs(1)
		switch in.typ {
		case ir.I64, ir.F64:
			u.code = uLoadG8
		case ir.I32:
			u.code = uLoadG4
		case ir.I8:
			u.code = uLoadG1
		default:
			return u, false
		}
		if in.space == ir.SpaceShared {
			u.code += uLoadS8 - uLoadG8
		}
		return u, true
	case ir.OpStore:
		setArgs(2)
		switch in.args[0].typ {
		case ir.I64, ir.F64:
			u.code = uStoreG8
		case ir.I32:
			u.code = uStoreG4
		case ir.I8:
			u.code = uStoreG1
		default:
			return u, false
		}
		if in.space == ir.SpaceShared {
			u.code += uStoreS8 - uStoreG8
		}
		return u, true
	case ir.OpICmp, ir.OpFCmp:
		setArgs(2)
		// The mirror rule: a > b is b < a and a >= b is b <= a (with a NaN
		// both sides are false), so GT and GE run the LT and LE loops on
		// swapped operands. fuseCmpBranches inherits the swap.
		pred := in.pred
		if pred == ir.PredGT || pred == ir.PredGE {
			u.s1, u.s2 = u.s2, u.s1
			pred -= ir.PredGT - ir.PredLT
		}
		u.code = uICmpEQ + uopCode(pred)
		if in.op == ir.OpFCmp {
			u.code = uFCmpEQ + uopCode(pred)
		}
		return u, true
	case ir.OpSelect:
		setArgs(3)
		u.code = uSelect
		return u, true
	case ir.OpSext, ir.OpTrunc:
		setArgs(1)
		switch in.typ {
		case ir.I64:
			if in.deadCopy {
				u.code = uChargeOnly
			} else {
				u.code = uSextTo64
			}
		case ir.I32:
			u.code = uSextTo32
		default:
			return u, false
		}
		return u, true
	case ir.OpZext:
		setArgs(1)
		if in.args[0].typ == ir.I32 && in.typ == ir.I64 {
			u.code = uZext32to64
			return u, true
		}
		return u, false
	case ir.OpShfl:
		setArgs(2)
		u.code = uShfl
		return u, true
	case ir.OpBallot:
		setArgs(1)
		u.code = uBallot
		return u, true
	case ir.OpActiveMask:
		u.code = uActiveMask
		return u, true
	}
	if in.op.IsIntArith() {
		setArgs(2)
		// The width rule: see intUop.
		codes := intUop[in.op-ir.OpAdd]
		switch in.typ {
		case ir.I32:
			u.code = codes[0]
		case ir.I64:
			u.code = codes[1]
		case ir.I1:
			// ir.Verify admits and/or/xor only: on 0/1 registers the bitwise
			// loops preserve canonical form, matching normValue(I1, ...).
			if in.op != ir.OpAnd && in.op != ir.OpOr && in.op != ir.OpXor {
				return u, false
			}
			u.code = codes[1]
		default:
			return u, false
		}
		return u, true
	}
	if in.op.IsFloatArith() {
		setArgs(2)
		u.code = uFAdd + uopCode(in.op-ir.OpFAdd)
		return u, true
	}
	return u, false
}

// runWarpU executes the warp through the uop jump table. It is the threaded
// backend's driver and keeps control flow only — the SIMT stack, the budget,
// branches, barrier and return, the escape call, and the two micro-ops whose
// accounting is not one instruction's (uMulAdd64, uChargeOnly); a memory
// micro-op goes to loadU/storeU, and every other code is lane arithmetic,
// which aluU computes and the default arm charges. Semantics mirror runWarp
// instruction for instruction, with one exit runWarp does not have: a branch
// after which transferT proves the warp never finishes leaves through the
// timeout the budget would have reached. Entering the driver, every store and
// every escape advance the effect epoch that proof depends on (blockCtx.epoch).
// A profiled launch records each straight-line run as the driver enters it
// (profileRun) and each conditional branch at its arm (profileBranch), so no
// micro-op tests for a profile.
//
// The budget lives in a local for the whole run and is written back by hand
// on each of the few exits: a deferred write-back would make it a by-reference
// capture, in memory for every instruction.
func (c *blockCtx) runWarpU(w *warp) error {
	c.epoch++ // other warps may have run, and written, since the last call
	bud := *c.budget
	regs := w.regs
	costs := &c.costs
	arch := c.arch
	for {
		if len(w.stack) == 0 {
			w.done = true
			*c.budget = bud
			return nil
		}
		if len(w.stack) > maxStackDepth {
			*c.budget = bud
			return &ExecError{Kernel: c.k.Name, Msg: "SIMT stack overflow (malformed control flow)"}
		}
		ei := len(w.stack) - 1
		e := &w.stack[ei]
		e.mask &^= w.doneMask
		if e.mask == 0 {
			w.stack = w.stack[:ei]
			continue
		}
		blk := &c.k.blocks[e.block]
		uops, ins := blk.uops, blk.ins
		mask := e.mask
		// The quarter-warp issue skew depends only on the active mask, which
		// is constant for the whole straight-line run: hoist it out of the
		// per-instruction accounting. The addition order matches account():
		// (cost + skew) then cycles += (that).
		skew := arch.QuarterWarpSkew * float64(bits.TrailingZeros32(mask)/8)
		pc := e.pc
		if c.prof != nil {
			c.profileRun(w)
		}
	straight:
		for {
			if int(pc) >= len(uops) {
				*c.budget = bud
				return &ExecError{Kernel: c.k.Name, Msg: "fell off block " + blk.name}
			}
			bud--
			if bud <= 0 {
				goto timeout
			}
			u := &uops[pc]
			if laneInvarianceCheck != nil && u.inv {
				laneInvarianceCheck(c.k, regs, u, mask)
			}
			switch u.code {
			case uEscape:
				c.epoch++ // atomics and the i1 store write; the pure escapes ride along
				if err := c.execInstr(w, e, &ins[pc]); err != nil {
					*c.budget = bud
					return err
				}
				pc++
			case uChargeOnly:
				w.cycles += costs[u.cls] + skew
				pc++
			case uMulAdd64:
				if u.inv {
					v := uint64(int64(regs[u.s3]) + int64(regs[u.s1])*int64(regs[u.s2]))
					regs[u.d] = v
					if u.lanes || laneInvarianceCheck != nil {
						fillMasked(regs[u.fill:u.fill+warpSize], mask, v)
					}
				} else {
					s1, s2, s3 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize], regs[u.s3:u.s3+warpSize]
					dl := regs[u.d : u.d+warpSize : u.d+warpSize]
					if mask == fullMask {
						s1, s2, s3 := s1[:warpSize], s2[:warpSize], s3[:warpSize]
						for l := 0; l < warpSize; l++ {
							dl[l] = uint64(int64(s3[l]) + int64(s1[l])*int64(s2[l]))
						}
					} else {
						for m := mask; m != 0; m &= m - 1 {
							l := bits.TrailingZeros32(m) & 31
							dl[l] = uint64(int64(s3[l]) + int64(s1[l])*int64(s2[l]))
						}
					}
				}
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				w.cycles += costs[u.cls2] + skew
				pc += 2
			case uBarrier:
				e.pc = pc + 1
				w.waiting = true
				*c.budget = bud
				return nil
			case uRet:
				w.cycles += costs[costBranch] + skew
				w.doneMask |= mask
				w.stack = w.stack[:ei]
				break straight
			case uBr:
				w.cycles += costs[costBranch] + skew
				e.pc = pc
				if c.transferT(w, u.succ0) {
					goto timeout
				}
				break straight
			case uCondBr, uICmpBrEQ, uICmpBrNE, uICmpBrLT, uICmpBrLE, uFCmpBrEQ, uFCmpBrNE, uFCmpBrLT, uFCmpBrLE:
				var maskT uint32
				if u.code == uCondBr {
					cond := regs[u.s1 : u.s1+warpSize]
					if u.inv {
						if cond[0]&1 != 0 {
							maskT = mask
						}
					} else if mask == fullMask {
						cond := cond[:warpSize]
						for l := 0; l < warpSize; l++ {
							maskT |= uint32(cond[l]&1) << l
						}
					} else {
						for m := mask; m != 0; m &= m - 1 {
							lane := bits.TrailingZeros32(m) & 31
							maskT |= uint32(cond[lane]&1) << lane
						}
					}
				} else {
					// A fused pair: the compare is charged, then the branch
					// it feeds takes its own unit of budget. A lane-invariant
					// compare tests its operands' words for all of them.
					if !u.inv {
						maskT = cmpMaskU(regs, u, mask)
					} else if cmpMaskU(regs, u, 1) != 0 {
						maskT = mask
					}
					w.cycles += costs[u.cls] + skew
					bud--
					if bud <= 0 {
						goto timeout
					}
				}
				maskF := mask &^ maskT
				if c.prof != nil {
					c.profileBranch(w, pc, maskT)
				}
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					if c.transferT(w, u.succ0) {
						goto timeout
					}
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					if c.transferT(w, u.succ1) {
						goto timeout
					}
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uLoadG8, uLoadG4, uLoadG1, uLoadS8, uLoadS4, uLoadS1:
				if err := c.loadU(w, u, mask, skew); err != nil {
					*c.budget = bud
					return err
				}
				pc++
			case uStoreG8, uStoreG4, uStoreG1, uStoreS8, uStoreS4, uStoreS1:
				if err := c.storeU(w, u, mask, skew); err != nil {
					*c.budget = bud
					return err
				}
				pc++
			default:
				if u.inv {
					// The lane loop on lane 0 of the words, then the value in
					// the active lanes if the destination keeps them.
					aluU(regs, u, 1)
					if u.lanes || laneInvarianceCheck != nil {
						fillMasked(regs[u.fill:u.fill+warpSize], mask, regs[u.d])
					}
				} else {
					aluU(regs, u, mask)
				}
				w.cycles += costs[u.cls] + skew
				pc++
			}
		}
	}
timeout:
	*c.budget = bud
	return &TimeoutError{Kernel: c.k.Name}
}

// profileRun records the run the warp's top stack entry is about to execute
// as the interpreter's account would: what a run executes is fixed when it
// starts — every micro-op up to the first control micro-op, charged its issue
// cost plus the run's skew, then that micro-op's own charge (none for a
// barrier; a conditional branch's waits for profileBranch). Escapes and memory
// micro-ops record themselves. A UID occurs once per run and runs are recorded
// in order, so each UID's floats are summed in the interpreter's order. A
// launch that fails inside a run has recorded all of it. Recording at the run's
// entry, not at its exits, is the cheaper form (DESIGN §5).
func (c *blockCtx) profileRun(w *warp) {
	e := &w.stack[len(w.stack)-1]
	blk, mask := &c.k.blocks[e.block], e.mask
	skew := c.arch.QuarterWarpSkew * float64(bits.TrailingZeros32(mask)/8)
	p, lanes := c.prof, int64(bits.OnesCount32(mask))
	for i := int(e.pc); i < len(blk.uops); i++ {
		in := &blk.ins[i]
		switch code := blk.uops[i].code; {
		case code == uEscape || (code >= uLoadG8 && code <= uStoreS1):
		case code == uMulAdd64:
			p.record(in.uid, c.costs[in.cost]+skew, lanes)
			i++
			p.record(blk.ins[i].uid, c.costs[blk.ins[i].cost]+skew, lanes)
		case code == uBarrier || code == uCondBr:
			return
		case code == uBr || code == uRet:
			p.record(in.uid, c.costs[costBranch]+skew, lanes)
			return
		case isFusedCmpBr(code):
			p.record(in.uid, c.costs[in.cost]+skew, lanes)
			return
		default:
			p.record(in.uid, c.costs[in.cost]+skew, lanes)
		}
	}
}

// profileBranch records the conditional branch that ends the warp's run at
// pc (for a fused pair, the compare's pc) and sent the lanes of maskT to its
// first successor: recordBranch and the branch's charge, with the divergence
// penalty when both successors run.
func (c *blockCtx) profileBranch(w *warp, pc int32, maskT uint32) {
	e := &w.stack[len(w.stack)-1]
	blk, mask := &c.k.blocks[e.block], e.mask
	skew := c.arch.QuarterWarpSkew * float64(bits.TrailingZeros32(mask)/8)
	if isFusedCmpBr(blk.uops[pc].code) {
		pc++
	}
	in := &blk.ins[pc]
	lanes, maskF := bits.OnesCount32(mask), mask&^maskT
	c.prof.recordBranch(in.uid, lanes, bits.OnesCount32(maskT), maskT != 0 && maskF != 0)
	cost := c.costs[costBranch]
	if maskT != 0 && maskF != 0 {
		cost += c.arch.DivergePenalty
	}
	c.prof.record(in.uid, cost+skew, int64(lanes))
}

// aluU executes one register-to-register micro-op under mask: integer and
// float arithmetic, compares, select, the conversions and the warp
// primitives — every code past the memory micro-ops. It only computes lanes;
// the driver charges the issue cost.
func aluU(regs []uint64, u *uop, mask uint32) {
	switch u.code {
	case uAdd32:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = normI32(uint64(int64(s1[l]) + int64(s2[l])))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = normI32(uint64(int64(s1[l]) + int64(s2[l])))
			}
		}
	case uSub32:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = normI32(uint64(int64(s1[l]) - int64(s2[l])))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = normI32(uint64(int64(s1[l]) - int64(s2[l])))
			}
		}
	case uMul32:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = normI32(uint64(int64(s1[l]) * int64(s2[l])))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = normI32(uint64(int64(s1[l]) * int64(s2[l])))
			}
		}
	case uSDiv32:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				var r int64
				if y := int64(s2[l]); y != 0 {
					r = int64(s1[l]) / y
				}
				dl[l] = normI32(uint64(r))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				var r int64
				if y := int64(s2[l]); y != 0 {
					r = int64(s1[l]) / y
				}
				dl[l] = normI32(uint64(r))
			}
		}
	case uShl32:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = normI32(s1[l] << (s2[l] & 63))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = normI32(s1[l] << (s2[l] & 63))
			}
		}
	case uLShr32:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = normI32((s1[l] & 0xFFFFFFFF) >> (s2[l] & 63))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = normI32((s1[l] & 0xFFFFFFFF) >> (s2[l] & 63))
			}
		}
	case uAdd64:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = uint64(int64(s1[l]) + int64(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = uint64(int64(s1[l]) + int64(s2[l]))
			}
		}
	case uSub64:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = uint64(int64(s1[l]) - int64(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = uint64(int64(s1[l]) - int64(s2[l]))
			}
		}
	case uMul64:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = uint64(int64(s1[l]) * int64(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = uint64(int64(s1[l]) * int64(s2[l]))
			}
		}
	case uSDiv64:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				var r int64
				if y := int64(s2[l]); y != 0 {
					r = int64(s1[l]) / y
				}
				dl[l] = uint64(r)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				var r int64
				if y := int64(s2[l]); y != 0 {
					r = int64(s1[l]) / y
				}
				dl[l] = uint64(r)
			}
		}
	case uShl64:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = s1[l] << (s2[l] & 63)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = s1[l] << (s2[l] & 63)
			}
		}
	case uLShr64:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = s1[l] >> (s2[l] & 63)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = s1[l] >> (s2[l] & 63)
			}
		}
	case uSRem:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				var r int64
				if y := int64(s2[l]); y != 0 {
					r = int64(s1[l]) % y
				}
				dl[l] = uint64(r)
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				var r int64
				if y := int64(s2[l]); y != 0 {
					r = int64(s1[l]) % y
				}
				dl[l] = uint64(r)
			}
		}
	case uAnd:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = s1[l] & s2[l]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = s1[l] & s2[l]
			}
		}
	case uOr:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = s1[l] | s2[l]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = s1[l] | s2[l]
			}
		}
	case uXor:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = s1[l] ^ s2[l]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = s1[l] ^ s2[l]
			}
		}
	case uAShr:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = uint64(int64(s1[l]) >> (s2[l] & 63))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = uint64(int64(s1[l]) >> (s2[l] & 63))
			}
		}
	case uSMin:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = uint64(min(int64(s1[l]), int64(s2[l])))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = uint64(min(int64(s1[l]), int64(s2[l])))
			}
		}
	case uSMax:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = uint64(max(int64(s1[l]), int64(s2[l])))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = uint64(max(int64(s1[l]), int64(s2[l])))
			}
		}
	case uFAdd:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) + math.Float64frombits(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) + math.Float64frombits(s2[l]))
			}
		}
	case uFSub:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) - math.Float64frombits(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) - math.Float64frombits(s2[l]))
			}
		}
	case uFMul:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) * math.Float64frombits(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) * math.Float64frombits(s2[l]))
			}
		}
	case uFDiv:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) / math.Float64frombits(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) / math.Float64frombits(s2[l]))
			}
		}
	case uFMin:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = math.Float64bits(math.Min(math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Min(math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
			}
		}
	case uFMax:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = math.Float64bits(math.Max(math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Max(math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
			}
		}
	case uICmpEQ:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = boolBit(int64(s1[l]) == int64(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = boolBit(int64(s1[l]) == int64(s2[l]))
			}
		}
	case uICmpNE:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = boolBit(int64(s1[l]) != int64(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = boolBit(int64(s1[l]) != int64(s2[l]))
			}
		}
	case uICmpLT:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = boolBit(int64(s1[l]) < int64(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = boolBit(int64(s1[l]) < int64(s2[l]))
			}
		}
	case uICmpLE:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = boolBit(int64(s1[l]) <= int64(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = boolBit(int64(s1[l]) <= int64(s2[l]))
			}
		}
	case uFCmpEQ:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = boolBit(math.Float64frombits(s1[l]) == math.Float64frombits(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = boolBit(math.Float64frombits(s1[l]) == math.Float64frombits(s2[l]))
			}
		}
	case uFCmpNE:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = boolBit(math.Float64frombits(s1[l]) != math.Float64frombits(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = boolBit(math.Float64frombits(s1[l]) != math.Float64frombits(s2[l]))
			}
		}
	case uFCmpLT:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = boolBit(math.Float64frombits(s1[l]) < math.Float64frombits(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = boolBit(math.Float64frombits(s1[l]) < math.Float64frombits(s2[l]))
			}
		}
	case uFCmpLE:
		s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = boolBit(math.Float64frombits(s1[l]) <= math.Float64frombits(s2[l]))
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = boolBit(math.Float64frombits(s1[l]) <= math.Float64frombits(s2[l]))
			}
		}
	case uSelect:
		cnd, tv, fv := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize], regs[u.s3:u.s3+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			cnd, tv, fv := cnd[:warpSize], tv[:warpSize], fv[:warpSize]
			for l := 0; l < warpSize; l++ {
				if cnd[l]&1 != 0 {
					dl[l] = tv[l]
				} else {
					dl[l] = fv[l]
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if cnd[l]&1 != 0 {
					dl[l] = tv[l]
				} else {
					dl[l] = fv[l]
				}
			}
		}
	case uSextTo64:
		s := regs[u.s1 : u.s1+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			copy(dl, s[:warpSize])
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = s[l]
			}
		}
	case uSextTo32:
		s := regs[u.s1 : u.s1+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s := s[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = normI32(s[l])
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = normI32(s[l])
			}
		}
	case uZext32to64:
		s := regs[u.s1 : u.s1+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			s := s[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = s[l] & 0xFFFFFFFF
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = s[l] & 0xFFFFFFFF
			}
		}
	case uShfl:
		sv, sl := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		if mask == fullMask {
			sv, sl := sv[:warpSize], sl[:warpSize]
			for l := 0; l < warpSize; l++ {
				dl[l] = sv[int(int64(sl[l]))&(warpSize-1)]
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = sv[int(int64(sl[l]))&(warpSize-1)]
			}
		}
	case uBallot:
		p := regs[u.s1 : u.s1+warpSize]
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		var res uint32
		if mask == fullMask {
			p := p[:warpSize]
			for l := 0; l < warpSize; l++ {
				res |= uint32(p[l]&1) << l
			}
			v := uint64(int64(int32(res)))
			for l := 0; l < warpSize; l++ {
				dl[l] = v
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				res |= uint32(p[l]&1) << l
			}
			v := uint64(int64(int32(res)))
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = v
			}
		}
	case uActiveMask:
		dl := regs[u.d : u.d+warpSize : u.d+warpSize]
		v := uint64(int64(int32(mask)))
		if mask == fullMask {
			for l := 0; l < warpSize; l++ {
				dl[l] = v
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = v
			}
		}
	}
}

// fillMasked writes v to the lanes of mask.
func fillMasked(dl []uint64, mask uint32, v uint64) {
	if mask == fullMask {
		dl = dl[:warpSize]
		for l := range dl {
			dl[l] = v
		}
		return
	}
	for m := mask; m != 0; m &= m - 1 {
		dl[bits.TrailingZeros32(m)&31] = v
	}
}

// cmpMaskU returns the taken-mask of a fused compare+branch: bit l is set when
// active lane l's compare holds. It is the compare's lane loop with the i1
// result kept in a mask instead of written to a register.
func cmpMaskU(regs []uint64, u *uop, mask uint32) uint32 {
	s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
	var maskT uint32
	switch u.code {
	case uICmpBrEQ:
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				if int64(s1[l]) == int64(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if int64(s1[l]) == int64(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		}
	case uICmpBrNE:
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				if int64(s1[l]) != int64(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if int64(s1[l]) != int64(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		}
	case uICmpBrLT:
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				if int64(s1[l]) < int64(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if int64(s1[l]) < int64(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		}
	case uICmpBrLE:
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				if int64(s1[l]) <= int64(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if int64(s1[l]) <= int64(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		}
	case uFCmpBrEQ:
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				if math.Float64frombits(s1[l]) == math.Float64frombits(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if math.Float64frombits(s1[l]) == math.Float64frombits(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		}
	case uFCmpBrNE:
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				if math.Float64frombits(s1[l]) != math.Float64frombits(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if math.Float64frombits(s1[l]) != math.Float64frombits(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		}
	case uFCmpBrLT:
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				if math.Float64frombits(s1[l]) < math.Float64frombits(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if math.Float64frombits(s1[l]) < math.Float64frombits(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		}
	case uFCmpBrLE:
		if mask == fullMask {
			s1, s2 := s1[:warpSize], s2[:warpSize]
			for l := 0; l < warpSize; l++ {
				if math.Float64frombits(s1[l]) <= math.Float64frombits(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				if math.Float64frombits(s1[l]) <= math.Float64frombits(s2[l]) {
					maskT |= uint32(1) << l
				}
			}
		}
	}
	return maskT
}

// The twelve memory micro-ops, uLoad{G,S}{8,4,1} and uStore{G,S}{8,4,1}.
// They were the first piece to leave the one-function driver, which the
// compiler counted as "big" and inlined only trivial callees into: a
// binary.LittleEndian accessor there was a real call per lane, here it is one
// move (scripts/check_inlining.sh holds that in CI).
//
// Both first ask shapeOf what the warp is doing as one. A broadcast is one
// access: one bounds check — every lane would fault, so the lowest active
// one does, on that address, before anything is written — and one read that
// fills the lanes, or one write of the value that survives ascending-lane
// order, the highest active lane's. Every other shape runs the per-lane
// loop, where lane order decides which bytes land before a fault and which
// fault is reported; the loop records the addresses for the cost helpers,
// which is all that reads c.addrs afterwards (a broadcast leaves it stale,
// and its charge never looks). In a memoized replay (c.fast) the loops are
// the same and only the charge is skipped.

// loadU executes one load micro-op under mask and charges it.
func (c *blockCtx) loadU(w *warp, u *uop, mask uint32, skew float64) error {
	k := u.code - uLoadG8
	shared := k >= uLoadS8-uLoadG8
	mem := c.d.mem
	if shared {
		mem = c.shared
		k -= uLoadS8 - uLoadG8
	}
	src := w.regs[u.s1 : u.s1+warpSize]
	dl := w.regs[u.d : u.d+warpSize : u.d+warpSize]
	shape, first := shapeBroadcast, 0
	if !u.inv {
		shape, first = shapeOf(src, mask, shared && !c.fast), bits.TrailingZeros32(mask)&31
	}
	n := 0
	switch {
	case shape == shapeBroadcast:
		a := int64(src[first])
		var v uint64
		switch {
		case a < 0 || a > int64(len(mem))-memWidth[k]:
			return c.loadFault(a, shared, u)
		case k == 0:
			v = binary.LittleEndian.Uint64(mem[a:])
		case k == 1:
			v = uint64(int64(int32(binary.LittleEndian.Uint32(mem[a:]))))
		default:
			v = uint64(int64(int8(mem[a])))
		}
		if !u.inv {
			for m := mask; m != 0; m &= m - 1 {
				dl[bits.TrailingZeros32(m)&31] = v
			}
		} else {
			dl[0] = v
			if u.lanes || laneInvarianceCheck != nil {
				fillMasked(w.regs[u.fill:u.fill+warpSize], mask, v)
			}
		}
	case k == 0:
		hi := int64(len(mem)) - 8
		if mask == fullMask {
			src := src[:warpSize]
			for l := 0; l < warpSize; l++ {
				a := int64(src[l])
				c.addrs[l] = a
				if a < 0 || a > hi {
					return c.loadFault(a, shared, u)
				}
				dl[l] = binary.LittleEndian.Uint64(mem[a:])
			}
			n = warpSize
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				a := int64(src[l])
				c.addrs[n&31] = a
				n++
				if a < 0 || a > hi {
					return c.loadFault(a, shared, u)
				}
				dl[l] = binary.LittleEndian.Uint64(mem[a:])
			}
		}
	case k == 1:
		hi := int64(len(mem)) - 4
		if mask == fullMask {
			src := src[:warpSize]
			for l := 0; l < warpSize; l++ {
				a := int64(src[l])
				c.addrs[l] = a
				if a < 0 || a > hi {
					return c.loadFault(a, shared, u)
				}
				dl[l] = uint64(int64(int32(binary.LittleEndian.Uint32(mem[a:]))))
			}
			n = warpSize
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				a := int64(src[l])
				c.addrs[n&31] = a
				n++
				if a < 0 || a > hi {
					return c.loadFault(a, shared, u)
				}
				dl[l] = uint64(int64(int32(binary.LittleEndian.Uint32(mem[a:]))))
			}
		}
	default:
		hi := int64(len(mem)) - 1
		if mask == fullMask {
			src := src[:warpSize]
			for l := 0; l < warpSize; l++ {
				a := int64(src[l])
				c.addrs[l] = a
				if a < 0 || a > hi {
					return c.loadFault(a, shared, u)
				}
				dl[l] = uint64(int64(int8(mem[a])))
			}
			n = warpSize
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				a := int64(src[l])
				c.addrs[n&31] = a
				n++
				if a < 0 || a > hi {
					return c.loadFault(a, shared, u)
				}
				dl[l] = uint64(int64(int8(mem[a])))
			}
		}
	}
	if c.fast {
		return nil
	}
	var cost float64
	if shared {
		cost = c.sharedCost(n, shape) + c.memPenalty(w) + skew
	} else {
		cost = c.globalCost(n, shape) + c.memPenalty(w) + skew
	}
	w.cycles += cost
	if c.prof != nil {
		c.profileMem(u, cost, mask, shape, shared)
	}
	return nil
}

// memWidth is the access width in bytes by micro-op position within its
// space ({8, 4, 1}, the order of the uLoad*/uStore* codes).
var memWidth = [3]int64{8, 4, 1}

func (c *blockCtx) loadFault(a int64, shared bool, u *uop) error {
	op := "global load"
	if shared {
		op = "shared load"
	}
	return &FaultError{Kernel: c.k.Name, Addr: a, Op: op, UID: int(u.uid)}
}

// storeU executes one store micro-op under mask and charges it. A global
// store marks the arena dirty up to its highest written byte once, after the
// loop or on the way out of a fault (see globalStoreFault).
func (c *blockCtx) storeU(w *warp, u *uop, mask uint32, skew float64) error {
	c.epoch++ // whatever the value: the witness compares registers, not memory
	k := u.code - uStoreG8
	shared := k >= uStoreS8-uStoreG8
	mem := c.d.mem
	if shared {
		mem = c.shared
		k -= uStoreS8 - uStoreG8
	}
	vals := w.regs[u.s1 : u.s1+warpSize]
	src := w.regs[u.s2 : u.s2+warpSize]
	shape, first, last := shapeBroadcast, 0, 0
	if !u.inv {
		shape = shapeOf(src, mask, shared && !c.fast)
		first, last = bits.TrailingZeros32(mask)&31, (31-bits.LeadingZeros32(mask))&31
	}
	n := 0
	var maxEnd int64 = -1
	switch {
	case shape == shapeBroadcast:
		a := int64(src[first])
		v := vals[last]
		switch {
		case a < 0 || a > int64(len(mem))-memWidth[k]:
			return c.storeFault(a, maxEnd, shared, k, u)
		case k == 0:
			binary.LittleEndian.PutUint64(mem[a:], v)
		case k == 1:
			binary.LittleEndian.PutUint32(mem[a:], uint32(v))
		default:
			mem[a] = byte(v)
		}
		maxEnd = a
	case k == 0:
		hi := int64(len(mem)) - 8
		if mask == fullMask {
			src, vals := src[:warpSize], vals[:warpSize]
			for l := 0; l < warpSize; l++ {
				a := int64(src[l])
				c.addrs[l] = a
				if a < 0 || a > hi {
					return c.storeFault(a, maxEnd, shared, k, u)
				}
				binary.LittleEndian.PutUint64(mem[a:], vals[l])
				maxEnd = max(maxEnd, a)
			}
			n = warpSize
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				a := int64(src[l])
				c.addrs[n&31] = a
				n++
				if a < 0 || a > hi {
					return c.storeFault(a, maxEnd, shared, k, u)
				}
				binary.LittleEndian.PutUint64(mem[a:], vals[l])
				maxEnd = max(maxEnd, a)
			}
		}
	case k == 1:
		hi := int64(len(mem)) - 4
		if mask == fullMask {
			src, vals := src[:warpSize], vals[:warpSize]
			for l := 0; l < warpSize; l++ {
				a := int64(src[l])
				c.addrs[l] = a
				if a < 0 || a > hi {
					return c.storeFault(a, maxEnd, shared, k, u)
				}
				binary.LittleEndian.PutUint32(mem[a:], uint32(vals[l]))
				maxEnd = max(maxEnd, a)
			}
			n = warpSize
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				a := int64(src[l])
				c.addrs[n&31] = a
				n++
				if a < 0 || a > hi {
					return c.storeFault(a, maxEnd, shared, k, u)
				}
				binary.LittleEndian.PutUint32(mem[a:], uint32(vals[l]))
				maxEnd = max(maxEnd, a)
			}
		}
	default:
		hi := int64(len(mem)) - 1
		if mask == fullMask {
			src, vals := src[:warpSize], vals[:warpSize]
			for l := 0; l < warpSize; l++ {
				a := int64(src[l])
				c.addrs[l] = a
				if a < 0 || a > hi {
					return c.storeFault(a, maxEnd, shared, k, u)
				}
				mem[a] = byte(vals[l])
				maxEnd = max(maxEnd, a)
			}
			n = warpSize
		} else {
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				a := int64(src[l])
				c.addrs[n&31] = a
				n++
				if a < 0 || a > hi {
					return c.storeFault(a, maxEnd, shared, k, u)
				}
				mem[a] = byte(vals[l])
				maxEnd = max(maxEnd, a)
			}
		}
	}
	if !shared {
		c.d.touch(maxEnd + memWidth[k])
	}
	if c.fast {
		return nil
	}
	var cost float64
	if shared {
		cost = c.sharedCost(n, shape) + skew
	} else {
		cost = c.globalCost(n, shape) + skew
	}
	w.cycles += cost
	if c.prof != nil {
		c.profileMem(u, cost, mask, shape, shared)
	}
	return nil
}

// storeFault builds the fault for a store whose lane at address a is out of
// range; a global one first records what the warp's earlier lanes wrote.
func (c *blockCtx) storeFault(a, maxEnd int64, shared bool, k uopCode, u *uop) error {
	if !shared {
		return c.globalStoreFault(a, maxEnd, memWidth[k], int(u.uid))
	}
	return &FaultError{Kernel: c.k.Name, Addr: a, Op: "shared store", UID: int(u.uid)}
}
