package gpu

import (
	"encoding/binary"
	"math"
	"math/bits"

	"gevo/internal/ir"
)

// The threaded backend's driver. Lowering assigns every instruction shape a
// dense micro-opcode; runWarpU dispatches them through one jump-table switch
// over a contiguous []uop array, keeping the budget, register file and active
// mask in locals across instructions — no closure call, no operand-kind
// resolution and no per-lane type switch — except the twelve memory
// micro-ops, which the switch hands to loadU/storeU at the end of this file.
// The few shapes with no micro-op (uEscape) are the closed set listed at the
// top of dispatch.go, where the reason each is not one is given.

type uopCode uint8

const (
	uEscape uopCode = iota

	// Integer arithmetic in ir.Opcode order (OpAdd..OpSMax), i32 then i64.
	uAdd32
	uSub32
	uMul32
	uSDiv32
	uSRem32
	uAnd32
	uOr32
	uXor32
	uShl32
	uLShr32
	uAShr32
	uSMin32
	uSMax32

	uAdd64
	uSub64
	uMul64
	uSDiv64
	uSRem64
	uAnd64
	uOr64
	uXor64
	uShl64
	uLShr64
	uAShr64
	uSMin64
	uSMax64

	// Float arithmetic in ir.Opcode order (OpFAdd..OpFMax).
	uFAdd
	uFSub
	uFMul
	uFDiv
	uFMin
	uFMax

	// Comparisons in ir.Pred order.
	uICmpEQ
	uICmpNE
	uICmpLT
	uICmpLE
	uICmpGT
	uICmpGE

	uFCmpEQ
	uFCmpNE
	uFCmpLT
	uFCmpLE
	uFCmpGT
	uFCmpGE

	uSelect
	uSextTo64 // sext/trunc to i64: identity on canonical registers
	uSextTo32 // sext/trunc to i32
	uZext32to64
	// uChargeOnly is an identity copy whose every consumer was redirected
	// to its source (see finalizeKernel): only budget and cycles remain.
	uChargeOnly
	uShfl
	uBallot
	uActiveMask
	uAnd1
	uOr1
	uXor1

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

	uBr
	uCondBr
	uRet
	uBarrier

	// Fused compare+branch (ir.Pred order): an icmp/fcmp whose only use is
	// the block's conditional branch skips materializing its i1 lanes — the
	// compare feeds the branch mask directly. Budget and cycle accounting
	// remain those of two instructions.
	// uMulAdd64 fuses the address-computation idiom mul64 feeding a
	// single-use add64 (GlobalIdx): one lane pass, two instructions'
	// budget and cycles.
	uMulAdd64

	uICmpBrEQ
	uICmpBrNE
	uICmpBrLT
	uICmpBrLE
	uICmpBrGT
	uICmpBrGE
	uFCmpBrEQ
	uFCmpBrNE
	uFCmpBrLT
	uFCmpBrLE
	uFCmpBrGT
	uFCmpBrGE
)

// uop is one pre-decoded micro-instruction: every operand an extended
// register-file offset, control-flow targets and cost class pre-bound.
type uop struct {
	code uopCode
	cls  costClass
	// cls2 is the second instruction's cost class in fused pairs.
	cls2 costClass
	both bool
	d    int32
	s1   int32
	s2   int32
	s3   int32
	// control fields (uBr/uCondBr): successor and reconvergence blocks.
	succ0  int32
	succ1  int32
	reconv int32
	uid    int32
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
	case ir.OpICmp:
		setArgs(2)
		u.code = uICmpEQ + uopCode(in.pred)
		return u, true
	case ir.OpFCmp:
		setArgs(2)
		u.code = uFCmpEQ + uopCode(in.pred)
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
		switch in.typ {
		case ir.I32:
			u.code = uAdd32 + uopCode(in.op-ir.OpAdd)
		case ir.I64:
			u.code = uAdd64 + uopCode(in.op-ir.OpAdd)
		case ir.I1:
			// i1 logic on canonical 0/1 registers: raw bitwise ops preserve
			// canonical form, matching normValue(I1, ...).
			switch in.op {
			case ir.OpAnd:
				u.code = uAnd1
			case ir.OpOr:
				u.code = uOr1
			case ir.OpXor:
				u.code = uXor1
			default:
				return u, false
			}
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

// runWarpU executes the warp through the uop jump table, calling the escape
// closure of a shape that has no uop. It is the threaded backend's driver;
// semantics mirror runWarp instruction for instruction.
// (Generated-style expansion: every ALU case keeps the dense full-warp loop
// next to the masked bit-iteration loop; the memory micro-ops live in
// loadU/storeU, below.)
//
// The budget lives in a local for the whole run and is written back by hand
// on each of the few exits: a deferred write-back would make it a by-reference
// capture, in memory for every instruction.
func (c *blockCtx) runWarpU(w *warp) error {
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
		uops := blk.uops
		mask := e.mask
		// The quarter-warp issue skew depends only on the active mask, which
		// is constant for the whole straight-line run: hoist it out of the
		// per-instruction accounting. The addition order matches account():
		// (cost + skew) then cycles += (that).
		skew := arch.QuarterWarpSkew * float64(bits.TrailingZeros32(mask)/8)
		pc := e.pc
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
			switch u.code {
			case uEscape:
				e.pc = pc
				if err := blk.fns[pc](c, w, e); err != nil {
					*c.budget = bud
					return err
				}
				pc++
			case uMulAdd64:
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				w.cycles += costs[u.cls2] + skew
				pc += 2
			case uChargeOnly:
				w.cycles += costs[u.cls] + skew
				pc++
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
				c.transferT(w, u.succ0)
				break straight
			case uCondBr:
				cond := regs[u.s1 : u.s1+warpSize]
				var maskT uint32
				if mask == fullMask {
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
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uAnd32:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = normI32(s1[l] & s2[l])
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = normI32(s1[l] & s2[l])
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
			case uOr32:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = normI32(s1[l] | s2[l])
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = normI32(s1[l] | s2[l])
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
			case uXor32:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = normI32(s1[l] ^ s2[l])
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = normI32(s1[l] ^ s2[l])
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uAShr32:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = normI32(uint64(int64(s1[l]) >> (s2[l] & 63)))
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = normI32(uint64(int64(s1[l]) >> (s2[l] & 63)))
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
			case uSMin32:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = normI32(uint64(min(int64(s1[l]), int64(s2[l]))))
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = normI32(uint64(min(int64(s1[l]), int64(s2[l]))))
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
			case uSMax32:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = normI32(uint64(max(int64(s1[l]), int64(s2[l]))))
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = normI32(uint64(max(int64(s1[l]), int64(s2[l]))))
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uAnd64:
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uOr64:
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uXor64:
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uAShr64:
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uSMin64:
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uSMax64:
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uICmpGT:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = boolBit(int64(s1[l]) > int64(s2[l]))
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = boolBit(int64(s1[l]) > int64(s2[l]))
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
			case uICmpGE:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = boolBit(int64(s1[l]) >= int64(s2[l]))
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = boolBit(int64(s1[l]) >= int64(s2[l]))
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uFCmpGT:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = boolBit(math.Float64frombits(s1[l]) > math.Float64frombits(s2[l]))
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = boolBit(math.Float64frombits(s1[l]) > math.Float64frombits(s2[l]))
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
			case uFCmpGE:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						dl[l] = boolBit(math.Float64frombits(s1[l]) >= math.Float64frombits(s2[l]))
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = boolBit(math.Float64frombits(s1[l]) >= math.Float64frombits(s2[l]))
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uSRem32:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				dl := regs[u.d : u.d+warpSize : u.d+warpSize]
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						var r int64
						if y := int64(s2[l]); y != 0 {
							r = int64(s1[l]) % y
						}
						dl[l] = normI32(uint64(r))
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						var r int64
						if y := int64(s2[l]); y != 0 {
							r = int64(s1[l]) % y
						}
						dl[l] = normI32(uint64(r))
					}
				}
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uSRem64:
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uAnd1:
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uOr1:
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uXor1:
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
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
				w.cycles += costs[u.cls] + skew
				pc++
			case uICmpBrEQ:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uICmpBrNE:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uICmpBrLT:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uICmpBrLE:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uICmpBrGT:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						if int64(s1[l]) > int64(s2[l]) {
							maskT |= uint32(1) << l
						}
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						if int64(s1[l]) > int64(s2[l]) {
							maskT |= uint32(1) << l
						}
					}
				}
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uICmpBrGE:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						if int64(s1[l]) >= int64(s2[l]) {
							maskT |= uint32(1) << l
						}
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						if int64(s1[l]) >= int64(s2[l]) {
							maskT |= uint32(1) << l
						}
					}
				}
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uFCmpBrEQ:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uFCmpBrNE:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uFCmpBrLT:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uFCmpBrLE:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
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
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uFCmpBrGT:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						if math.Float64frombits(s1[l]) > math.Float64frombits(s2[l]) {
							maskT |= uint32(1) << l
						}
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						if math.Float64frombits(s1[l]) > math.Float64frombits(s2[l]) {
							maskT |= uint32(1) << l
						}
					}
				}
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
				default:
					w.cycles += costs[costBranch] + arch.DivergePenalty + skew
					c.divergeT(w, u.succ0, u.succ1, maskT, maskF, u.reconv, u.both)
				}
				break straight
			case uFCmpBrGE:
				s1, s2 := regs[u.s1:u.s1+warpSize], regs[u.s2:u.s2+warpSize]
				var maskT uint32
				if mask == fullMask {
					s1, s2 := s1[:warpSize], s2[:warpSize]
					for l := 0; l < warpSize; l++ {
						if math.Float64frombits(s1[l]) >= math.Float64frombits(s2[l]) {
							maskT |= uint32(1) << l
						}
					}
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						if math.Float64frombits(s1[l]) >= math.Float64frombits(s2[l]) {
							maskT |= uint32(1) << l
						}
					}
				}
				w.cycles += costs[u.cls] + skew
				bud--
				if bud <= 0 {
					goto timeout
				}
				maskF := mask &^ maskT
				switch {
				case maskF == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ0)
				case maskT == 0:
					w.cycles += costs[costBranch] + skew
					c.transferT(w, u.succ1)
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
			}
		}
	}
timeout:
	*c.budget = bud
	return &TimeoutError{Kernel: c.k.Name}
}

// The twelve memory micro-ops, uLoad{G,S}{8,4,1} and uStore{G,S}{8,4,1}.
// They live outside runWarpU because the compiler treats a function of that
// size as "big" and inlines only trivial callees into it: a
// binary.LittleEndian accessor in the driver is a real call per lane, here it
// is one move (scripts/check_inlining.sh holds that in CI).
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
	shape := shapeOf(src, mask, shared && !c.fast)
	n := 0
	switch {
	case shape == shapeBroadcast:
		a := int64(src[bits.TrailingZeros32(mask)&31])
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
		for m := mask; m != 0; m &= m - 1 {
			dl[bits.TrailingZeros32(m)&31] = v
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
	if shared {
		w.cycles += c.sharedCost(n, shape) + c.memPenalty(w) + skew
	} else {
		w.cycles += c.globalCost(n, shape) + c.memPenalty(w) + skew
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
	k := u.code - uStoreG8
	shared := k >= uStoreS8-uStoreG8
	mem := c.d.mem
	if shared {
		mem = c.shared
		k -= uStoreS8 - uStoreG8
	}
	vals := w.regs[u.s1 : u.s1+warpSize]
	src := w.regs[u.s2 : u.s2+warpSize]
	shape := shapeOf(src, mask, shared && !c.fast)
	n := 0
	var maxEnd int64 = -1
	switch {
	case shape == shapeBroadcast:
		a := int64(src[bits.TrailingZeros32(mask)&31])
		v := vals[(31-bits.LeadingZeros32(mask))&31]
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
	if shared {
		w.cycles += c.sharedCost(n, shape) + skew
	} else {
		w.cycles += c.globalCost(n, shape) + skew
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
