package gpu

import (
	"fmt"
	"math/bits"

	"gevo/internal/ir"
)

// Lane invariance. A register slot is lane-invariant when every lane of any
// mask that reads it holds the same value in it; a micro-op all of whose
// operands are lane-invariant computes one lane and writes that value to the
// active lanes the lane loop would have written (uop.inv). The name keeps it
// apart from uniform.go's uniform-launch memo, which is about timing across
// launches, not values across lanes.
//
// markLaneInvariant decides it at compile time, as a fixpoint that only ever
// removes invariance (DESIGN.md §5 has the soundness argument):
//
//   - sources: constants, parameters and the bid, bdim, gdim and warp
//     specials; tid and lane are not;
//   - integer and float arithmetic, compares, select, conversions and loads
//     are invariant when all their operands are, a phi when all its incoming
//     values are; shfl, ballot, activemask, atomics and nop never are;
//   - a conditional branch whose condition is not invariant is divergent. If
//     its ipdom is a block, the two lane groups run apart until they meet
//     there, so no def in its region — the blocks reachable from its
//     successors without passing the ipdom — is invariant, and neither is a
//     phi in the region or at the ipdom. A divergent branch whose ipdom is
//     −1 (the virtual exit) marks nothing: its groups never merge again, so
//     every mask that later reads a value lies inside one of them.

// Per-block marks of the analysis.
const (
	blockRegion    int32 = 1 << iota // in a divergent branch's region: no def is invariant
	blockMerge                       // the ipdom of a divergent branch: no phi is invariant
	blockDivergent                   // ends in a divergent branch, its region marked
)

// markLaneInvariant sets uop.inv on every micro-op of k whose operands are all
// lane-invariant. scratch holds at least k.totalSlots + 3*len(k.blocks)
// words; its contents on entry do not matter.
func markLaneInvariant(k *Kernel, scratch []int32) {
	nb := len(k.blocks)
	inv := scratch[:k.totalSlots] // by slot: 1 = invariant
	flags := scratch[k.totalSlots : k.totalSlots+nb]
	seen := scratch[k.totalSlots+nb : k.totalSlots+2*nb] // region walk: branch block + 1
	stack := scratch[k.totalSlots+2*nb : k.totalSlots+3*nb][:0]
	// Optimistic start: every extended slot, and every real slot something
	// writes — an instruction, or a phi copy on an edge a terminator takes.
	// A slot nothing writes holds whatever an earlier block left.
	clear(inv[:k.nslots])
	for s := k.nslots; s < k.totalSlots; s++ {
		inv[s] = 1
	}
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			if d := cb.ins[ii].dst; d >= 0 {
				inv[d] = 1
			}
		}
		for _, s := range cb.ins[len(cb.ins)-1].succs {
			if s >= 0 {
				for _, cp := range k.blocks[s].phiFrom[bi].copies {
					inv[cp.dst] = 1
				}
			}
		}
	}
	clear(flags)
	clear(seen)
	for _, f := range k.extSpec {
		if s := ir.Special(f.idx); s == ir.SpecialTID || s == ir.SpecialLane {
			inv[f.base/warpSize] = 0
		}
	}
	invariant := func(args []carg) bool {
		for ai := range args {
			if inv[args[ai].ebase/warpSize] == 0 {
				return false
			}
		}
		return true
	}

	for changed := true; changed; {
		changed = false
		for bi := range k.blocks {
			cb := &k.blocks[bi]
			for ii := range cb.ins {
				in := &cb.ins[ii]
				if in.dst < 0 || inv[in.dst] == 0 {
					continue
				}
				if flags[bi]&blockRegion != 0 || in.op < ir.OpAdd || in.op > ir.OpLoad || !invariant(in.args) {
					inv[in.dst], changed = 0, true
				}
			}
			br := &cb.ins[len(cb.ins)-1]
			for _, s := range br.succs {
				if s < 0 {
					continue
				}
				copies := k.blocks[s].phiFrom[bi].copies
				for ci := range copies {
					cp := &copies[ci]
					if inv[cp.dst] != 0 && (flags[s]&(blockRegion|blockMerge) != 0 || inv[cp.src.ebase/warpSize] == 0) {
						inv[cp.dst], changed = 0, true
					}
				}
			}
			if br.op != ir.OpCondBr || flags[bi]&blockDivergent != 0 || invariant(br.args) {
				continue
			}
			flags[bi] |= blockDivergent
			r := cb.ipdom
			if r < 0 {
				continue
			}
			flags[r] |= blockMerge
			changed = true
			stack = stack[:0]
			for _, s := range br.succs {
				if s != r && seen[s] != int32(bi)+1 {
					seen[s] = int32(bi) + 1
					stack = append(stack, s)
				}
			}
			for len(stack) > 0 {
				b := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				flags[b] |= blockRegion
				last := &k.blocks[b].ins[len(k.blocks[b].ins)-1]
				for _, s := range last.succs {
					if s >= 0 && s != r && seen[s] != int32(bi)+1 {
						seen[s] = int32(bi) + 1
						stack = append(stack, s)
					}
				}
			}
		}
	}

	for bi := range k.blocks {
		uops := k.blocks[bi].uops
		for ui := range uops {
			u := &uops[ui]
			ops := [3]int32{u.s1, u.s2, u.s3}
			n := invariantArity(u.code)
			u.inv = n > 0
			for _, s := range ops[:n] {
				if inv[s/warpSize] == 0 {
					u.inv = false
				}
			}
		}
	}
}

// invariantArity is the number of operands (s1, s2, s3 in order) a micro-op
// of code c reads on its lane-invariant path, and 0 for a code that has no
// such path: an escape, a charge-only copy, a branch that is not conditional,
// a return, a barrier and the three warp primitives, whose lanes differ by
// definition.
func invariantArity(c uopCode) int {
	switch {
	case c == uMulAdd64 || c == uSelect:
		return 3
	case c == uCondBr || c >= uLoadG8 && c <= uLoadS1 || c >= uSextTo64 && c <= uZext32to64:
		return 1
	case isFusedCmpBr(c) || c >= uStoreG8 && c <= uStoreS1 || c >= uAdd32 && c <= uFCmpLE:
		return 2
	}
	return 0
}

// laneInvarianceCheck, when set, is called by the driver before every
// micro-op marked lane-invariant. Tests set it to checkLaneInvariance through
// CheckLaneInvariance; it is nil otherwise. It is a function value because
// scripts/check_inlining.sh admits no direct call in the driver besides its
// own pieces, and a call through a register is what the escapes make too.
var laneInvarianceCheck func(regs []uint64, u *uop, mask uint32)

// checkLaneInvariance panics when an operand of the lane-invariant micro-op u
// differs between two lanes of mask: the analysis claimed what is not so.
func checkLaneInvariance(regs []uint64, u *uop, mask uint32) {
	first := bits.TrailingZeros32(mask) & 31
	ops := [3]int32{u.s1, u.s2, u.s3}
	for i, s := range ops[:invariantArity(u.code)] {
		lanes := regs[s : s+warpSize]
		for m := mask; m != 0; m &= m - 1 {
			if l := bits.TrailingZeros32(m) & 31; lanes[l] != lanes[first] {
				panic(fmt.Sprintf("gpu: uop %d (code %d) marked lane-invariant, but operand %d is %#x in lane %d and %#x in lane %d (mask %#08x)",
					u.uid, u.code, i+1, lanes[first], first, lanes[l], l, mask))
			}
		}
	}
}

// CheckLaneInvariance turns the run-time audit of the lane-invariance
// analysis on or off for every launch in the process and returns the previous
// setting. It is a test hook: with it on, the threaded backend panics at the
// first lane-invariant micro-op whose operands differ across the active mask.
// Restore the setting before the test ends.
func CheckLaneInvariance(on bool) (was bool) {
	was = laneInvarianceCheck != nil
	laneInvarianceCheck = nil
	if on {
		laneInvarianceCheck = checkLaneInvariance
	}
	return was
}
