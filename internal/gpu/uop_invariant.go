package gpu

import (
	"fmt"
	"math/bits"

	"gevo/internal/ir"
)

// Lane invariance. A register slot is lane-invariant when every lane of any
// mask that reads it holds the same value in it; a micro-op all of whose
// operands are lane-invariant computes that value once (uop.inv). The name
// keeps it apart from uniform.go's uniform-launch memo, which is about timing
// across launches, not values across lanes.
//
// markLaneInvariant decides it at compile time, as a fixpoint that only ever
// removes invariance (DESIGN.md §5 has the soundness argument):
//
//   - sources: constants, parameters and the bid, bdim, gdim and warp
//     specials; tid and lane are not;
//   - integer and float arithmetic, compares, select, conversions and loads
//     are invariant when all their operands are, a phi when all its incoming
//     values are; shfl, ballot, activemask, atomics and nop never are, and
//     neither is anything an escape computes (an escape writes lanes only);
//   - a conditional branch whose condition is not invariant is divergent. If
//     its ipdom is a block, the two lane groups run apart until they meet
//     there, so no def in its region — the blocks reachable from its
//     successors without passing the ipdom — is invariant, and neither is a
//     phi in the region or at the ipdom. If its ipdom is −1 (the virtual
//     exit), the groups never meet again and one runs to its end before the
//     other resumes, so a slot one side can write and the other can read or
//     write is not invariant: the first group would leave its value in the
//     word the second reads. Every other slot keeps its mark, since every
//     mask that reads it lies inside one group.
//
// Register homes. Every invariant real slot has a word in the warp's scalar
// file (Kernel.scalarBase), which its lane-invariant writers write and its
// lane-invariant readers read; Kernel.home says whether its 32-lane image is
// kept as well:
//
//   - homeScalar: every reader reads it on a lane-invariant path — a marked
//     micro-op or a phi copy into an invariant slot — so the word alone holds
//     it and a write is one store;
//   - homeBoth: something reads its lanes — a micro-op that is not marked, an
//     escape, a phi copy into a slot that is not invariant — so every write
//     also fills the active lanes (fillMasked);
//   - homeLanes: the slot is not invariant and has its lane image only. A
//     marked micro-op can still compute it — a def in a divergent region
//     with invariant operands — and uses the slot's word as a scratch on the
//     way to the active lanes; nothing reads that word.
//
// Constants, parameters and the invariant specials need no word: their
// extended slots are filled in every lane, so lane 0 serves as one.

// Register homes, by real slot (Kernel.home).
const (
	homeLanes  int32 = iota // not lane-invariant: the lane image alone
	homeBoth                // lane-invariant, and something reads its lanes: the word and the image
	homeScalar              // lane-invariant, read only on lane-invariant paths: the word alone
)

// Per-block marks of the analysis.
const (
	blockRegion    int32 = 1 << iota // in a divergent branch's region: no def is invariant
	blockMerge                       // the ipdom of a divergent branch: no phi is invariant
	blockDivergent                   // ends in a divergent branch, its region marked
)

// invariantScratch is the number of words markLaneInvariant takes from its
// scratch table for k.
func invariantScratch(k *Kernel) int { return k.totalSlots + 4*len(k.blocks) + k.nslots }

// markLaneInvariant sets uop.inv on every micro-op of k whose operands are all
// lane-invariant, writes every real slot's home to k.home (k.nslots long)
// and points each marked micro-op at the words of its operands and
// destination. scratch holds at least invariantScratch(k) words; its
// contents on entry do not matter.
func markLaneInvariant(k *Kernel, scratch []int32) {
	nb, ns := len(k.blocks), k.nslots
	o := k.totalSlots
	inv := scratch[:o] // by slot: 1 = invariant
	flags := scratch[o : o+nb]
	seen := scratch[o+nb : o+2*nb]    // region walk, and one side's reach walk: branch block + 1
	seen1 := scratch[o+2*nb : o+3*nb] // the other side's reach walk
	stack := scratch[o+3*nb : o+3*nb : o+4*nb]
	touch := scratch[o+4*nb : o+4*nb+ns] // see demoteSplit
	home := k.home
	// Optimistic start: every extended slot, and every real slot something
	// writes — a micro-op, or a phi copy on an edge a terminator takes. A slot
	// nothing writes holds whatever an earlier block left, and one an escape
	// writes has no word.
	clear(inv[:ns])
	for s := ns; s < k.totalSlots; s++ {
		inv[s] = 1
	}
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			if d := cb.ins[ii].dst; d >= 0 && cb.uops[ii].code != uEscape {
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
	clear(seen1)
	clear(touch)
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
				if demoteSplit(k, bi, inv, [2][]int32{seen, seen1}, stack, touch) {
					changed = true
				}
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

	// The marks, and the homes: every invariant real slot starts with its word
	// alone, and a read of its lanes keeps its lane image as well. The
	// micro-op a fused pair leaves behind it is never run, so it reads nothing.
	for s := range home {
		home[s] = homeLanes
		if inv[s] != 0 {
			home[s] = homeScalar
		}
	}
	readsLanes := func(ebase int32) {
		if s := ebase / warpSize; s < int32(ns) && home[s] == homeScalar {
			home[s] = homeBoth
		}
	}
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		uops := cb.uops
		for ii := 0; ii < len(uops); ii++ {
			u := &uops[ii]
			ops := [3]int32{u.s1, u.s2, u.s3}
			n := invariantArity(u.code)
			u.inv = n > 0
			for _, s := range ops[:n] {
				if inv[s/warpSize] == 0 {
					u.inv = false
				}
			}
			switch {
			case u.inv:
			case u.code == uEscape:
				for _, a := range cb.ins[ii].args {
					readsLanes(a.ebase)
				}
			default:
				for _, s := range ops[:uopArity(u.code)] {
					readsLanes(s)
				}
			}
			if u.code == uMulAdd64 || isFusedCmpBr(u.code) {
				ii++
				uops[ii].inv = false
			}
		}
		for ei := range cb.phiFrom {
			for _, cp := range cb.phiFrom[ei].copies {
				if inv[cp.dst] == 0 {
					readsLanes(cp.src.ebase)
				}
			}
		}
	}
	for bi := range k.blocks {
		uops := k.blocks[bi].uops
		for ui := range uops {
			if u := &uops[ui]; u.inv {
				n := invariantArity(u.code)
				u.s1 = k.wordOf(u.s1)
				if n > 1 {
					u.s2 = k.wordOf(u.s2)
				}
				if n > 2 {
					u.s3 = k.wordOf(u.s3)
				}
				if writesDst(u.code) {
					u.fill, u.lanes = u.d, home[u.d/warpSize] != homeScalar
					u.d = k.wordOf(u.d)
				}
			}
		}
	}
}

// demoteSplit takes invariance away from every slot that both sides of the
// divergent branch ending block bi can touch, one of them by a write; bi's
// ipdom is −1. It walks the blocks reachable from each successor (seen[side]
// tagged bi+1), counting as touched the slots their instructions read and
// write and the sources and destinations of the phi copies on the edges out
// of them and on the edge into the side. touch[s] records side 0's touches
// as (bi+1)<<1, or'ed with 1 for a write. It reports whether it demoted any
// slot.
func demoteSplit(k *Kernel, bi int, inv []int32, seen [2][]int32, stack, touch []int32) (changed bool) {
	tag := int32(bi) + 1
	ns := int32(k.nslots)
	succs := k.blocks[bi].ins[len(k.blocks[bi].ins)-1].succs
	for side := range succs {
		// mark records a touch of the slot behind ebase on this side; on side 1
		// it demotes the slot when side 0 touched it too and one of the two
		// touches is a write.
		mark := func(ebase int32, write bool) {
			s := ebase / warpSize
			if s >= ns {
				return
			}
			if side == 0 {
				if touch[s]>>1 != tag {
					touch[s] = tag << 1
				}
				if write {
					touch[s] |= 1
				}
				return
			}
			if touch[s]>>1 == tag && (write || touch[s]&1 != 0) && inv[s] != 0 {
				inv[s], changed = 0, true
			}
		}
		edge := func(from, to int32) {
			for _, cp := range k.blocks[to].phiFrom[from].copies {
				mark(cp.src.ebase, false)
				mark(cp.dst*warpSize, true)
			}
		}
		start := succs[side]
		edge(int32(bi), start)
		stack = stack[:0]
		if seen[side][start] != tag {
			seen[side][start] = tag
			stack = append(stack, start)
		}
		for len(stack) > 0 {
			b := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			cb := &k.blocks[b]
			for ii := range cb.ins {
				in := &cb.ins[ii]
				for ai := range in.args {
					mark(in.args[ai].ebase, false)
				}
				if in.dst >= 0 {
					mark(in.dst*warpSize, true)
				}
			}
			for _, s := range cb.ins[len(cb.ins)-1].succs {
				if s < 0 {
					continue
				}
				edge(b, s)
				if seen[side][s] != tag {
					seen[side][s] = tag
					stack = append(stack, s)
				}
			}
		}
	}
	return changed
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

// uopArity is the number of operands a micro-op of code c reads from its
// lanes when it is not marked; an escape reads its instruction's.
func uopArity(c uopCode) int {
	switch c {
	case uShfl:
		return 2
	case uBallot:
		return 1
	}
	return invariantArity(c)
}

// writesDst reports whether a micro-op of code c with a lane-invariant path
// writes its destination, d.
func writesDst(c uopCode) bool {
	return c == uMulAdd64 || c >= uLoadG8 && c <= uLoadS1 || c >= uAdd32
}

// laneInvarianceCheck, when set, is called by the driver before every
// micro-op marked lane-invariant, and makes every write of a word fill the
// active lanes of its slot's image as well, scalar homes included (the
// shadow). Tests set it to checkLaneInvariance through CheckLaneInvariance;
// it is nil otherwise. It is a function value because
// scripts/check_inlining.sh admits no direct call in the driver besides its
// own pieces, and a call through a register is what the escapes make too.
var laneInvarianceCheck func(k *Kernel, regs []uint64, u *uop, mask uint32)

// checkLaneInvariance panics when the image behind an operand word of the
// lane-invariant micro-op u differs from the word in a lane of mask: the
// analysis claimed what is not so, or a word was read that no write of the
// reading lanes left there.
func checkLaneInvariance(k *Kernel, regs []uint64, u *uop, mask uint32) {
	ops := [3]int32{u.s1, u.s2, u.s3}
	for i, o := range ops[:invariantArity(u.code)] {
		if l := k.wordMismatch(regs, o, mask); l >= 0 {
			panic(fmt.Sprintf("gpu: uop %d (code %d) marked lane-invariant, but operand %d's word is %#x and lane %d holds %#x (mask %#08x)",
				u.uid, u.code, i+1, regs[o], l, regs[k.lanesOf(o)+int32(l)], mask))
		}
	}
}

// checkPhiWords is checkLaneInvariance for the lane-invariant copies of a phi
// edge taken under mask, before any of them is written.
func checkPhiWords(k *Kernel, regs []uint64, words []regCopy, mask uint32) {
	for _, cp := range words {
		if l := k.wordMismatch(regs, cp.s, mask); l >= 0 {
			panic(fmt.Sprintf("gpu: phi copy into slot %d reads a word of %#x, but lane %d holds %#x (mask %#08x)",
				k.lanesOf(cp.d)/warpSize, regs[cp.s], l, regs[k.lanesOf(cp.s)+int32(l)], mask))
		}
	}
}

// wordOf returns where the lane-invariant path finds the value of the slot
// at extended offset ebase: a real slot's word in the scalar file, or an
// extended slot itself (lane 0 of an image filled in every lane).
func (k *Kernel) wordOf(ebase int32) int32 {
	if ebase < int32(k.nslots*warpSize) {
		return k.scalarBase() + ebase/warpSize
	}
	return ebase
}

// lanesOf is the inverse of wordOf: the base of the lane image behind word o.
func (k *Kernel) lanesOf(o int32) int32 {
	if sb := k.scalarBase(); o >= sb {
		return (o - sb) * warpSize
	}
	return o
}

// wordMismatch returns a lane of mask whose value in the image behind word o
// differs from the word, or -1.
func (k *Kernel) wordMismatch(regs []uint64, o int32, mask uint32) int {
	lanes := regs[k.lanesOf(o):][:warpSize]
	for m := mask; m != 0; m &= m - 1 {
		if l := bits.TrailingZeros32(m) & 31; lanes[l] != regs[o] {
			return l
		}
	}
	return -1
}

// CheckLaneInvariance turns the run-time audit of the lane-invariance
// analysis on or off for every launch in the process and returns the previous
// setting. It is a test hook: with it on, every write of a word also fills
// the active lanes of its slot, and the threaded backend panics at the first
// lane-invariant read — a marked micro-op's operand or a phi copy's source —
// whose word differs from its lanes in the active mask. Restore the setting
// before the test ends.
func CheckLaneInvariance(on bool) (was bool) {
	was = laneInvarianceCheck != nil
	laneInvarianceCheck = nil
	if on {
		laneInvarianceCheck = checkLaneInvariance
	}
	return was
}
