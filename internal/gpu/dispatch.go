package gpu

import (
	"math/bits"
	"slices"
)

// The threaded-code backend is one tier. At Compile time lowerKernel turns
// every decoded instruction into a micro-op (uop.go) with register-slot
// offsets, cost classes and successor indices pre-bound, and runWarpU runs the
// block's []uop through one jump-table switch, handing lane arithmetic to
// aluU and memory to loadU/storeU; phi edges compile to copy
// programs that degrade to memmoves when the warp is converged (lowerPhiEdges).
// The switch interpreter in exec.go is the reference: the differential tests
// assert that both backends produce bit-identical cycle counts, memory
// effects and profiles.
// Instruction semantics therefore live in two places, the oracle and the
// micro-ops, and an escape is the oracle: a shape uopFor has no micro-op for
// escapes, its uop says uEscape, and the driver hands the instruction to
// execInstr, which on the threaded side reads each operand at its pre-resolved
// offset into the extended register file (argLanes). The set is closed —
// TestEscapeSetIsClosed enumerates every shape ir.Verify admits and fails
// when this list and uopFor disagree, so promoting a shape to a uop is a
// change to uopFor alone. Each member is here because a micro-op
// for it would be one more code and lane loop to keep exact (DESIGN.md §5)
// for traffic no workload has. Warp-instructions
// through each, of all the threaded backend executed (one `bench` process per
// workload at seed 1 for 5 s, set-up included; a counter per opcode in the
// uEscape arm of a scratch copy, never shipped):
//
//	atomicadd/max/cas/exch, every   sim_paper 317 440 of 163 989 132 (add);
//	int type, global and shared     search_synth 15 426 of 61 352 970 and
//	                                serve_small_jobs 20 894 of 90 068 867
//	                                (add, max); lanes commit serially
//	fptosi, sitofp                  sim_paper 238 080 and 104 780, else 0
//	load/store of i1                0
//	int arithmetic on i8            0 (i1 and/or/xor are uops; ir.Verify
//	                                admits no other i1 arithmetic)
//	zext other than i32 -> i64      0
//	sext/trunc to i8 or i1          0
//	nop                             0 (only a typed nop whose result is read
//	                                is lowered at all: liveValues drops the
//	                                rest, and the builder emits none)
//
// That is 0.40 % of sim_paper, 0.02-0.03 % of search_synth and
// serve_small_jobs, 0 of search_adept's 308 651 600; serve_reads launches
// only in set-up.
//
// execInstr does not know c.fast: during a memoized uniform-launch replay
// (uniform.go) an escape runs its cost model like any live launch and charges
// cycles that the replay discards. That is safe because Launch replaces a
// replay's cycle count with the memo's, and runBlock runs warps in index
// order, so cycles never decide which warp runs next.

// Backend selects which execution engine a launch uses.
type Backend uint8

const (
	// BackendAuto defers to DefaultBackend, and past that picks the
	// threaded backend, profiled or not.
	BackendAuto Backend = iota
	// BackendInterp forces the reference switch interpreter of exec.go, the
	// oracle of the threaded backend's results and profiles.
	BackendInterp
	// BackendThreaded forces the threaded-code backend.
	BackendThreaded
)

// DefaultBackend is consulted when LaunchConfig.Backend is BackendAuto; it
// exists so the benchmark and the differential tests can flip every launch in
// the process without threading a setting through the workloads.
var DefaultBackend = BackendAuto

// normI32 is the inlined i32 case of normValue.
func normI32(v uint64) uint64 { return uint64(int64(int32(uint32(v)))) }

// lowerKernel compiles every instruction and phi edge of the kernel to
// threaded code: a uop — uEscape for the shapes listed at the top of this
// file — fused where fuseCmpBranches can and marked where markLaneInvariant
// (uop_invariant.go) proves its operands the same in every active lane, which
// also gives every register slot its home. Must run after the extended slots
// are assigned.
func lowerKernel(k *Kernel) {
	n := 0
	for bi := range k.blocks {
		n += len(k.blocks[bi].ins)
	}
	uops := make([]uop, n)
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		n = len(cb.ins)
		cb.uops, uops = uops[:n:n], uops[n:]
		for ii := range cb.ins {
			if u, ok := uopFor(cb, &cb.ins[ii]); ok {
				cb.uops[ii] = u
			} else {
				cb.uops[ii] = uop{code: uEscape}
			}
		}
	}
	// One zeroed table serves both passes: the use counts, then the analysis.
	scratch := make([]int32, invariantScratch(k))
	fuseCmpBranches(k, scratch[:k.nslots])
	k.home = make([]int32, k.nslots)
	markLaneInvariant(k, scratch)
	lowerPhiEdges(k)
}

// fuseCmpBranches rewrites [icmp/fcmp; condbr] pairs whose compare result
// has no other use into one fused uop: the compare feeds the branch mask
// directly and its i1 lanes are never materialized. Budget and cycle
// accounting remain exactly those of the two original instructions. uses is
// a zeroed table with one word per register slot.
func fuseCmpBranches(k *Kernel, uses []int32) {
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			for ai := range cb.ins[ii].args {
				if a := &cb.ins[ii].args[ai]; a.kind == argReg {
					uses[a.slot]++
				}
			}
		}
		for ei := range cb.phiFrom {
			copies := cb.phiFrom[ei].copies
			for ci := range copies {
				if copies[ci].src.kind == argReg {
					uses[copies[ci].src.slot]++
				}
			}
		}
	}
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := 0; ii+1 < len(cb.ins); ii++ {
			// mul64 feeding a single-use add64 (the GlobalIdx idiom).
			if cb.uops[ii].code == uMul64 && cb.uops[ii+1].code == uAdd64 {
				mu, au := &cb.uops[ii], &cb.uops[ii+1]
				mulDst := cb.ins[ii].dst
				if mulDst >= 0 && uses[mulDst] == 1 && (au.s1 == mu.d || au.s2 == mu.d) {
					other := au.s1
					if au.s1 == mu.d {
						other = au.s2
					}
					cb.uops[ii] = uop{
						code: uMulAdd64, cls: mu.cls, cls2: au.cls,
						d: au.d, s1: mu.s1, s2: mu.s2, s3: other, uid: mu.uid,
					}
					continue
				}
			}
			// A compare micro-op followed by the branch that is its only reader.
			// The uop already carries uopFor's mirror rule (operands swapped,
			// GT/GE lowered to LT/LE), and the fused codes run parallel to the
			// compare codes.
			u, bu := cb.uops[ii], &cb.uops[ii+1]
			if u.code < uICmpEQ || u.code > uFCmpLE || bu.code != uCondBr {
				continue
			}
			cmp, br := &cb.ins[ii], &cb.ins[ii+1]
			if br.args[0].kind != argReg || br.args[0].slot != cmp.dst || uses[cmp.dst] != 1 {
				continue
			}
			u.code = uICmpBrEQ + (u.code - uICmpEQ)
			u.succ0, u.succ1, u.reconv, u.both = bu.succ0, bu.succ1, bu.reconv, bu.both
			cb.uops[ii] = u
		}
	}
}

// Phi-edge lowering. With every source materialized in the extended
// register file, a phi edge is a flat list of register-to-register copies. A
// copy into a lane-invariant slot moves one word (and fills the destination's
// active lanes too when it keeps them, homeBoth); every other copy moves
// lanes. Interference-free lane copies (no copy's destination is another's
// source — proven at compile time) are order-independent and become straight
// memmoves when the warp is converged; interfering ones keep the two-phase
// snapshot of applyPhis. The lane copies go first: they read no
// word, and the words read no lanes they write (a lane copy's destination is
// not invariant, a word copy's source is).

type regCopy struct{ s, d int32 }

// edgeProg is the threaded-code plan of one edge's parallel copy.
type edgeProg struct {
	lanes []regCopy // lane image to lane image; sorted by destination unless snap
	runs  []regRun  // the lanes merged into memmoves (nil when snap)
	// words are the lane-invariant copies, word to word; the last fills of
	// them have a destination that keeps its lane image as well.
	words          []regCopy
	fills          int
	snap, wordSnap bool    // the lane copies, or the word copies, interfere
	sb             int32   // the kernel's scalarBase
	n              float64 // copies, each charged one ALU issue
}

// copiesInterfere reports whether one of cs reads what another writes.
func copiesInterfere(cs []regCopy) bool {
	for i := range cs {
		for j := range cs {
			if i != j && cs[j].d == cs[i].s {
				return true
			}
		}
	}
	return false
}

// lowerPhiEdges compiles every edge's parallel copy into a closure; nil when
// the edge carries no copies (the overwhelmingly common case). It runs after
// markLaneInvariant, which gives each destination its home, and takes the
// plans of all edges from three kernel-wide tables.
func lowerPhiEdges(k *Kernel) {
	nEdges, nCopies := 0, 0
	for bi := range k.blocks {
		for ei := range k.blocks[bi].phiFrom {
			if n := len(k.blocks[bi].phiFrom[ei].copies); n > 0 {
				nEdges, nCopies = nEdges+1, nCopies+n
			}
		}
	}
	if nEdges == 0 {
		return
	}
	progs, buf, runs := make([]edgeProg, nEdges), make([]regCopy, 0, nCopies), make([]regRun, 0, nCopies)
	for bi := range k.blocks {
		for ei := range k.blocks[bi].phiFrom {
			edge := &k.blocks[bi].phiFrom[ei]
			if len(edge.copies) == 0 {
				continue
			}
			p := &progs[0]
			progs = progs[1:]
			// Lane copies, then words alone, then words with lanes.
			from := len(buf)
			for _, h := range [...]int32{homeLanes, homeScalar, homeBoth} {
				for ci := range edge.copies {
					cp := &edge.copies[ci]
					switch {
					case k.home[cp.dst] != h:
					case h == homeLanes:
						buf = append(buf, regCopy{s: cp.src.ebase, d: cp.dst * warpSize})
					default:
						buf = append(buf, regCopy{s: k.wordOf(cp.src.ebase), d: k.wordOf(cp.dst * warpSize)})
						if h == homeBoth {
							p.fills++
						}
					}
				}
				if h == homeLanes {
					p.lanes = buf[from:len(buf):len(buf)]
				}
			}
			p.words = buf[from+len(p.lanes) : len(buf) : len(buf)]
			p.snap, p.wordSnap = copiesInterfere(p.lanes), copiesInterfere(p.words)
			if !p.snap && len(p.lanes) > 0 {
				// Order-independent: sorted by destination, contiguous
				// (source, destination) pairs merge into one memmove.
				slices.SortFunc(p.lanes, func(a, b regCopy) int { return int(a.d - b.d) })
				from := len(runs)
				for _, cp := range p.lanes {
					if n := len(runs); n > from && cp.s == runs[n-1].s+runs[n-1].n && cp.d == runs[n-1].d+runs[n-1].n {
						runs[n-1].n += warpSize
						continue
					}
					runs = append(runs, regRun{s: cp.s, d: cp.d, n: warpSize})
				}
				p.runs = runs[from:len(runs):len(runs)]
			}
			p.sb, p.n = k.scalarBase(), float64(len(edge.copies))
			edge.prog = p
			edge.apply = p.apply()
		}
	}
}

// apply returns the closure that executes the plan. The two plans nearly
// every edge has get a closure of their own: lane copies alone that do not
// interfere, and word copies alone that neither interfere nor fill lanes (a
// loop running in lane-invariant code, as ADEPT-V0's memset loop does).
func (p *edgeProg) apply() func(c *blockCtx, w *warp, mask uint32) {
	n := p.n
	switch {
	case len(p.words) == 0 && !p.snap:
		runs, lanes := p.runs, p.lanes
		return func(c *blockCtx, w *warp, mask uint32) {
			if mask == fullMask {
				for _, r := range runs {
					copy(w.regs[r.d:r.d+r.n], w.regs[r.s:r.s+r.n])
				}
			} else {
				for _, cp := range lanes {
					src := w.regs[cp.s : cp.s+warpSize : cp.s+warpSize]
					dl := w.regs[cp.d : cp.d+warpSize : cp.d+warpSize]
					for m := mask; m != 0; m &= m - 1 {
						lane := bits.TrailingZeros32(m) & 31
						dl[lane] = src[lane]
					}
				}
			}
			w.cycles += c.arch.IssueALU * n
		}
	case len(p.lanes) == 0 && !p.wordSnap && p.fills == 0:
		words := p.words
		return func(c *blockCtx, w *warp, mask uint32) {
			if laneInvarianceCheck != nil {
				p.run(c, w, mask)
				return
			}
			regs := w.regs
			for _, cp := range words {
				regs[cp.d] = regs[cp.s]
			}
			w.cycles += c.arch.IssueALU * n
		}
	}
	return p.run
}

// run executes any plan (see apply).
func (p *edgeProg) run(c *blockCtx, w *warp, mask uint32) {
	regs := w.regs
	if laneInvarianceCheck != nil {
		checkPhiWords(c.k, regs, p.words, mask)
	}
	switch {
	case len(p.lanes) == 0:
	case p.snap:
		// Parallel-copy semantics: snapshot all sources before writing
		// any destination, exactly as applyPhis does.
		need := len(p.lanes) * warpSize
		if cap(c.phiTmp) < need {
			c.phiTmp = make([]uint64, need)
		}
		tmp := c.phiTmp[:need]
		for i, cp := range p.lanes {
			copy(tmp[i*warpSize:(i+1)*warpSize], regs[cp.s:cp.s+warpSize])
		}
		for i, cp := range p.lanes {
			dl := regs[cp.d : cp.d+warpSize : cp.d+warpSize]
			t := tmp[i*warpSize:]
			if mask == fullMask {
				copy(dl, t[:warpSize])
				continue
			}
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) & 31
				dl[lane] = t[lane]
			}
		}
	case mask == fullMask:
		for _, r := range p.runs {
			copy(regs[r.d:r.d+r.n], regs[r.s:r.s+r.n])
		}
	default:
		for _, cp := range p.lanes {
			src := regs[cp.s : cp.s+warpSize : cp.s+warpSize]
			dl := regs[cp.d : cp.d+warpSize : cp.d+warpSize]
			for m := mask; m != 0; m &= m - 1 {
				lane := bits.TrailingZeros32(m) & 31
				dl[lane] = src[lane]
			}
		}
	}
	if p.wordSnap {
		if cap(c.phiTmp) < len(p.words) {
			c.phiTmp = make([]uint64, len(p.words))
		}
		tmp := c.phiTmp[:len(p.words)]
		for i, cp := range p.words {
			tmp[i] = regs[cp.s]
		}
		for i, cp := range p.words {
			regs[cp.d] = tmp[i]
		}
	} else {
		for _, cp := range p.words {
			regs[cp.d] = regs[cp.s]
		}
	}
	// The lanes of the destinations that keep them; with the run-time
	// check on, every destination's, as a shadow.
	fill := p.words[len(p.words)-p.fills:]
	if laneInvarianceCheck != nil {
		fill = p.words
	}
	for _, cp := range fill {
		b := (cp.d - p.sb) * warpSize
		fillMasked(regs[b:b+warpSize], mask, regs[cp.d])
	}
	w.cycles += c.arch.IssueALU * p.n
}

// The non-termination witness. A warp about to run a block with the same real
// registers and scalar words, SIMT stack and retired lanes as at an earlier
// moment of the same
// driver call, with memory untouched in between, takes the same steps again:
// its next step is a function of exactly that state plus memory — no
// instruction reads simulated time, cycles or the budget — so it repeats them
// until the budget is gone. transferT sees every loop (a CFG cycle has an edge
// whose target index is not above its source's: a retreat), so it counts a
// warp's retreats per block run, copies the state at each power-of-two count
// from witnessFrom on, and compares on the next witnessWindow retreats into
// the same block. A match returns the *TimeoutError the budget would have
// produced, up to a budget's worth of instructions sooner; a failed launch
// returns no Result, so a caller can observe nothing but the time it took.
// Memory must be part of "the same state" and is not compared: blockCtx.epoch
// stands in for it, and every writer has to advance it. witnessFrom and
// witnessWindow are constants of the proof, sized in DESIGN.md §5: a kernel
// retreating fewer than witnessFrom times per warp and block never pays a
// copy. The reference interpreter has no witness — it is the oracle the proof
// is tested against (TestNonTerminationProofAgreesWithInterpreter).
const (
	witnessFrom   = 1 << 14
	witnessWindow = 16
)

// transferT is transfer with the pre-lowered phi closure. It reports whether
// the warp is proven never to finish (see above).
func (c *blockCtx) transferT(w *warp, target int32) (spins bool) {
	ei := len(w.stack) - 1
	e := &w.stack[ei]
	from := e.block
	if ap := c.k.blocks[target].phiFrom[from].apply; ap != nil {
		ap(c, w, e.mask)
	}
	if target == e.reconv {
		w.stack = w.stack[:ei]
	} else {
		e.block = target
		e.pc = 0
	}
	if target > from {
		return false
	}
	w.retreats++
	if n := w.retreats; n < witnessFrom || (n&(n-1) != 0 && c.wit.left == 0) {
		return false
	}
	return c.witnessT(w, target)
}

// witnessT is the cold half of transferT: compare the warp's state with the
// live copy, and on a power-of-two retreat count take a new one.
func (c *blockCtx) witnessT(w *warp, target int32) (spins bool) {
	wit := &c.wit
	// The real slots' lanes and their words: a loop whose only moving state
	// is a value with a scalar home changes nothing else.
	real := w.regs[:c.k.nslots*warpSize]
	sb := c.k.scalarBase()
	words := w.regs[sb : sb+int32(c.k.nslots)]
	if wit.left > 0 {
		switch {
		case wit.epoch != c.epoch:
			// An effect since the copy, or another driver call: it is dead.
			wit.left = 0
		case target == wit.block:
			wit.left--
			if w.doneMask == wit.doneMask && slices.Equal(w.stack, wit.stack) &&
				slices.Equal(real, wit.regs[:len(real)]) && slices.Equal(words, wit.regs[len(real):]) {
				metricProofs.Inc()
				return true
			}
		}
	}
	if n := w.retreats; n&(n-1) == 0 {
		wit.epoch, wit.left, wit.block, wit.doneMask = c.epoch, witnessWindow, target, w.doneMask
		wit.stack = append(wit.stack[:0], w.stack...)
		wit.regs = append(append(wit.regs[:0], real...), words...)
	}
	return false
}

// divergeT is diverge with pre-bound successors and reconvergence data.
func (c *blockCtx) divergeT(w *warp, succ0, succ1 int32, maskT, maskF uint32, r int32, both bool) {
	ei := len(w.stack) - 1
	cur := w.stack[ei]
	if r == cur.reconv || r == -1 {
		w.stack = w.stack[:ei]
	} else {
		w.stack[ei].block = r
		w.stack[ei].pc = 0
	}
	if maskF != 0 {
		if ap := c.k.blocks[succ1].phiFrom[cur.block].apply; ap != nil {
			ap(c, w, maskF)
		}
		if succ1 != r {
			w.stack = append(w.stack, simtEntry{block: succ1, pc: 0, reconv: r, mask: maskF, sibling: both})
		}
	}
	if maskT != 0 {
		if ap := c.k.blocks[succ0].phiFrom[cur.block].apply; ap != nil {
			ap(c, w, maskT)
		}
		if succ0 != r {
			w.stack = append(w.stack, simtEntry{block: succ0, pc: 0, reconv: r, mask: maskT, sibling: both})
		}
	}
}
