package gpu

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"gevo/internal/ir"
)

// The threaded-code execution backend. At Compile time every decoded
// instruction is lowered to a specialized closure (per opcode x type x
// predicate shape) with register-slot offsets, constant lane images, cost
// classes and successor indices pre-bound, so runWarpT is a tight loop over
// a []execFn: no opcode dispatch, no per-instruction profiling branch, and
// no per-lane type normalization switch remain on the hot path. Every
// closure keeps a full-warp fast loop (the common case: 32 dense lanes,
// no bit iteration) next to the masked bit-iteration loop, and phi edges
// compile to kind-split copy programs that degrade to memmoves when the
// warp is converged.
//
// The switch interpreter in exec.go stays as the reference backend: it is
// what runs when per-instruction profiling is requested, and the
// differential tests assert that both backends produce bit-identical cycle
// counts and memory effects for every kernel in the kernels package.

// Backend selects which execution engine a launch uses.
type Backend uint8

const (
	// BackendAuto picks the threaded backend unless per-instruction
	// profiling is requested (profiling records through the reference
	// interpreter).
	BackendAuto Backend = iota
	// BackendInterp forces the reference switch interpreter of exec.go.
	BackendInterp
	// BackendThreaded forces the threaded-code backend. A non-nil
	// LaunchConfig.Profile still wins: profiling always runs interpreted.
	BackendThreaded
)

// DefaultBackend is consulted when LaunchConfig.Backend is BackendAuto; it
// exists so tools (cmd/gevo -backend) and differential tests can flip every
// launch in the process without threading a flag through the workloads.
var DefaultBackend = BackendAuto

// ParseBackend maps the CLI names of the execution backends ("" keeps the
// default); the single point of truth for every tool's -backend flag.
func ParseBackend(name string) (Backend, error) {
	switch name {
	case "":
		return DefaultBackend, nil
	case "threaded":
		return BackendThreaded, nil
	case "interp":
		return BackendInterp, nil
	}
	return BackendAuto, fmt.Errorf("unknown backend %q (want threaded or interp)", name)
}

// step is the control signal an execFn returns to the runWarpT driver loop.
type step uint8

const (
	// stepNext advances to the next instruction in the block.
	stepNext step = iota
	// stepCtl signals the SIMT stack was modified (branch/ret); the driver
	// re-reads the top entry.
	stepCtl
)

// execFn executes one instruction under the entry's mask.
type execFn func(c *blockCtx, w *warp, e *simtEntry) (step, error)

// Threaded operands are bare offsets into the warp's extended register
// file: finalizeKernel materializes constants, parameters and special
// registers into slots past the real registers (filled at launch/block
// setup), so operand access is a single bounds-checked slice with no kind
// dispatch at all.
func lanesAt(w *warp, b int32) []uint64 {
	return w.regs[b : b+warpSize]
}

// accountT charges cycles to the warp: the account of exec.go minus the
// profiling hook (the threaded backend never profiles — see Launch).
func (c *blockCtx) accountT(w *warp, cost float64, mask uint32) {
	if mask != 0 {
		cost += c.arch.QuarterWarpSkew * float64(bits.TrailingZeros32(mask)/8)
	}
	w.cycles += cost
}

// normI32 and normI8 are the inlined per-type cases of normValue.
func normI32(v uint64) uint64 { return uint64(int64(int32(uint32(v)))) }

func normI8(v uint64) uint64 { return uint64(int64(int8(uint8(v)))) }

// Phi-edge lowering. With every source materialized in the extended
// register file, a phi edge is a flat list of register-to-register copies.
// Interference-free edges (no copy's destination is another's source —
// proven at compile time) are order-independent and become straight
// memmoves when the warp is converged; interfering edges keep the ordered
// two-phase snapshot of applyPhis.

type regCopy struct{ s, d int32 }

// lowerPhiEdge compiles the edge's parallel copy into a closure; nil when
// the edge carries no copies (the overwhelmingly common case).
func lowerPhiEdge(edge *phiEdge) {
	copies := edge.copies
	if len(copies) == 0 {
		edge.apply = nil
		return
	}
	nCopies := float64(len(copies))
	prog := make([]regCopy, len(copies))
	for i := range copies {
		prog[i] = regCopy{s: copies[i].src.ebase, d: copies[i].dst * warpSize}
	}

	if edge.snapshot {
		need := len(copies) * warpSize
		edge.apply = func(c *blockCtx, w *warp, mask uint32) {
			// Parallel-copy semantics: snapshot all sources before writing
			// any destination, exactly as applyPhis does.
			if cap(c.phiTmp) < need {
				c.phiTmp = make([]uint64, need)
			}
			tmp := c.phiTmp[:need]
			for i := range prog {
				s := int(prog[i].s)
				copy(tmp[i*warpSize:(i+1)*warpSize], w.regs[s:s+warpSize])
			}
			for i := range prog {
				d := int(prog[i].d)
				dl := w.regs[d : d+warpSize : d+warpSize]
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
			w.cycles += c.arch.IssueALU * nCopies
		}
		return
	}

	// Interference-free copies are order-independent, and phi destinations
	// are consecutively allocated slots: sorting by destination and merging
	// contiguous (source, destination) pairs turns a converged transfer
	// into a handful of long memmoves. (Sources and destinations never
	// overlap on such edges — no copy's destination is any copy's source.)
	sorted := append([]regCopy(nil), prog...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].d < sorted[j].d })
	var runs []regRun
	for _, cp := range sorted {
		if len(runs) > 0 {
			last := &runs[len(runs)-1]
			if cp.s == last.s+last.n && cp.d == last.d+last.n {
				last.n += warpSize
				continue
			}
		}
		runs = append(runs, regRun{s: cp.s, d: cp.d, n: warpSize})
	}
	edge.runs = runs

	edge.apply = func(c *blockCtx, w *warp, mask uint32) {
		if mask == fullMask {
			for i := range runs {
				s, d, n := int(runs[i].s), int(runs[i].d), int(runs[i].n)
				copy(w.regs[d:d+n], w.regs[s:s+n])
			}
		} else {
			for i := range prog {
				s, d := int(prog[i].s), int(prog[i].d)
				src := w.regs[s : s+warpSize : s+warpSize]
				dl := w.regs[d : d+warpSize : d+warpSize]
				for m := mask; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m) & 31
					dl[lane] = src[lane]
				}
			}
		}
		w.cycles += c.arch.IssueALU * nCopies
	}
}

// transferT is transfer with the pre-lowered phi closure.
func (c *blockCtx) transferT(w *warp, target int32) {
	ei := len(w.stack) - 1
	e := &w.stack[ei]
	if ap := c.k.blocks[target].phiFrom[e.block].apply; ap != nil {
		ap(c, w, e.mask)
	}
	if target == e.reconv {
		w.stack = w.stack[:ei]
		return
	}
	e.block = target
	e.pc = 0
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

// lowerKernel compiles every instruction and phi edge of the kernel to
// threaded code: a uop for every hot shape, an escape closure for the rest.
// Must run after constant lane images and extended slots are assigned.
func lowerKernel(k *Kernel) {
	n := 0
	for bi := range k.blocks {
		n += len(k.blocks[bi].ins)
	}
	uops, fns := make([]uop, n), make([]execFn, n)
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ei := range cb.phiFrom {
			lowerPhiEdge(&cb.phiFrom[ei])
		}
		n = len(cb.ins)
		cb.uops, uops = uops[:n:n], uops[n:]
		cb.fns, fns = fns[:n:n], fns[n:]
		for ii := range cb.ins {
			if u, ok := uopFor(cb, &cb.ins[ii]); ok {
				cb.uops[ii] = u
				continue
			}
			cb.uops[ii] = uop{code: uEscape}
			cb.fns[ii] = lowerInstr(cb, &cb.ins[ii])
		}
	}
	fuseCmpBranches(k)
}

// fuseCmpBranches rewrites [icmp/fcmp; condbr] pairs whose compare result
// has no other use into one fused uop: the compare feeds the branch mask
// directly and its i1 lanes are never materialized. Budget and cycle
// accounting remain exactly those of the two original instructions.
func fuseCmpBranches(k *Kernel) {
	uses := make([]int32, k.nslots) // by register slot
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
			cmp, br := &cb.ins[ii], &cb.ins[ii+1]
			if (cmp.op != ir.OpICmp && cmp.op != ir.OpFCmp) || br.op != ir.OpCondBr {
				continue
			}
			if cb.uops[ii].code == uEscape || cb.uops[ii+1].code != uCondBr {
				continue
			}
			if br.args[0].kind != argReg || br.args[0].slot != cmp.dst || uses[cmp.dst] != 1 {
				continue
			}
			u := cb.uops[ii]
			if cmp.op == ir.OpICmp {
				u.code = uICmpBrEQ + uopCode(cmp.pred)
			} else {
				u.code = uFCmpBrEQ + uopCode(cmp.pred)
			}
			bu := &cb.uops[ii+1]
			u.succ0, u.succ1, u.reconv, u.both = bu.succ0, bu.succ1, bu.reconv, bu.both
			cb.uops[ii] = u
		}
	}
}

// lowerInstr lowers one decoded instruction to its specialized closure. The
// bodies replicate execInstr / runWarp case by case; any semantic deviation
// is a bug the differential backend test exists to catch.
func lowerInstr(cb *cblock, in *cinstr) execFn {
	switch in.op {
	case ir.OpRet:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			c.accountT(w, c.costs[costBranch], e.mask)
			w.doneMask |= e.mask
			w.stack = w.stack[:len(w.stack)-1]
			return stepCtl, nil
		}
	case ir.OpBr:
		succ := in.succs[0]
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			c.accountT(w, c.costs[costBranch], e.mask)
			c.transferT(w, succ)
			return stepCtl, nil
		}
	case ir.OpCondBr:
		rc := in.args[0].ebase
		succ0, succ1 := in.succs[0], in.succs[1]
		r := cb.ipdom
		both := succ0 != r && succ1 != r
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			cond := lanesAt(w, rc)
			var maskT uint32
			if e.mask == fullMask {
				cond := cond[:warpSize]
				for l := 0; l < warpSize; l++ {
					maskT |= uint32(cond[l]&1) << l
				}
			} else {
				for m := e.mask; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m) & 31
					maskT |= uint32(cond[lane]&1) << lane
				}
			}
			maskF := e.mask &^ maskT
			switch {
			case maskF == 0:
				c.accountT(w, c.costs[costBranch], e.mask)
				c.transferT(w, succ0)
			case maskT == 0:
				c.accountT(w, c.costs[costBranch], e.mask)
				c.transferT(w, succ1)
			default:
				c.accountT(w, c.costs[costBranch]+c.arch.DivergePenalty, e.mask)
				c.divergeT(w, succ0, succ1, maskT, maskF, r, both)
			}
			return stepCtl, nil
		}
	case ir.OpLoad:
		return lowerLoad(in)
	case ir.OpStore:
		return lowerStore(in)
	case ir.OpAtomicAdd, ir.OpAtomicMax, ir.OpAtomicCAS, ir.OpAtomicExch:
		return lowerAtomic(in)
	}

	switch {
	case in.op.IsIntArith():
		return lowerIntBin(in)
	case in.op.IsFloatArith():
		return lowerFloatBin(in)
	}

	switch in.op {
	case ir.OpICmp:
		return lowerICmp(in)
	case ir.OpFCmp:
		return lowerFCmp(in)
	case ir.OpSelect:
		return lowerSelect(in)
	case ir.OpZext, ir.OpSext, ir.OpTrunc, ir.OpSIToFP, ir.OpFPToSI:
		return lowerConv(in)
	case ir.OpShfl, ir.OpBallot, ir.OpActiveMask, ir.OpNop:
		return lowerWarpPrim(in)
	}

	name := in.op.String()
	return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
		return stepNext, &ExecError{Kernel: c.k.Name, Msg: "unexpected opcode " + name}
	}
}

// binPrep destructures the common two-operand shape.
func binPrep(in *cinstr) (r1, r2 int32, dst int, cls costClass) {
	return in.args[0].ebase, in.args[1].ebase, int(in.dst) * warpSize, in.cost
}

// lowerIntBin lowers two-operand integer arithmetic. The hot ops carry
// hand-specialized i32/i64 closures (no normValue switch in the lane loop);
// the rest normalize generically — identical math either way.
func lowerIntBin(in *cinstr) execFn {
	r1, r2, dst, cls := binPrep(in)
	t := in.typ
	op := in.op
	if t == ir.I32 {
		switch op {
		case ir.OpAdd:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSub:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpMul:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpAnd:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpXor:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpOr:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpShl:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpLShr:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpAShr:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSDiv:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSRem:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSMin:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSMax:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		}
	}
	if t == ir.I64 {
		switch op {
		case ir.OpAdd:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSub:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpMul:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpAnd:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpXor:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpOr:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpAShr:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSDiv:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSRem:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSMin:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpSMax:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpShl:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.OpLShr:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		}
	}
	// Generic fallback: every remaining op x type combination, normalized
	// through normValue exactly as the interpreter does.
	return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
		mask := e.mask
		s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
		dl := w.regs[dst : dst+warpSize : dst+warpSize]
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m) & 31
			dl[l] = intBinOp(op, t, s1[l], s2[l])
		}
		c.accountT(w, c.costs[cls], mask)
		return stepNext, nil
	}
}

// intBinOp evaluates one integer lane operation generically (the semantics
// of execInstr's integer cases).
func intBinOp(op ir.Opcode, t ir.Type, x, y uint64) uint64 {
	switch op {
	case ir.OpAdd:
		return normValue(t, uint64(int64(x)+int64(y)))
	case ir.OpSub:
		return normValue(t, uint64(int64(x)-int64(y)))
	case ir.OpMul:
		return normValue(t, uint64(int64(x)*int64(y)))
	case ir.OpSDiv:
		var r int64
		if yy := int64(y); yy != 0 {
			r = int64(x) / yy
		}
		return normValue(t, uint64(r))
	case ir.OpSRem:
		var r int64
		if yy := int64(y); yy != 0 {
			r = int64(x) % yy
		}
		return normValue(t, uint64(r))
	case ir.OpAnd:
		return normValue(t, x&y)
	case ir.OpOr:
		return normValue(t, x|y)
	case ir.OpXor:
		return normValue(t, x^y)
	case ir.OpShl:
		return normValue(t, x<<(y&63))
	case ir.OpLShr:
		return normValue(t, zextBits(t, x)>>(y&63))
	case ir.OpAShr:
		return normValue(t, uint64(int64(x)>>(y&63)))
	case ir.OpSMin:
		return normValue(t, uint64(min(int64(x), int64(y))))
	default: // ir.OpSMax
		return normValue(t, uint64(max(int64(x), int64(y))))
	}
}

// lowerFloatBin lowers two-operand f64 arithmetic.
func lowerFloatBin(in *cinstr) execFn {
	r1, r2, dst, cls := binPrep(in)
	switch in.op {
	case ir.OpFAdd:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.OpFSub:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.OpFMul:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.OpFDiv:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) / math.Float64frombits(s2[l]))
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.OpFMin:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Min(math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	default: // ir.OpFMax
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(math.Max(math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	}
}

// lowerICmp lowers integer comparison with the predicate specialized away.
// Register values are canonically sign-extended, so a single int64 compare
// covers every integer operand type.
func lowerICmp(in *cinstr) execFn {
	r1, r2, dst, cls := binPrep(in)
	switch in.pred {
	case ir.PredEQ:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.PredNE:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.PredLT:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.PredLE:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.PredGT:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	default: // ir.PredGE
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	}
}

// lowerFCmp lowers float comparison with the predicate specialized away.
func lowerFCmp(in *cinstr) execFn {
	r1, r2, dst, cls := binPrep(in)
	switch in.pred {
	case ir.PredEQ:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.PredNE:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.PredLT:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.PredLE:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.PredGT:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	default: // ir.PredGE
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s1, s2 := lanesAt(w, r1), lanesAt(w, r2)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	}
}

// lowerSelect lowers the conditional move.
func lowerSelect(in *cinstr) execFn {
	rc := in.args[0].ebase
	rt := in.args[1].ebase
	rf := in.args[2].ebase
	dst := int(in.dst) * warpSize
	cls := in.cost
	return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
		mask := e.mask
		cnd, tv, fv := lanesAt(w, rc), lanesAt(w, rt), lanesAt(w, rf)
		dl := w.regs[dst : dst+warpSize : dst+warpSize]
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
		c.accountT(w, c.costs[cls], mask)
		return stepNext, nil
	}
}

// lowerConv lowers the conversion ops.
func lowerConv(in *cinstr) execFn {
	r1 := in.args[0].ebase
	dst := int(in.dst) * warpSize
	cls := in.cost
	t := in.typ
	switch in.op {
	case ir.OpZext:
		at := in.args[0].typ
		if at == ir.I32 && t == ir.I64 {
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s := lanesAt(w, r1)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
				if mask == fullMask && len(s) >= warpSize {
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		}
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s := lanesAt(w, r1)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = normValue(t, zextBits(at, s[l]))
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.OpSext, ir.OpTrunc:
		// Register values are canonically sign-extended, so widening to i64
		// is the identity (a lane copy — ADEPT's address computations sext
		// an i32 index before every memory access) and narrowing to i32 is
		// the inline sign-extension.
		switch t {
		case ir.I64:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s := lanesAt(w, r1)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
				if mask == fullMask && len(s) >= warpSize {
					copy(dl, s[:warpSize])
				} else {
					for m := mask; m != 0; m &= m - 1 {
						l := bits.TrailingZeros32(m) & 31
						dl[l] = s[l]
					}
				}
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		case ir.I32:
			return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
				mask := e.mask
				s := lanesAt(w, r1)
				dl := w.regs[dst : dst+warpSize : dst+warpSize]
				if mask == fullMask && len(s) >= warpSize {
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
				c.accountT(w, c.costs[cls], mask)
				return stepNext, nil
			}
		}
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s := lanesAt(w, r1)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = normValue(t, s[l])
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.OpSIToFP:
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s := lanesAt(w, r1)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = math.Float64bits(float64(int64(s[l])))
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	default: // ir.OpFPToSI
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			s := lanesAt(w, r1)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				f := math.Float64frombits(s[l])
				var v int64
				if !math.IsNaN(f) {
					v = int64(f)
				}
				dl[l] = normValue(t, uint64(v))
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	}
}

// lowerWarpPrim lowers shfl/ballot/activemask/nop.
func lowerWarpPrim(in *cinstr) execFn {
	cls := in.cost
	switch in.op {
	case ir.OpShfl:
		rv := in.args[0].ebase
		rl := in.args[1].ebase
		dst := int(in.dst) * warpSize
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			sv, sl := lanesAt(w, rv), lanesAt(w, rl)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			// SSA slots are unique per instruction, so dl can never alias
			// sv: the staging buffer of the interpreter is unnecessary.
			if mask == fullMask && len(sv) >= warpSize && len(sl) >= warpSize {
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
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.OpBallot:
		rp := in.args[0].ebase
		dst := int(in.dst) * warpSize
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			p := lanesAt(w, rp)
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			var res uint32
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				res |= uint32(p[l]&1) << l
			}
			v := uint64(int64(int32(res)))
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = v
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	case ir.OpActiveMask:
		dst := int(in.dst) * warpSize
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			mask := e.mask
			dl := w.regs[dst : dst+warpSize : dst+warpSize]
			v := uint64(int64(int32(mask)))
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m) & 31
				dl[l] = v
			}
			c.accountT(w, c.costs[cls], mask)
			return stepNext, nil
		}
	default: // ir.OpNop
		return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
			c.accountT(w, c.costs[cls], e.mask)
			return stepNext, nil
		}
	}
}

// lowerLoad lowers a load of a type the micro-ops do not cover (i1; every
// wider load is a uLoad*). In fast-replay mode (see uniform.go) the cost
// model is skipped: the launch's cycle count is already known and only the
// functional effect is needed.
func lowerLoad(in *cinstr) execFn {
	ra := in.args[0].ebase
	dst := int(in.dst) * warpSize
	t := in.typ
	uid := int(in.uid)
	shared := in.space == ir.SpaceShared
	opName := "global load"
	if shared {
		opName = "shared load"
	}
	size := int64(t.Size())
	return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
		mask := e.mask
		mem := c.d.mem
		if shared {
			mem = c.shared
		}
		hi := int64(len(mem)) - size
		src := lanesAt(w, ra)
		n := c.gatherAddrs(src, mask)
		for i := 0; i < n; i++ {
			a := c.addrs[i]
			if a < 0 || a > hi {
				return stepNext, &FaultError{Kernel: c.k.Name, Addr: a, Op: opName, UID: uid}
			}
			w.regs[dst+c.lanes[i]] = loadMem(mem, t, a)
		}
		if c.fast {
			return stepNext, nil
		}
		shape := shapeOf(src, mask, shared)
		if shared {
			c.accountT(w, c.sharedCost(n, shape)+c.memPenalty(w), mask)
		} else {
			c.accountT(w, c.globalCost(n, shape)+c.memPenalty(w), mask)
		}
		return stepNext, nil
	}
}

// lowerStore lowers a store of a type the micro-ops do not cover (i1).
func lowerStore(in *cinstr) execFn {
	rv := in.args[0].ebase
	ra := in.args[1].ebase
	t := in.args[0].typ
	uid := int(in.uid)
	shared := in.space == ir.SpaceShared
	size := int64(t.Size())
	return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
		mask := e.mask
		mem := c.d.mem
		if shared {
			mem = c.shared
		}
		hi := int64(len(mem)) - size
		vals := lanesAt(w, rv)
		src := lanesAt(w, ra)
		var maxEnd int64 = -1
		n := c.gatherAddrs(src, mask)
		for i := 0; i < n; i++ {
			a := c.addrs[i]
			if a < 0 || a > hi {
				if !shared {
					return stepNext, c.globalStoreFault(a, maxEnd, size, uid)
				}
				return stepNext, &FaultError{Kernel: c.k.Name, Addr: a, Op: "shared store", UID: uid}
			}
			storeMem(mem, t, a, vals[c.lanes[i]])
			maxEnd = max(maxEnd, a)
		}
		if !shared {
			c.d.touch(maxEnd + size)
		}
		if c.fast {
			return stepNext, nil
		}
		shape := shapeOf(src, mask, shared)
		if shared {
			c.accountT(w, c.sharedCost(n, shape), mask)
		} else {
			c.accountT(w, c.globalCost(n, shape), mask)
		}
		return stepNext, nil
	}
}

// lowerAtomic lowers the four atomic ops, mirroring execAtomic.
func lowerAtomic(in *cinstr) execFn {
	op := in.op
	ra := in.args[0].ebase
	r1 := in.args[1].ebase
	var r2 int32
	if op == ir.OpAtomicCAS {
		r2 = in.args[2].ebase
	}
	dst := int(in.dst) * warpSize
	t := in.typ
	size := int64(t.Size())
	global := in.space != ir.SpaceShared
	spaceName := in.space.String()
	uid := int(in.uid)
	return func(c *blockCtx, w *warp, e *simtEntry) (step, error) {
		mask := e.mask
		n := c.gatherAddrs(lanesAt(w, ra), mask)
		arg1 := lanesAt(w, r1)
		var arg2 []uint64
		if op == ir.OpAtomicCAS {
			arg2 = lanesAt(w, r2)
		}
		var mem []byte
		if global {
			mem = c.d.mem
		} else {
			mem = c.shared
		}
		// Lanes commit in ascending lane order, matching execAtomic.
		for i := 0; i < n; i++ {
			a := c.addrs[i]
			if a < 0 || a+size > int64(len(mem)) {
				return stepNext, &FaultError{Kernel: c.k.Name, Addr: a, Op: "atomic " + spaceName, UID: uid}
			}
			lane := c.lanes[i]
			old := loadMem(mem, t, a)
			var newVal uint64
			switch op {
			case ir.OpAtomicAdd:
				newVal = normValue(t, uint64(int64(old)+int64(arg1[lane])))
			case ir.OpAtomicMax:
				newVal = normValue(t, uint64(max(int64(old), int64(arg1[lane]))))
			case ir.OpAtomicExch:
				newVal = normValue(t, arg1[lane])
			case ir.OpAtomicCAS:
				if old == arg1[lane] {
					newVal = normValue(t, arg2[lane])
				} else {
					newVal = old
				}
			}
			storeMem(mem, t, a, newVal)
			if global {
				c.d.touch(a + size)
			}
			w.regs[dst+lane] = old
		}
		if !c.fast {
			cost := c.arch.AtomicCost + float64(maxContention(c.addrs[:n])-1)*c.arch.AtomicSerialCost
			c.accountT(w, cost, mask)
		}
		return stepNext, nil
	}
}
