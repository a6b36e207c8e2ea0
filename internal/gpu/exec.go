package gpu

import (
	"math"
	"math/bits"

	"gevo/internal/ir"
)

// The execution engine: warps execute compiled kernels in lock-step over 32
// lanes, with a SIMT reconvergence stack handling branch divergence. Both
// sides of a divergent branch are executed serially under complementary
// masks and both are charged cycles — the mechanism behind the paper's
// Section VI-A finding that a divergent fast-path/slow-path split can lose
// to a uniform slow path.
//
// This switch interpreter is the reference the threaded backend (uop.go) is
// tested against, and it runs the threaded backend's escapes. It is kept
// simple rather than fast: every operand is read from the extended register
// file Launch fills (argLanes), phi copies always go through a snapshot, and
// per-instruction issue costs come from a table resolved at launch (see
// costClass).

const warpSize = 32

const fullMask = uint32(0xFFFFFFFF)

// simtEntry is one SIMT stack entry: a path of execution with an active lane
// mask, reconverging when control reaches the reconv block.
type simtEntry struct {
	block  int32
	pc     int32
	reconv int32 // block index to pop at; -1 = virtual exit
	mask   uint32
	// sibling marks a path pushed together with a second serialized path
	// (a diverged if/else). Loads on such paths expose their latency: the
	// other path's lanes sit idle and cannot hide it. Paths from
	// if-without-else divergence (the other lanes merely wait at the merge
	// point) are not marked.
	sibling bool
}

// warp is the execution state of one warp within a block.
type warp struct {
	regs     []uint64 // nslots * 32, lane-major within slot
	stack    []simtEntry
	cycles   float64
	waiting  bool // parked at a barrier
	done     bool
	doneMask uint32
	initMask uint32
	// retreats counts the warp's retreating transfers (target block index <=
	// source) in this block run: the clock of the threaded backend's
	// non-termination witness (see transferT). The interpreter leaves it 0.
	retreats uint32
}

// blockCtx is the execution context of one thread block.
type blockCtx struct {
	d        *Device
	k        *Kernel
	arch     *Arch
	shared   []byte
	blockDim int32
	warps    []*warp
	prof     *Profile
	budget   *int64
	// costs is the architecture's issue-cost table indexed by costClass,
	// resolved once per launch.
	costs [numCostClasses]float64
	// scratch buffers reused across instructions
	addrs    [warpSize]int64
	lanes    [warpSize]int
	bankWord [warpSize]int64
	phiTmp   []uint64
	// threaded selects the threaded-code backend (runWarpU) for this launch.
	threaded bool
	// fast is set during a memoized uniform-launch replay: the launch's
	// cycle count is already known, so memory instructions skip the cost
	// model and execute functionally only (see uniform.go).
	fast bool
	// epoch advances whenever something other than the running warp's own
	// registers and SIMT stack may have changed: on every entry to runWarpU
	// (a barrier release, another warp having run), every store micro-op and
	// every escape. wit is the witness's one copy of a warp's state, live
	// only while wit.epoch == epoch (see transferT).
	epoch uint64
	wit   witness
}

// witness is a copy of everything a warp's next step can depend on besides
// memory — its real registers, SIMT stack and retired lanes — taken right
// after a retreating transfer into block, at effect epoch epoch.
type witness struct {
	epoch    uint64
	left     int // retreats into block the copy is still compared on
	block    int32
	doneMask uint32
	stack    []simtEntry
	regs     []uint64
}

// laneLanes is the static lane image of the lane-id special register.
var laneLanes [warpSize]uint64

func init() {
	for i := range laneLanes {
		laneLanes[i] = uint64(int64(i))
	}
}

// argLanes returns the warpSize-long window of the warp's register file that
// holds the operand's value for every lane: its offset into the extended
// register file, where Launch and runBlock put constants, parameters and
// special registers. The returned slices are read-only to the executor.
//
// The interpreter reads a register at its own slot instead: finalizeKernel's
// identity-copy propagation rewrites only ebase, for the threaded side (an
// escape run by runWarpU), where the dead copy's own slot is never written.
// So the oracle stays independent of that rewrite.
func (c *blockCtx) argLanes(w *warp, a *carg) []uint64 {
	o := a.ebase
	if a.kind == argReg && !c.threaded {
		o = a.slot * warpSize
	}
	return w.regs[o : o+warpSize : o+warpSize]
}

// dstLanes returns the destination register slice of a value-producing
// instruction.
func dstLanes(w *warp, in *cinstr) []uint64 {
	d := int(in.dst) * warpSize
	return w.regs[d : d+warpSize : d+warpSize]
}

// account charges cycles to the warp and, when profiling, to the
// instruction. Every instruction additionally pays the quarter-warp issue
// skew when its lowest active lane is in a later issue group (see
// Arch.QuarterWarpSkew).
func (c *blockCtx) account(w *warp, in *cinstr, cost float64, mask uint32) {
	if mask != 0 {
		cost += c.arch.QuarterWarpSkew * float64(bits.TrailingZeros32(mask)/8)
	}
	w.cycles += cost
	if c.prof != nil {
		c.prof.record(in.uid, cost, int64(bits.OnesCount32(mask)))
	}
}

// memPenalty is the extra exposed latency of a load issued on one side of an
// if/else divergence (see Arch.DivergedMemPenalty). Stores and atomics
// retire through the store queue and do not stall the sibling path, so only
// loads pay it; masked-off lanes of an if-without-else have no serialized
// sibling and pay nothing.
func (c *blockCtx) memPenalty(w *warp) float64 {
	if len(w.stack) > 1 && w.stack[len(w.stack)-1].sibling {
		return c.arch.DivergedMemPenalty
	}
	return 0
}

// applyPhis performs the parallel phi copies for the edge from→to under the
// given mask. Parallel-copy semantics: snapshot all sources before writing
// any destination (a phi may read another phi's pre-transfer value).
func (c *blockCtx) applyPhis(w *warp, from, to int32, mask uint32) {
	copies := c.k.blocks[to].phiFrom[from].copies
	if len(copies) == 0 {
		return
	}
	need := len(copies) * warpSize
	if cap(c.phiTmp) < need {
		c.phiTmp = make([]uint64, need)
	}
	tmp := c.phiTmp[:need]
	for i := range copies {
		src := c.argLanes(w, &copies[i].src)
		// Inactive lanes are snapshotted too but never written back.
		copy(tmp[i*warpSize:(i+1)*warpSize], src)
	}
	for i := range copies {
		d := int(copies[i].dst) * warpSize
		dl := w.regs[d : d+warpSize : d+warpSize]
		t := tmp[i*warpSize:]
		for m := mask; m != 0; m &= m - 1 {
			lane := bits.TrailingZeros32(m)
			dl[lane] = t[lane]
		}
	}
	w.cycles += c.arch.IssueALU * float64(len(copies))
}

// transfer moves the top stack entry to the target block, popping it when
// the target is its reconvergence point.
func (c *blockCtx) transfer(w *warp, target int32) {
	ei := len(w.stack) - 1
	e := &w.stack[ei]
	c.applyPhis(w, e.block, target, e.mask)
	if target == e.reconv {
		w.stack = w.stack[:ei]
		return
	}
	e.block = target
	e.pc = 0
}

// diverge splits the top entry into then/else paths reconverging at r (the
// immediate post-dominator of the branching block).
func (c *blockCtx) diverge(w *warp, in *cinstr, maskT, maskF uint32, r int32) {
	ei := len(w.stack) - 1
	cur := w.stack[ei]
	if r == cur.reconv || r == -1 {
		// The paths reconverge at (or beyond) the enclosing region's merge
		// point: no separate continuation entry is needed.
		w.stack = w.stack[:ei]
	} else {
		w.stack[ei].block = r
		w.stack[ei].pc = 0
	}
	// Push the else path first so the then path executes first. Paths are
	// siblings (serialized against each other) only when both sides have
	// real work before the merge point.
	both := in.succs[0] != r && in.succs[1] != r
	if maskF != 0 {
		c.applyPhis(w, cur.block, in.succs[1], maskF)
		if in.succs[1] != r {
			w.stack = append(w.stack, simtEntry{block: in.succs[1], pc: 0, reconv: r, mask: maskF, sibling: both})
		}
	}
	if maskT != 0 {
		c.applyPhis(w, cur.block, in.succs[0], maskT)
		if in.succs[0] != r {
			w.stack = append(w.stack, simtEntry{block: in.succs[0], pc: 0, reconv: r, mask: maskT, sibling: both})
		}
	}
}

const maxStackDepth = 4096

// runWarp executes the warp until it parks at a barrier, retires, or errs.
// The dynamic-instruction budget is kept in a local and written back on
// every exit so the shared counter stays exact across warps.
func (c *blockCtx) runWarp(w *warp) error {
	bud := *c.budget
	defer func() { *c.budget = bud }()
	for {
		if len(w.stack) == 0 {
			w.done = true
			return nil
		}
		if len(w.stack) > maxStackDepth {
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
		// Straight-line fast path: non-control instructions leave the SIMT
		// stack untouched, so e, blk and the active mask stay valid until a
		// terminator or barrier ends the run.
	straight:
		for {
			if int(e.pc) >= len(blk.ins) {
				return &ExecError{Kernel: c.k.Name, Msg: "fell off block " + blk.name}
			}
			in := &blk.ins[e.pc]
			bud--
			if bud <= 0 {
				return &TimeoutError{Kernel: c.k.Name}
			}

			switch in.op {
			case ir.OpBarrier:
				e.pc++
				w.waiting = true
				return nil
			case ir.OpRet:
				c.account(w, in, c.costs[costBranch], e.mask)
				w.doneMask |= e.mask
				w.stack = w.stack[:ei]
				break straight
			case ir.OpBr:
				c.account(w, in, c.costs[costBranch], e.mask)
				c.transfer(w, in.succs[0])
				break straight
			case ir.OpCondBr:
				cond := c.argLanes(w, &in.args[0])
				var maskT uint32
				for m := e.mask; m != 0; m &= m - 1 {
					lane := bits.TrailingZeros32(m)
					maskT |= uint32(cond[lane]&1) << lane
				}
				maskF := e.mask &^ maskT
				if c.prof != nil {
					c.prof.recordBranch(in.uid, bits.OnesCount32(e.mask), bits.OnesCount32(maskT), maskT != 0 && maskF != 0)
				}
				switch {
				case maskF == 0:
					c.account(w, in, c.costs[costBranch], e.mask)
					c.transfer(w, in.succs[0])
				case maskT == 0:
					c.account(w, in, c.costs[costBranch], e.mask)
					c.transfer(w, in.succs[1])
				default:
					c.account(w, in, c.costs[costBranch]+c.arch.DivergePenalty, e.mask)
					c.diverge(w, in, maskT, maskF, blk.ipdom)
				}
				break straight
			default:
				if err := c.execInstr(w, e, in); err != nil {
					return err
				}
				e.pc++
			}
		}
	}
}

// execInstr executes one non-control instruction under the entry's mask. The
// opcode dispatch happens once per instruction; the per-lane loops below are
// tight mask-bit iterations over pre-resolved operand slices.
func (c *blockCtx) execInstr(w *warp, e *simtEntry, in *cinstr) error {
	mask := e.mask

	switch {
	case in.op.IsIntArith():
		s1 := c.argLanes(w, &in.args[0])
		s2 := c.argLanes(w, &in.args[1])
		dl := dstLanes(w, in)
		t := in.typ
		switch in.op {
		case ir.OpAdd:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, uint64(int64(s1[l])+int64(s2[l])))
			}
		case ir.OpSub:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, uint64(int64(s1[l])-int64(s2[l])))
			}
		case ir.OpMul:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, uint64(int64(s1[l])*int64(s2[l])))
			}
		case ir.OpSDiv:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				var r int64
				if y := int64(s2[l]); y != 0 {
					r = int64(s1[l]) / y
				}
				dl[l] = normValue(t, uint64(r))
			}
		case ir.OpSRem:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				var r int64
				if y := int64(s2[l]); y != 0 {
					r = int64(s1[l]) % y
				}
				dl[l] = normValue(t, uint64(r))
			}
		case ir.OpAnd:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, s1[l]&s2[l])
			}
		case ir.OpOr:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, s1[l]|s2[l])
			}
		case ir.OpXor:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, s1[l]^s2[l])
			}
		case ir.OpShl:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, s1[l]<<(s2[l]&63))
			}
		case ir.OpLShr:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, zextBits(t, s1[l])>>(s2[l]&63))
			}
		case ir.OpAShr:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, uint64(int64(s1[l])>>(s2[l]&63)))
			}
		case ir.OpSMin:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, uint64(min(int64(s1[l]), int64(s2[l]))))
			}
		case ir.OpSMax:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = normValue(t, uint64(max(int64(s1[l]), int64(s2[l]))))
			}
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op.IsFloatArith():
		s1 := c.argLanes(w, &in.args[0])
		s2 := c.argLanes(w, &in.args[1])
		dl := dstLanes(w, in)
		switch in.op {
		case ir.OpFAdd:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) + math.Float64frombits(s2[l]))
			}
		case ir.OpFSub:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) - math.Float64frombits(s2[l]))
			}
		case ir.OpFMul:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) * math.Float64frombits(s2[l]))
			}
		case ir.OpFDiv:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = math.Float64bits(math.Float64frombits(s1[l]) / math.Float64frombits(s2[l]))
			}
		case ir.OpFMin:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = math.Float64bits(math.Min(math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
			}
		case ir.OpFMax:
			for m := mask; m != 0; m &= m - 1 {
				l := bits.TrailingZeros32(m)
				dl[l] = math.Float64bits(math.Max(math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
			}
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpICmp:
		s1 := c.argLanes(w, &in.args[0])
		s2 := c.argLanes(w, &in.args[1])
		dl := dstLanes(w, in)
		pred := in.pred
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = boolBit(cmpInt(pred, int64(s1[l]), int64(s2[l])))
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpFCmp:
		s1 := c.argLanes(w, &in.args[0])
		s2 := c.argLanes(w, &in.args[1])
		dl := dstLanes(w, in)
		pred := in.pred
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = boolBit(cmpFloat(pred, math.Float64frombits(s1[l]), math.Float64frombits(s2[l])))
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpSelect:
		cnd := c.argLanes(w, &in.args[0])
		tv := c.argLanes(w, &in.args[1])
		fv := c.argLanes(w, &in.args[2])
		dl := dstLanes(w, in)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			if cnd[l]&1 != 0 {
				dl[l] = tv[l]
			} else {
				dl[l] = fv[l]
			}
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpZext:
		a := &in.args[0]
		at := a.typ
		s := c.argLanes(w, a)
		dl := dstLanes(w, in)
		t := in.typ
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = normValue(t, zextBits(at, s[l]))
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpSext || in.op == ir.OpTrunc:
		s := c.argLanes(w, &in.args[0])
		dl := dstLanes(w, in)
		t := in.typ
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = normValue(t, s[l])
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpSIToFP:
		s := c.argLanes(w, &in.args[0])
		dl := dstLanes(w, in)
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = math.Float64bits(float64(int64(s[l])))
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpFPToSI:
		s := c.argLanes(w, &in.args[0])
		dl := dstLanes(w, in)
		t := in.typ
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = normValue(t, uint64(fptosi(math.Float64frombits(s[l]))))
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpLoad:
		return c.execLoad(w, e, in)

	case in.op == ir.OpStore:
		return c.execStore(w, e, in)

	case in.op == ir.OpAtomicAdd || in.op == ir.OpAtomicMax ||
		in.op == ir.OpAtomicCAS || in.op == ir.OpAtomicExch:
		return c.execAtomic(w, e, in)

	case in.op == ir.OpShfl:
		sv := c.argLanes(w, &in.args[0])
		sl := c.argLanes(w, &in.args[1])
		dl := dstLanes(w, in)
		var tmp [warpSize]uint64
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			src := int(int64(sl[l])) & (warpSize - 1)
			tmp[l] = sv[src]
		}
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = tmp[l]
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpBallot:
		p := c.argLanes(w, &in.args[0])
		dl := dstLanes(w, in)
		var res uint32
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			res |= uint32(p[l]&1) << l
		}
		v := uint64(int64(int32(res)))
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = v
		}
		// On Volta, ballot_sync forces the subdivided warp to reconverge;
		// on Pascal warps execute in strict lock-step and the query is
		// nearly free (Section VI-B).
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpActiveMask:
		dl := dstLanes(w, in)
		v := uint64(int64(int32(mask)))
		for m := mask; m != 0; m &= m - 1 {
			l := bits.TrailingZeros32(m)
			dl[l] = v
		}
		c.account(w, in, c.costs[in.cost], mask)

	case in.op == ir.OpNop:
		c.account(w, in, c.costs[in.cost], mask)

	default:
		return &ExecError{Kernel: c.k.Name, Msg: "unexpected opcode " + in.op.String()}
	}
	return nil
}

func (c *blockCtx) execLoad(w *warp, e *simtEntry, in *cinstr) error {
	mask := e.mask
	dst := int(in.dst) * warpSize
	src := c.argLanes(w, &in.args[0])
	n := c.gatherAddrs(src, mask)
	shape := shapeOf(src, mask, in.space == ir.SpaceShared)
	if in.space == ir.SpaceShared {
		size := int64(in.typ.Size())
		for i := 0; i < n; i++ {
			a := c.addrs[i]
			if a < 0 || a+size > int64(len(c.shared)) {
				return &FaultError{Kernel: c.k.Name, Addr: a, Op: "shared load", UID: int(in.uid)}
			}
			w.regs[dst+c.lanes[i]] = loadMem(c.shared, in.typ, a)
		}
		c.account(w, in, c.sharedCost(n, shape)+c.memPenalty(w), mask)
		if c.prof != nil {
			c.prof.recordMem(in.uid, int64(n), int64(c.sharedReplays(n)))
		}
		return nil
	}
	for i := 0; i < n; i++ {
		v, ok := c.d.load(in.typ, c.addrs[i])
		if !ok {
			return &FaultError{Kernel: c.k.Name, Addr: c.addrs[i], Op: "global load", UID: int(in.uid)}
		}
		w.regs[dst+c.lanes[i]] = v
	}
	c.account(w, in, c.globalCost(n, shape)+c.memPenalty(w), mask)
	if c.prof != nil {
		c.prof.recordMem(in.uid, int64(n), int64(c.globalSegs(n)))
	}
	return nil
}

func (c *blockCtx) execStore(w *warp, e *simtEntry, in *cinstr) error {
	mask := e.mask
	valArg := &in.args[0]
	src := c.argLanes(w, &in.args[1])
	n := c.gatherAddrs(src, mask)
	shape := shapeOf(src, mask, in.space == ir.SpaceShared)
	vals := c.argLanes(w, valArg)
	t := valArg.typ
	if in.space == ir.SpaceShared {
		size := int64(t.Size())
		for i := 0; i < n; i++ {
			a := c.addrs[i]
			if a < 0 || a+size > int64(len(c.shared)) {
				return &FaultError{Kernel: c.k.Name, Addr: a, Op: "shared store", UID: int(in.uid)}
			}
			storeMem(c.shared, t, a, vals[c.lanes[i]])
		}
		c.account(w, in, c.sharedCost(n, shape), mask)
		if c.prof != nil {
			c.prof.recordMem(in.uid, int64(n), int64(c.sharedReplays(n)))
		}
		return nil
	}
	for i := 0; i < n; i++ {
		if !c.d.store(t, c.addrs[i], vals[c.lanes[i]]) {
			return &FaultError{Kernel: c.k.Name, Addr: c.addrs[i], Op: "global store", UID: int(in.uid)}
		}
	}
	c.account(w, in, c.globalCost(n, shape), mask)
	if c.prof != nil {
		c.prof.recordMem(in.uid, int64(n), int64(c.globalSegs(n)))
	}
	return nil
}

// globalStoreFault builds the fault for a global store whose lane at address
// a is out of range, after recording what the warp's earlier lanes already
// wrote (their highest address is maxEnd, -1 when none did). The threaded
// store loops mark the arena dirty once per warp, after the loop; a fault
// that skipped the mark would leave those bytes above it, Reset would not
// clear them, and the pool would hand the next launch a non-zero arena.
func (c *blockCtx) globalStoreFault(a, maxEnd, size int64, uid int) error {
	if maxEnd >= 0 {
		c.d.touch(maxEnd + size)
	}
	return &FaultError{Kernel: c.k.Name, Addr: a, Op: "global store", UID: uid}
}

func (c *blockCtx) execAtomic(w *warp, e *simtEntry, in *cinstr) error {
	mask := e.mask
	n := c.gatherAddrs(c.argLanes(w, &in.args[0]), mask)
	arg1 := c.argLanes(w, &in.args[1])
	var arg2 []uint64
	if in.op == ir.OpAtomicCAS {
		arg2 = c.argLanes(w, &in.args[2])
	}
	dst := int(in.dst) * warpSize
	t := in.typ
	size := int64(t.Size())

	var mem []byte
	global := in.space != ir.SpaceShared
	if global {
		mem = c.d.mem
	} else {
		mem = c.shared
	}
	// Lanes commit in ascending lane order: a deterministic stand-in for the
	// hardware's unspecified intra-warp atomic ordering (the SIMCoV race of
	// Section II-C resolves by this order).
	for i := 0; i < n; i++ {
		a := c.addrs[i]
		if a < 0 || a+size > int64(len(mem)) {
			return &FaultError{Kernel: c.k.Name, Addr: a, Op: "atomic " + in.space.String(), UID: int(in.uid)}
		}
		lane := c.lanes[i]
		old := loadMem(mem, t, a)
		var newVal uint64
		switch in.op {
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
	serial := maxContention(c.addrs[:n])
	cost := c.arch.AtomicCost + float64(serial-1)*c.arch.AtomicSerialCost
	c.account(w, in, cost, mask)
	if c.prof != nil {
		c.prof.recordMem(in.uid, int64(n), int64(serial))
	}
	return nil
}

// gatherAddrs collects the addresses src holds for the active lanes into
// c.addrs/c.lanes and returns the count.
func (c *blockCtx) gatherAddrs(src []uint64, mask uint32) int {
	n := 0
	for m := mask; m != 0; m &= m - 1 {
		lane := bits.TrailingZeros32(m) & 31
		c.addrs[n] = int64(src[lane])
		c.lanes[n] = lane
		n++
	}
	return n
}

// addrShape is what a warp's memory access does as one, read off the active
// lanes' addresses before the per-lane loop runs. Both backends classify with
// shapeOf and charge through sharedCost/globalCost, so a collective shape
// costs the same float in each by construction.
type addrShape uint8

const (
	// shapeOther is every access the two rules below do not claim; its cost
	// comes from walking the gathered addresses (sharedReplays, globalSegs).
	shapeOther addrShape = iota
	// shapeBroadcast: every active lane holds one address. One word in one
	// bank, so no bank sees two distinct words; one 128-byte segment.
	shapeBroadcast
	// shapeUnitStride: active lane l is on 4-byte word w0+l. Thirty-two
	// consecutive words fall in thirty-two different banks, so again no bank
	// sees two distinct words — which is exactly when sharedReplays returns 1.
	shapeUnitStride
)

// shapeOf classifies the addresses src holds for the lanes in mask (not
// empty). wantUnit asks for the unit-stride rule too; only the shared-memory
// charge can use it. Each rule gives up at the first lane that breaks it, so
// an access of neither shape pays for a lane or two.
func shapeOf(src []uint64, mask uint32, wantUnit bool) addrShape {
	first := bits.TrailingZeros32(mask) & 31
	rest := mask & (mask - 1)
	a0 := src[first]
	m := rest
	for m != 0 && src[bits.TrailingZeros32(m)&31] == a0 {
		m &= m - 1
	}
	if m == 0 {
		return shapeBroadcast
	}
	if !wantUnit {
		return shapeOther
	}
	w0 := int64(a0)>>2 - int64(first)
	for m = rest; m != 0; m &= m - 1 {
		l := bits.TrailingZeros32(m) & 31
		if int64(src[l])>>2-int64(l) != w0 {
			return shapeOther
		}
	}
	return shapeUnitStride
}

// sharedCost models shared-memory bank conflicts: 32 banks of 4-byte words;
// lanes hitting distinct words in the same bank serialize into replays.
// Lanes hitting the same word broadcast (no replay). A collective shape is
// conflict-free without looking; any other is counted from the n gathered
// addresses.
func (c *blockCtx) sharedCost(n int, shape addrShape) float64 {
	r := 1
	if shape == shapeOther {
		r = c.sharedReplays(n)
	}
	if r == 1 {
		return c.arch.SharedLatency
	}
	return c.arch.SharedLatency + float64(r-1)*c.arch.SharedConflictCost
}

// sharedReplays counts the worst bank's serialized replays for the gathered
// access (1 = conflict-free).
func (c *blockCtx) sharedReplays(n int) int {
	// Fast path: every bank is touched by at most one distinct word
	// (conflict-free access or pure broadcast), the common case for
	// well-formed kernels. One pass, no replay accounting needed.
	var seen uint32
	for i := 0; i < n; i++ {
		word := c.addrs[i] >> 2
		b := int(word & 31)
		if seen&(1<<b) == 0 {
			seen |= 1 << b
			c.bankWord[b] = word
		} else if c.bankWord[b] != word {
			return c.sharedReplaysSlow(n)
		}
	}
	return 1
}

// sharedReplaysSlow counts replays for conflicting access patterns in one
// pass. A lane replays once per earlier lane in its bank on a different word
// (so duplicate broadcast lanes in a conflicted bank weigh into the count):
// 1 + earlier lanes in its bank − earlier lanes on its word. Each bank keeps
// a chain of the lanes that introduced its distinct words, with a running
// lane count per word.
func (c *blockCtx) sharedReplaysSlow(n int) int {
	var (
		inBank [warpSize]uint8 // per bank: lanes seen so far
		head   [warpSize]uint8 // per bank: 1 + newest chain lane (0 = empty)
		next   [warpSize]uint8 // per chain lane: 1 + the bank's previous chain lane
		onWord [warpSize]uint8 // per chain lane: lanes seen so far on its word
	)
	maxReplay := 1
	for i := 0; i < n; i++ {
		word := c.addrs[i] >> 2
		b := word & 31
		j := head[b]
		for j != 0 && c.addrs[j-1]>>2 != word {
			j = next[j-1]
		}
		replays := 1 + int(inBank[b])
		if j == 0 {
			next[i], head[b], onWord[i] = head[b], uint8(i+1), 1
		} else {
			replays -= int(onWord[j-1])
			onWord[j-1]++
		}
		inBank[b]++
		if replays > maxReplay {
			maxReplay = replays
		}
	}
	return maxReplay
}

// globalCost models coalescing: the warp pays for the number of distinct
// 128-byte segments its active lanes touch — one for a broadcast, counted
// from the n gathered addresses otherwise.
func (c *blockCtx) globalCost(n int, shape addrShape) float64 {
	segs := 1
	if shape != shapeBroadcast {
		segs = c.globalSegs(n)
	}
	return c.arch.GlobalLatency + float64(segs-1)*c.arch.GlobalTxCost
}

// globalSegs counts the distinct 128-byte segments the gathered access
// touches (minimum 1, so an all-inactive access still pays base latency).
func (c *blockCtx) globalSegs(n int) int {
	segs := 0
	for i := 0; i < n; i++ {
		si := c.addrs[i] >> 7
		if i > 0 && c.addrs[i-1]>>7 == si {
			// Same segment as the previous lane (the coalesced common case):
			// already counted or already deduplicated.
			continue
		}
		dup := false
		for j := 0; j < i; j++ {
			if c.addrs[j]>>7 == si {
				dup = true
				break
			}
		}
		if !dup {
			segs++
		}
	}
	if segs == 0 {
		segs = 1
	}
	return segs
}

// maxContention returns the largest number of lanes targeting one address.
func maxContention(addrs []int64) int {
	best := 1
	for i := range addrs {
		n := 1
		for j := 0; j < i; j++ {
			if addrs[j] == addrs[i] {
				n++
			}
		}
		if n > best {
			best = n
		}
	}
	return best
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func cmpInt(p ir.Pred, x, y int64) bool {
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredLT:
		return x < y
	case ir.PredLE:
		return x <= y
	case ir.PredGT:
		return x > y
	default:
		return x >= y
	}
}

func cmpFloat(p ir.Pred, x, y float64) bool {
	switch p {
	case ir.PredEQ:
		return x == y
	case ir.PredNE:
		return x != y
	case ir.PredLT:
		return x < y
	case ir.PredLE:
		return x <= y
	case ir.PredGT:
		return x > y
	default:
		return x >= y
	}
}

// zextBits returns the value's bits zero-extended from its type width.
func zextBits(t ir.Type, v uint64) uint64 {
	switch t {
	case ir.I1:
		return v & 1
	case ir.I8:
		return v & 0xFF
	case ir.I32:
		return v & 0xFFFFFFFF
	default:
		return v
	}
}

// fptosi is the float-to-signed-integer conversion of both backends. Go leaves
// int64(f) implementation-defined when f is out of range (amd64 yields
// MinInt64, arm64 saturates), so a mutant that divides by zero ahead of a
// fptosi would score differently on another host. Here NaN converts to 0 and
// every value outside [-2^63, 2^63), the infinities included, to MinInt64.
func fptosi(f float64) int64 {
	switch {
	case math.IsNaN(f):
		return 0
	case f >= -(1<<63) && f < 1<<63:
		return int64(f)
	default:
		return math.MinInt64
	}
}
