package gpu

import (
	"fmt"

	"gevo/internal/ir"
)

// Kernel is a compiled, executable form of an ir.Function: operands resolved
// to register slots, blocks indexed, phis lowered to edge copies, and
// reconvergence points (immediate post-dominators) precomputed. Compilation
// is the simulator's analog of the NVPTX codegen step in Figure 1.
type Kernel struct {
	Name        string
	Params      []ir.Type
	SharedBytes int
	blocks      []cblock
	nslots      int
	nextUID     int // the source function's NextUID: bounds the UIDs a profile sees
	// oblivious marks kernels whose timing provably cannot depend on memory
	// contents (see kernelTimingOblivious); such launches are eligible for
	// uniform-launch timing memoization.
	oblivious bool

	// Extended register file layout of both backends: totalSlots is
	// nslots plus one slot per distinct constant, parameter and special
	// register used by the kernel. The ext* tables describe how Launch and
	// runBlock fill those extra slots (constants and launch-uniform values
	// once per launch, blockIdx once per block).
	totalSlots int
	// regSlots is the length of a warp's register file in slots: through
	// the scalar file and its slack, in whole slots, so that the lane images
	// of every warp of a launch stay on the cache-line boundaries of the
	// first's (a 256-byte image misaligned spans five 64-byte lines, not
	// four).
	regSlots int
	extConst []extConstFill
	extParam []extIdxFill
	extSpec  []extIdxFill
	extBID   []int32
	// home is every real slot's register home (homeLanes, homeBoth,
	// homeScalar; see uop_invariant.go): whether the threaded backend keeps
	// its value in a word of the scalar file, its 32-lane image, or both.
	home []int32
	// clearBases lists the register bases the threaded backend must zero at
	// block start. Verified SSA guarantees every masked read sees a lane its
	// def wrote — the only instruction that reads lanes outside its active
	// mask is shfl, so only shfl value operands observe block-initial zeros.
	// The interpreter conservatively zeroes the whole real register file.
	clearBases []int32
}

// The threaded backend's register file, per warp: the real slots' lane
// images (nslots*warpSize words), the extended slots' (constants, parameters,
// specials), then the scalar file — one word per real slot, where a
// lane-invariant value lives (Kernel.home) — and at least warpSize words of
// slack, so that a micro-op's 32-word operand window starting at a word is in
// range.

// scalarBase is the offset of the scalar file: slot s's word is at
// scalarBase + s.
func (k *Kernel) scalarBase() int32 { return int32(k.totalSlots * warpSize) }

// extConstFill materializes one distinct constant into an extended slot.
type extConstFill struct {
	base int32
	val  uint64
}

// extIdxFill materializes one parameter (idx = parameter index) or special
// register (idx = ir.Special code) into an extended slot.
type extIdxFill struct {
	base int32
	idx  int32
}

type argKind uint8

const (
	argConst argKind = iota
	argReg
	argParam
	argSpecial
)

// carg is a resolved operand.
type carg struct {
	kind argKind
	typ  ir.Type
	cval uint64 // argConst
	slot int32  // argReg: register slot
	idx  int32  // argParam: parameter index; argSpecial: special code
	// ebase is the operand's offset into the extended register file: real
	// registers at slot*warpSize, constants, parameters and special
	// registers materialized into slots past nslots at launch/block setup
	// (see finalizeKernel, Launch). With every operand a register, neither
	// backend needs an operand-kind dispatch.
	ebase int32
}

// costClass indexes the per-arch issue-cost table resolved once per launch
// (see resolveCosts). Assigning the class at compile time keeps compiled
// kernels architecture-independent — they are shared across archs by the
// program cache — while removing per-instruction cost dispatch from the
// execution loop.
type costClass uint8

const (
	costALU costClass = iota
	costDiv
	costFP
	costConv
	costShfl
	costBallot
	costActiveMask
	costBranch
	numCostClasses
)

func classifyCost(op ir.Opcode) costClass {
	switch {
	case op == ir.OpSDiv || op == ir.OpSRem:
		return costDiv
	case op.IsIntArith() || op == ir.OpNop:
		return costALU
	case op.IsFloatArith():
		return costFP
	case op == ir.OpShfl:
		return costShfl
	case op == ir.OpBallot:
		return costBallot
	case op == ir.OpActiveMask:
		return costActiveMask
	case op.IsTerminator():
		return costBranch
	default:
		// Comparisons, selects and conversions; memory operations compute
		// their cost dynamically and never read the table.
		return costConv
	}
}

// costClassNames are the diagnostic labels of the issue-cost classes.
var costClassNames = [numCostClasses]string{
	costALU: "alu", costDiv: "div", costFP: "fp", costConv: "conv",
	costShfl: "shfl", costBallot: "ballot", costActiveMask: "activemask",
	costBranch: "branch",
}

// CostClassName names the issue-cost class the opcode resolves to ("alu",
// "div", "fp", "conv", "shfl", "ballot", "activemask", "branch"). Memory
// operations compute cost dynamically and never read the class table;
// callers should label them by space instead (internal/diag does).
func CostClassName(op ir.Opcode) string { return costClassNames[classifyCost(op)] }

// resolveCosts builds the issue-cost table for an architecture.
func resolveCosts(a *Arch) [numCostClasses]float64 {
	return [numCostClasses]float64{
		costALU: a.IssueALU, costDiv: a.IssueDiv, costFP: a.IssueFP,
		costConv: a.IssueConv, costShfl: a.ShflCost, costBallot: a.BallotCost,
		costActiveMask: a.ActiveMaskCost, costBranch: a.BranchCost,
	}
}

// cinstr is a decoded instruction.
type cinstr struct {
	op    ir.Opcode
	pred  ir.Pred
	space ir.MemSpace
	typ   ir.Type
	cost  costClass
	dst   int32 // register slot, -1 if void
	args  []carg
	succs [2]int32 // block indices for terminators
	uid   int32    // original UID for profiling/fault attribution
	loc   int32
	// deadCopy marks an identity copy (sext/trunc to i64) every threaded
	// consumer was redirected past: the threaded backend only charges its
	// budget and cycles. The interpreter still executes it normally.
	deadCopy bool
}

// phiCopy is one lowered phi move applied when an edge is traversed.
type phiCopy struct {
	dst int32
	src carg
	typ ir.Type
}

// phiEdge is the lowered parallel copy applied when one CFG edge is
// traversed.
type phiEdge struct {
	copies []phiCopy
	// apply is the threaded-code form of the parallel copy (nil when the
	// edge carries none); see lowerPhiEdges.
	apply func(c *blockCtx, w *warp, mask uint32)
	// prog is the plan apply executes. Kept on the edge so VerifyKernel can
	// cross-check it against the copies it claims to realize.
	prog *edgeProg
}

// regRun is one contiguous lane transfer of the merged phi-copy plan:
// n lanes from extended offset s to extended offset d.
type regRun struct{ s, d, n int32 }

type cblock struct {
	name string
	ins  []cinstr
	// phiFrom is indexed by predecessor block index and holds the parallel
	// copy that realizes this block's phis when entered from that
	// predecessor. A dense slice (not a map): edge transfers are on the
	// execution hot path.
	phiFrom []phiEdge
	// ipdom is the reconvergence block index for branches out of this
	// block; -1 means the virtual exit.
	ipdom int32
	// uops is the threaded-code form of ins, executed by runWarpU: dense
	// micro-ops dispatched through one jump table; at a uEscape, a shape
	// that has none, the driver runs ins[pc] through execInstr.
	uops []uop
}

// Compile lowers a verified function to executable form. It returns an error
// for structural problems verification does not cover.
func Compile(f *ir.Function) (*Kernel, error) {
	k, err := lowerFunction(f, ir.NewCFG(f))
	if err != nil {
		return nil, err
	}
	finalizeKernel(k)
	return k, nil
}

// value is the compiler's per-UID record. UIDs are dense below NextUID, so
// the table is a slice.
type value struct {
	def  *ir.Instr // the instruction carrying the UID; nil = none
	slot int32     // register slot, meaningful when def produces a value
	live bool      // see liveValues
}

// lowerFunction decodes f into a kernel: register slots assigned, dead code
// dropped, operands resolved, phis lowered to edge copies, reconvergence
// points taken from the function's CFG. finalizeKernel completes it.
func lowerFunction(f *ir.Function, g *ir.CFG) (*Kernel, error) {
	k := &Kernel{Name: f.Name, Params: f.Params, SharedBytes: f.SharedBytes, nextUID: f.NextUID}
	vals, n, err := liveValues(f)
	if err != nil {
		return nil, err
	}
	k.nslots = n.slots

	resolve := func(o ir.Operand) (carg, error) {
		switch o.Kind {
		case ir.OperConst:
			return carg{kind: argConst, typ: o.Typ, cval: normValue(o.Typ, o.Const)}, nil
		case ir.OperInstr:
			if o.Ref < 0 || o.Ref >= len(vals) || vals[o.Ref].def == nil || vals[o.Ref].def.Typ == ir.Void {
				return carg{}, fmt.Errorf("gpu: compile %s: use of undefined value %%%d", f.Name, o.Ref)
			}
			return carg{kind: argReg, typ: o.Typ, slot: vals[o.Ref].slot}, nil
		case ir.OperParam:
			if o.Index < 0 || o.Index >= len(f.Params) {
				return carg{}, fmt.Errorf("gpu: compile %s: parameter %d out of range", f.Name, o.Index)
			}
			return carg{kind: argParam, typ: o.Typ, idx: int32(o.Index)}, nil
		case ir.OperSpecial:
			return carg{kind: argSpecial, typ: o.Typ, idx: int32(o.Index)}, nil
		default:
			return carg{}, fmt.Errorf("gpu: compile %s: unknown operand kind %d", f.Name, o.Kind)
		}
	}

	// One arena each for the kernel's instructions, their operands and the
	// block-by-block edge table, sized by the liveness pass.
	nb := len(f.Blocks)
	k.blocks = make([]cblock, nb)
	ins := make([]cinstr, 0, n.ins)
	args := make([]carg, 0, n.args)
	edges := make([]phiEdge, nb*nb)
	for bi, b := range f.Blocks {
		cb := &k.blocks[bi]
		cb.name = b.Name
		cb.phiFrom = edges[bi*nb : (bi+1)*nb : (bi+1)*nb]
		cb.ipdom = g.IPdom(int32(bi))
		first := len(ins)
		for _, in := range b.Instrs {
			if !vals[in.UID].live {
				// Dead code elimination: the backend codegen step of the
				// paper's pipeline (Fig 1, LLVM-IR -> PTX) removes pure
				// computations whose results are unused. This is what makes
				// a single branch-deletion edit also eliminate the dead
				// boundary-comparison logic it guarded (Section VI-D).
				continue
			}
			if in.Op == ir.OpPhi {
				dst := vals[in.UID].slot
				for _, inc := range in.Inc {
					pi, ok := g.BlockIndex(inc.Block)
					if !ok {
						continue // stale incoming after mutation; harmless
					}
					src, err := resolve(inc.Val)
					if err != nil {
						return nil, err
					}
					cb.phiFrom[pi].copies = append(cb.phiFrom[pi].copies, phiCopy{dst: dst, src: src, typ: in.Typ})
				}
				continue
			}
			ci := cinstr{
				op: in.Op, pred: in.Pred, space: in.Space, typ: in.Typ,
				cost: classifyCost(in.Op),
				dst:  -1, uid: int32(in.UID), loc: int32(in.Loc),
			}
			if in.Typ != ir.Void {
				ci.dst = vals[in.UID].slot
			}
			a0 := len(args)
			for _, a := range in.Args {
				ra, err := resolve(a)
				if err != nil {
					return nil, err
				}
				args = append(args, ra)
			}
			ci.args = args[a0:len(args):len(args)]
			ci.succs = [2]int32{-1, -1}
			for si, s := range in.Succs {
				ti, ok := g.BlockIndex(s)
				if !ok {
					return nil, fmt.Errorf("gpu: compile %s: branch to unknown block %q", f.Name, s)
				}
				if si < 2 {
					ci.succs[si] = ti
				}
			}
			ins = append(ins, ci)
		}
		cb.ins = ins[first:len(ins):len(ins)]
		if len(cb.ins) == 0 || !cb.ins[len(cb.ins)-1].op.IsTerminator() {
			return nil, fmt.Errorf("gpu: compile %s: block %q lacks a terminator", f.Name, b.Name)
		}
	}
	return k, nil
}

// finalizeKernel runs the post-passes of the pre-decoded representation:
// the extended register file, the threaded backend's copy propagation and
// its lowering to micro-ops.
func finalizeKernel(k *Kernel) {
	// Distinct constants in first-use order. A kernel has a few dozen at
	// most, so a scan of the list beats hashing; each constant operand parks
	// its list index in ebase until the extended slots are assigned below.
	var consts []uint64
	walkArgs(k, func(a *carg) {
		if a.kind != argConst {
			return
		}
		for i, v := range consts {
			if v == a.cval {
				a.ebase = int32(i)
				return
			}
		}
		a.ebase = int32(len(consts))
		consts = append(consts, a.cval)
	})

	// Extended register file: give every distinct constant, parameter and
	// special register its own slot past the real registers, so operands
	// are uniformly register offsets. The fill tables double as the
	// "already has a slot" index: parameters and specials number a handful.
	k.totalSlots = k.nslots
	alloc := func() int32 {
		base := int32(k.totalSlots * warpSize)
		k.totalSlots++
		return base
	}
	slotOf := func(fills *[]extIdxFill, idx int32) int32 {
		for _, f := range *fills {
			if f.idx == idx {
				return f.base
			}
		}
		*fills = append(*fills, extIdxFill{base: alloc(), idx: idx})
		return (*fills)[len(*fills)-1].base
	}
	k.extConst = make([]extConstFill, 0, len(consts))
	walkArgs(k, func(a *carg) {
		switch a.kind {
		case argReg:
			a.ebase = a.slot * warpSize
		case argConst:
			i := int(a.ebase)
			if i == len(k.extConst) { // first use: this walk meets constants in the order that numbered them
				k.extConst = append(k.extConst, extConstFill{base: alloc(), val: consts[i]})
			}
			a.ebase = k.extConst[i].base
		case argParam:
			a.ebase = slotOf(&k.extParam, a.idx)
		default: // argSpecial
			a.ebase = slotOf(&k.extSpec, a.idx)
		}
	})
	for _, f := range k.extSpec {
		if ir.Special(f.idx) == ir.SpecialBID {
			k.extBID = append(k.extBID, f.base)
		}
	}
	k.regSlots = k.totalSlots + k.nslots/warpSize + 2

	// Copy propagation for the threaded backend: sext/trunc to i64 is the
	// identity on canonical sign-extended registers, so every consumer can
	// read the source slot directly. Only operand ebase offsets are
	// rewritten — the interpreter's kind/slot fields stay untouched — and
	// shfl value operands are exempt (they read lanes outside the producing
	// mask, where source and copy may legitimately differ). A copy whose
	// ebase has no remaining reader is lowered to a charge-only uop: budget
	// and cycle accounting are preserved, the dead lane copy is not.
	//
	// The three per-slot tables below are indexed by ebase/warpSize.
	ident := make([]int32, k.totalSlots) // copy's slot -> source ebase; -1 = not an identity copy
	for i := range ident {
		ident[i] = -1
	}
	marks := make([]bool, 2*k.totalSlots)
	read, cleared := marks[:k.totalSlots], marks[k.totalSlots:]
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			in := &cb.ins[ii]
			if (in.op == ir.OpSext || in.op == ir.OpTrunc) && in.typ == ir.I64 && in.dst >= 0 {
				ident[in.dst] = in.args[0].ebase
			}
		}
	}
	redirect := func(a *carg, exempt bool) {
		if a.kind != argReg {
			return
		}
		if !exempt {
			for src := ident[a.ebase/warpSize]; src >= 0; src = ident[a.ebase/warpSize] {
				a.ebase = src
			}
		}
		read[a.ebase/warpSize] = true
	}
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			in := &cb.ins[ii]
			for ai := range in.args {
				redirect(&in.args[ai], in.op == ir.OpShfl && ai == 0)
			}
		}
		for ei := range cb.phiFrom {
			copies := cb.phiFrom[ei].copies
			for ci := range copies {
				redirect(&copies[ci].src, false)
			}
		}
	}
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			in := &cb.ins[ii]
			if in.dst >= 0 && ident[in.dst] >= 0 && !read[in.dst] {
				in.deadCopy = true
			}
			// Shfl value operands read lanes outside the active mask, so
			// their slots must observe block-initial zeros (see clearBases).
			if in.op == ir.OpShfl && in.args[0].kind == argReg && !cleared[in.args[0].ebase/warpSize] {
				cleared[in.args[0].ebase/warpSize] = true
				k.clearBases = append(k.clearBases, in.args[0].ebase)
			}
		}
	}

	// Threaded-code lowering must follow the extended-slot assignment:
	// micro-ops and phi-edge plans carry the offsets directly.
	lowerKernel(k)
	k.oblivious = kernelTimingOblivious(k)
}

// walkArgs visits every resolved operand of the kernel, including phi-copy
// sources.
func walkArgs(k *Kernel, visit func(*carg)) {
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			args := cb.ins[ii].args
			for ai := range args {
				visit(&args[ai])
			}
		}
		for ei := range cb.phiFrom {
			copies := cb.phiFrom[ei].copies
			for ci := range copies {
				visit(&copies[ci].src)
			}
		}
	}
}

// sizes are the counts a kernel's tables are sized by: register slots (one per
// value-producing instruction, live or not) and the live non-phi instructions
// with their operands.
type sizes struct{ slots, ins, args int }

// liveValues builds the per-UID table of f: every instruction under its UID,
// register slots assigned in block order, and the live mark on each
// instruction the compiled kernel must execute — side-effecting operations
// (stores, atomics, barriers, terminators), all memory reads (kept
// conservatively: the mutation pipeline treats memory as volatile), and the
// transitive operands of those. Pure computations outside this set are dead
// and are skipped during compilation, mirroring backend DCE in the paper's
// LLVM-IR -> PTX step.
func liveValues(f *ir.Function) (vals []value, n sizes, err error) {
	vals = make([]value, max(f.NextUID, 0))
	work := make([]int32, 0, f.NumInstrs()) // each instruction enters at most once
	mark := func(in *ir.Instr) {
		vals[in.UID].live = true
		work = append(work, int32(in.UID))
		if in.Op != ir.OpPhi {
			n.ins++
			n.args += len(in.Args)
		}
	}
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.UID < 0 || in.UID >= len(vals) {
				return nil, n, fmt.Errorf("gpu: compile %s: UID %d outside [0, NextUID %d)", f.Name, in.UID, f.NextUID)
			}
			vals[in.UID].def = in
			if in.Typ != ir.Void {
				vals[in.UID].slot = int32(n.slots)
				n.slots++
			}
			// Warp-level primitives carry synchronization semantics
			// (Section VI-B), so backends never eliminate them even when
			// their results are unused.
			warpPrim := in.Op == ir.OpBallot || in.Op == ir.OpActiveMask || in.Op == ir.OpShfl
			if in.Op.HasSideEffects() || in.Op.IsMemRead() || warpPrim {
				mark(in)
			}
		}
	}
	use := func(o ir.Operand) {
		if o.Kind != ir.OperInstr || o.Ref < 0 || o.Ref >= len(vals) {
			return
		}
		if v := &vals[o.Ref]; v.def != nil && !v.live {
			mark(v.def)
		}
	}
	for len(work) > 0 {
		in := vals[work[len(work)-1]].def
		work = work[:len(work)-1]
		for _, a := range in.Args {
			use(a)
		}
		for _, inc := range in.Inc {
			use(inc.Val)
		}
	}
	return vals, n, nil
}

// normValue normalizes raw bits to the canonical register representation of
// a type: integers sign-extended to 64 bits, i1 reduced to one bit.
func normValue(t ir.Type, v uint64) uint64 {
	switch t {
	case ir.I1:
		return v & 1
	case ir.I8:
		return uint64(int64(int8(uint8(v))))
	case ir.I32:
		return uint64(int64(int32(uint32(v))))
	default:
		return v
	}
}
