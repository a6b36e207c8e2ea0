package gpu

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"

	"gevo/internal/ir"
)

// buildOpSoup exercises every hot uop shape in one kernel: integer and
// float arithmetic in several widths, comparisons, selects, conversions,
// divergence, a loop with phis, shared memory with a barrier, shfl, ballot
// and atomics.
func buildOpSoup() *ir.Function {
	b := ir.NewBuilder("opsoup")
	in := b.Param("in", ir.I64)
	out := b.Param("out", ir.I64)
	n := b.Param("n", ir.I32)
	sh := b.SharedArray("scratch", 128, 4)

	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	bid := b.Special(ir.SpecialBID)
	gid := b.Add(b.Mul(bid, b.Special(ir.SpecialBDim)), tid)
	inb := b.ICmp(ir.PredLT, gid, n)
	b.CondBr(inb, "body", "exit")

	b.Block("body")
	v := b.Load(ir.I32, ir.SpaceGlobal, b.GlobalIdx(in, gid, 4))
	// Integer soup.
	a1 := b.Add(v, b.I32(3))
	a2 := b.Sub(a1, tid)
	a3 := b.Mul(a2, b.I32(5))
	a4 := b.And(a3, b.I32(0xFFFF))
	a5 := b.Xor(a4, b.I32(0x55))
	a6 := b.SMax(a5, b.I32(1))
	a7 := b.SMin(a6, b.I32(1<<14))
	a8 := b.SDiv(a7, b.I32(3))
	a9 := b.SRem(a8, b.I32(17))
	// Float soup.
	f1 := b.SIToFP(a9)
	f2 := b.FMul(f1, b.F64(1.5))
	f3 := b.FAdd(f2, b.F64(0.25))
	f4 := b.FSub(f3, b.F64(0.125))
	fc := b.FCmp(ir.PredGT, f4, b.F64(2.0))
	i1 := b.FPToSI(ir.I32, f4)
	sel := b.Select(fc, i1, a9)
	// Shared round-trip with a barrier.
	b.Store(ir.SpaceShared, sel, b.SharedAddr(sh, tid, 4))
	b.Barrier()
	neighbor := b.Xor(tid, b.I32(1))
	nval := b.Load(ir.I32, ir.SpaceShared, b.SharedAddr(sh, neighbor, 4))
	// Warp primitives.
	shf := b.Shfl(nval, b.Xor(b.Special(ir.SpecialLane), b.I32(3)))
	blt := b.Ballot(b.ICmp(ir.PredNE, shf, b.I32(0)))
	am := b.ActiveMask()
	// A shfl value operand is the one reader finalizeKernel does not redirect
	// past a sext to i64, so this copy stays a real micro-op (uSextTo64).
	wide := b.Shfl(b.Sext(ir.I64, nval), b.Special(ir.SpecialLane))
	mix := b.Add(b.Add(b.Add(shf, blt), am), b.Trunc(ir.I32, wide))
	// Divergence on a data-dependent condition.
	odd := b.ICmp(ir.PredEQ, b.And(mix, b.I32(1)), b.I32(1))
	b.CondBr(odd, "slow", "merge")

	b.Block("slow")
	s2 := b.Mul(mix, b.I32(3))
	b.Br("merge")

	b.Block("merge")
	ph := b.Phi(ir.I32, ir.Incoming{Block: "body", Val: mix}, ir.Incoming{Block: "slow", Val: s2})
	// Loop accumulating with phis.
	b.Br("loop")

	b.Block("loop")
	iPhi := b.Phi(ir.I32, ir.Incoming{Block: "merge", Val: b.I32(0)})
	accPhi := b.Phi(ir.I32, ir.Incoming{Block: "merge", Val: ph.Result()})
	i2 := b.Add(iPhi.Result(), b.I32(1))
	acc2 := b.Add(accPhi.Result(), i2)
	b.AddIncoming(iPhi, "loop", i2)
	b.AddIncoming(accPhi, "loop", acc2)
	more := b.ICmp(ir.PredLT, i2, b.I32(5))
	b.CondBr(more, "loop", "done")

	b.Block("done")
	b.AtomicAdd(ir.SpaceGlobal, b.GlobalIdx(out, b.SRem(gid, b.I32(4)), 4), acc2)
	b.Store(ir.SpaceGlobal, acc2, b.GlobalIdx(out, b.Add(gid, b.I32(8)), 4))
	b.Br("exit")

	b.Block("exit")
	b.Ret()
	return b.Finish()
}

// buildColdSoup is buildOpSoup's complement: every instruction shape that has
// no micro-op (the escape set listed at the top of dispatch.go), under full,
// ragged and parity-diverged masks. No loaded value reaches a branch or an
// address, so the kernel is timing-oblivious and a relaunch replays from the
// uniform-launch memo: the escapes run through execInstr during a replay too.
func buildColdSoup() *ir.Function {
	b := ir.NewBuilder("coldsoup")
	in := b.Param("in", ir.I64)
	out := b.Param("out", ir.I64)
	n := b.Param("n", ir.I32)
	flags := b.SharedArray("flags", 128, 1)
	bytes8 := b.SharedArray("bytes", 4, 1)
	cells := b.SharedArray("cells", 16, 8)

	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	gid := b.Add(b.Mul(b.Special(ir.SpecialBID), b.Special(ir.SpecialBDim)), tid)
	b.CondBr(b.ICmp(ir.PredLT, gid, n), "body", "exit")

	b.Block("body")
	v := b.Load(ir.I32, ir.SpaceGlobal, b.GlobalIdx(in, gid, 4))
	acc := v
	mix := func(x ir.Operand) { acc = b.Add(b.Mul(acc, b.I32(31)), x) }
	// An escape reading through an identity copy: the sext to i64 has no other
	// reader, so finalizeKernel redirects the operand's ebase to v's slot and
	// lowers the copy to a charge-only uop that never writes its own.
	f := b.SIToFP(b.Sext(ir.I64, v))
	mix(b.FPToSI(ir.I32, b.FMul(f, b.F64(0.5))))
	mix(b.Trunc(ir.I32, b.FPToSI(ir.I64, b.FMul(f, b.F64(1e17))))) // past 2^63 for the larger inputs
	mix(b.Zext(ir.I32, b.FPToSI(ir.I1, f)))
	q8 := b.FPToSI(ir.I8, f)
	// i8 arithmetic, all thirteen operations (tid 0 divides by zero).
	x := b.Trunc(ir.I8, v)
	y := b.Trunc(ir.I8, tid)
	e8 := b.Sub(b.Add(x, y), b.I8(3))
	e8 = b.SDiv(b.Mul(e8, y), y)
	e8 = b.Or(b.And(e8, b.I8(0x5a)), b.SRem(x, b.I8(7)))
	e8 = b.Shl(b.Xor(e8, x), b.I8(1))
	e8 = b.SMax(b.SMin(b.LShr(e8, b.I8(2)), b.AShr(e8, b.I8(1))), q8)
	// A uop (sext i8 -> i32) between two escapes.
	e8 = b.Add(b.Trunc(ir.I8, b.Add(b.Sext(ir.I32, e8), b.I32(100))), x)
	mix(b.FPToSI(ir.I32, b.SIToFP(e8)))
	// Conversions to and from i8 and i1.
	z32 := b.Zext(ir.I32, e8)
	z64 := b.Zext(ir.I64, e8)
	p := b.Trunc(ir.I1, v)
	mix(z32)
	mix(b.Trunc(ir.I32, z64))
	mix(b.Zext(ir.I32, p))
	mix(b.Zext(ir.I32, b.Zext(ir.I8, p)))
	mix(b.Sext(ir.I32, b.Sext(ir.I8, p)))
	mix(b.Zext(ir.I32, b.Trunc(ir.I1, e8)))
	mix(b.Sext(ir.I32, b.Trunc(ir.I8, z64)))
	mix(b.Zext(ir.I32, acc)) // same-width zext: legal, and not the i32 -> i64 uop
	// i1 through shared and global memory.
	b.Store(ir.SpaceShared, p, b.SharedAddr(flags, tid, 1))
	b.Barrier()
	pn := b.Load(ir.I1, ir.SpaceShared, b.SharedAddr(flags, b.Xor(tid, b.I32(1)), 1))
	gflag := b.GlobalIdx(out, b.Add(gid, b.I32(512)), 1)
	b.Store(ir.SpaceGlobal, pn, gflag)
	mix(b.Zext(ir.I32, b.Load(ir.I1, ir.SpaceGlobal, gflag)))
	// All four atomics in both address spaces, contended four ways.
	cell := b.And(tid, b.I32(3))
	gcell := func(k int64) ir.Operand { return b.GlobalIdx(out, b.Add(cell, b.I32(4*k)), 4) }
	scell := func(k int64) ir.Operand { return b.SharedAddr(cells, b.Add(cell, b.I32(4*k)), 8) }
	mix(b.AtomicAdd(ir.SpaceGlobal, gcell(0), z32))
	mix(b.AtomicMax(ir.SpaceGlobal, gcell(1), acc))
	mix(b.AtomicCAS(ir.SpaceGlobal, gcell(2), b.I32(0), z32))
	mix(b.AtomicExch(ir.SpaceGlobal, gcell(3), acc))
	mix(b.Trunc(ir.I32, b.AtomicAdd(ir.SpaceShared, scell(0), z64)))
	mix(b.Trunc(ir.I32, b.AtomicMax(ir.SpaceShared, scell(1), z64)))
	mix(b.Trunc(ir.I32, b.AtomicCAS(ir.SpaceShared, scell(2), b.I64(0), z64)))
	mix(b.Sext(ir.I32, b.AtomicExch(ir.SpaceShared, b.SharedAddr(bytes8, cell, 1), e8)))
	body := acc
	b.CondBr(b.ICmp(ir.PredNE, b.And(tid, b.I32(1)), b.I32(0)), "oddside", "join")

	b.Block("oddside")
	o8 := b.Mul(e8, b.I8(3))
	mix(b.Zext(ir.I32, o8))
	mix(b.FPToSI(ir.I32, b.SIToFP(o8)))
	mix(b.Trunc(ir.I32, b.AtomicAdd(ir.SpaceShared, scell(3), z64)))
	b.Store(ir.SpaceShared, b.Trunc(ir.I1, o8), b.SharedAddr(flags, tid, 1))
	mix(b.Zext(ir.I32, b.Load(ir.I1, ir.SpaceShared, b.SharedAddr(flags, tid, 1))))
	b.Br("join")

	b.Block("join")
	ph := b.Phi(ir.I32, ir.Incoming{Block: "body", Val: body}, ir.Incoming{Block: "oddside", Val: acc})
	b.Store(ir.SpaceGlobal, ph.Result(), b.GlobalIdx(out, b.Add(gid, b.I32(16)), 4))
	b.Br("exit")

	b.Block("exit")
	b.Ret()
	f2 := b.Finish()
	// The builder has no nop; one appended by hand shows both backends agree
	// on it too (liveValues drops it before either sees it).
	body0 := f2.BlockByName("body")
	body0.Instrs = append([]*ir.Instr{{UID: f2.NewUID(), Op: ir.OpNop}}, body0.Instrs...)
	return f2
}

// buildCmpSoup runs icmp and fcmp with all six predicates and both operand
// orders, each once as an i1 value and once fused into the branch of a
// data-divergent diamond, so the mirror rule (GT/GE lowered to LT/LE on
// swapped operands, uopFor) meets the interpreter on every code it re-routes.
// Operands come from the thread id: every pair of {-1, 0, 1, 2} for the
// integers (equal ones included) and every pair of {NaN, +Inf, -Inf, +0, -0,
// 1.5, -1.5, tid} for the floats. Nothing is loaded, so the kernel is
// timing-oblivious and its relaunch is a memo replay.
func buildCmpSoup() *ir.Function {
	b := ir.NewBuilder("cmpsoup")
	b.Param("in", ir.I64)
	out := b.Param("out", ir.I64)
	n := b.Param("n", ir.I32)

	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	gid := b.Add(b.Mul(b.Special(ir.SpecialBID), b.Special(ir.SpecialBDim)), tid)
	b.CondBr(b.ICmp(ir.PredLT, gid, n), "body", "exit")

	b.Block("body")
	cur := "body"
	class := func(k ir.Operand) ir.Operand {
		v := b.SIToFP(tid)
		for i, c := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 1.5, -1.5} {
			v = b.Select(b.ICmp(ir.PredEQ, k, b.I32(int64(i))), b.F64(c), v)
		}
		return v
	}
	xi := b.Sub(b.And(tid, b.I32(3)), b.I32(1))
	yi := b.Sub(b.And(b.AShr(tid, b.I32(2)), b.I32(3)), b.I32(1))
	xf := class(b.And(tid, b.I32(7)))
	yf := class(b.And(b.AShr(tid, b.I32(3)), b.I32(7)))
	acc := gid
	step := int64(0)
	for p := ir.PredEQ; p <= ir.PredGE; p++ {
		for _, cmp := range []func() ir.Operand{
			func() ir.Operand { return b.ICmp(p, xi, yi) },
			func() ir.Operand { return b.ICmp(p, yi, xi) },
			func() ir.Operand { return b.ICmp(p, b.Sext(ir.I64, xi), b.I64(0)) },
			func() ir.Operand { return b.FCmp(p, xf, yf) },
			func() ir.Operand { return b.FCmp(p, yf, xf) },
		} {
			// As a value: the i1 lanes are materialized and read by a select.
			step++
			acc = b.Add(b.Mul(acc, b.I32(3)), b.Select(cmp(), b.I32(step), b.I32(-step)))
			// Fused: the compare's only reader is the branch that ends its block.
			taken, join := fmt.Sprintf("taken%d", step), fmt.Sprintf("join%d", step)
			b.CondBr(cmp(), taken, join)
			b.Block(taken)
			bumped := b.Xor(acc, b.I32(step<<8))
			b.Br(join)
			b.Block(join)
			acc = b.Phi(ir.I32, ir.Incoming{Block: cur, Val: acc}, ir.Incoming{Block: taken, Val: bumped}).Result()
			cur = join
		}
	}
	b.Store(ir.SpaceGlobal, acc, b.GlobalIdx(out, gid, 4))
	b.Br("exit")

	b.Block("exit")
	b.Ret()
	return b.Finish()
}

// runBackend launches the kernel twice on a fresh device under one backend
// (the relaunch replays a timing-oblivious kernel from the uniform-launch
// memo when the backend is threaded) and returns both results plus the final
// arena image.
func runBackend(t *testing.T, f *ir.Function, backend Backend, grid, block int, input []int32) ([2]*Result, []byte) {
	t.Helper()
	k := mustCompile(t, f)
	d := NewDeviceWithMem(P100, 1<<14)
	d.Stats = &EvalStats{}
	in, err := d.Alloc(4 * len(input))
	if err != nil {
		t.Fatal(err)
	}
	if err := d.WriteI32s(in, input); err != nil {
		t.Fatal(err)
	}
	out, err := d.Alloc(4 * 256)
	if err != nil {
		t.Fatal(err)
	}
	var res [2]*Result
	for i := range res {
		res[i], err = d.Launch(k, LaunchConfig{
			Grid: grid, Block: block,
			Args:    []uint64{uint64(in), uint64(out), uint64(int64(len(input)))},
			Backend: backend,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if want := backend == BackendThreaded && k.TimingOblivious(); (d.Stats.MemoHits == 1) != want {
		t.Fatalf("%s: %d memo replays, timing-oblivious %v", f.Name, d.Stats.MemoHits, k.TimingOblivious())
	}
	mem := append([]byte(nil), d.mem...)
	return res, mem
}

// TestBackendDifferentialSynthetic compares the interpreter and the
// threaded backend per launch: cycles, dynamic instruction counts and the
// entire final memory image must match bit for bit, including partial
// final warps, divergent control flow and a memo-replayed relaunch — for
// the kernel of uop shapes, the kernel of escapes and the kernel of compares.
func TestBackendDifferentialSynthetic(t *testing.T) {
	defer CheckLaneInvariance(CheckLaneInvariance(true))
	input := make([]int32, 100)
	for i := range input {
		input[i] = int32(i*7 - 50)
	}
	cold := buildColdSoup()
	if !mustCompile(t, cold).TimingOblivious() {
		t.Fatal("coldsoup must be timing-oblivious, or its relaunch never runs the replay arms")
	}
	for _, f := range []*ir.Function{buildOpSoup(), cold, buildCmpSoup()} {
		for _, geom := range []struct{ grid, block int }{
			{2, 64},  // full warps
			{3, 48},  // partial final warp per block
			{1, 100}, // ragged block, partial warp
		} {
			ri, memI := runBackend(t, f, BackendInterp, geom.grid, geom.block, input)
			rt, memT := runBackend(t, f, BackendThreaded, geom.grid, geom.block, input)
			for i := range ri {
				if ri[i].Cycles != rt[i].Cycles {
					t.Errorf("%s %dx%d launch %d: cycles interp %v != threaded %v", f.Name, geom.grid, geom.block, i, ri[i].Cycles, rt[i].Cycles)
				}
				if ri[i].DynInstrs != rt[i].DynInstrs {
					t.Errorf("%s %dx%d launch %d: dyninstrs interp %v != threaded %v", f.Name, geom.grid, geom.block, i, ri[i].DynInstrs, rt[i].DynInstrs)
				}
			}
			if !bytes.Equal(memI, memT) {
				t.Errorf("%s %dx%d: memory images differ", f.Name, geom.grid, geom.block)
			}
		}
	}
}

// inEscapeSet is the list at the top of dispatch.go as a predicate over a
// decoded instruction.
func inEscapeSet(in *cinstr) bool {
	switch {
	case isAtomicOp(in.op), in.op == ir.OpSIToFP, in.op == ir.OpFPToSI, in.op == ir.OpNop:
		return true
	case in.op == ir.OpLoad:
		return in.typ == ir.I1
	case in.op == ir.OpStore:
		return in.args[0].typ == ir.I1
	case in.op.IsIntArith():
		return in.typ == ir.I8
	case in.op == ir.OpZext:
		return in.args[0].typ != ir.I32 || in.typ != ir.I64
	case in.op == ir.OpSext, in.op == ir.OpTrunc:
		return in.typ == ir.I8 || in.typ == ir.I1
	}
	return false
}

// TestEscapeSetIsClosed pins the escape set to its documentation: for every
// opcode, every result type and every tuple of up to three operand types (both
// address spaces, all six predicates) that ir.Verify admits, the compiled
// instruction is uEscape exactly when the shape is on the list at the top of
// dispatch.go. A shape promoted to a uop without leaving that list, or a
// new shape quietly left to an escape, fails here. The table is closed the
// other way too: every code below numUops must be emitted by one of those
// shapes or, for the codes only a fusion or a branch produces, by one of the
// three soups — a lane loop nobody lowers to is how the opcode x width x
// predicate table came to carry 27 rows no workload dispatched.
//
// CI runs this test by name and fails if it is skipped.
func TestEscapeSetIsClosed(t *testing.T) {
	lowered := map[ir.Opcode]int{}
	var emitted [numUops]bool
	check := func(k *Kernel) {
		for bi := range k.blocks {
			cb := &k.blocks[bi]
			for ii := range cb.ins {
				in := &cb.ins[ii]
				lowered[in.op]++
				emitted[cb.uops[ii].code] = true
				if got, want := cb.uops[ii].code == uEscape, inEscapeSet(in); got != want {
					var at []ir.Type
					for _, a := range in.args {
						at = append(at, a.typ)
					}
					t.Errorf("%s %s %v (%s): escapes=%v, the list in dispatch.go says %v", in.op, in.typ, at, in.space, got, want)
				}
			}
		}
	}

	types := []ir.Type{ir.I1, ir.I8, ir.I32, ir.I64, ir.F64}
	var tuples [][]ir.Type // every operand-type tuple of length 0..3
	for n, level := 0, [][]ir.Type{nil}; n <= 3; n++ {
		tuples = append(tuples, level...)
		var next [][]ir.Type
		for _, tu := range level {
			for _, ty := range types {
				next = append(next, append(tu[:len(tu):len(tu)], ty))
			}
		}
		level = next
	}
	// shape wraps one instruction in a kernel with a parameter per type, in
	// the order of types, which its operands name, plus the address its result
	// (if any) is stored to, so it is live.
	shape := func(in *ir.Instr, operands []ir.Type) *ir.Function {
		blk := &ir.Block{Name: "entry"}
		f := &ir.Function{Name: "shape", Params: append(slices.Clone(types), ir.I64), Blocks: []*ir.Block{blk}}
		emit := func(in *ir.Instr) {
			in.UID = f.NewUID()
			blk.Instrs = append(blk.Instrs, in)
		}
		for _, ty := range operands {
			in.Args = append(in.Args, ir.Param(slices.Index(types, ty), ty))
		}
		emit(in)
		if in.Typ != ir.Void {
			emit(&ir.Instr{Op: ir.OpStore, Args: []ir.Operand{in.Result(), ir.Param(len(types), ir.I64)}})
		}
		emit(&ir.Instr{Op: ir.OpRet})
		return f
	}
	admitted := 0
	for op := ir.OpNop; op < ir.OpPhi; op++ {
		if op.IsTerminator() {
			continue // every kernel below ends in one; the two soups branch
		}
		spaces := []ir.MemSpace{ir.SpaceGlobal}
		if op.IsMemRead() || op.IsMemWrite() {
			spaces = append(spaces, ir.SpaceShared)
		}
		preds := []ir.Pred{ir.PredEQ}
		if op == ir.OpICmp || op == ir.OpFCmp {
			preds = []ir.Pred{ir.PredEQ, ir.PredNE, ir.PredLT, ir.PredLE, ir.PredGT, ir.PredGE}
		}
		for _, typ := range append([]ir.Type{ir.Void}, types...) {
			for _, tu := range tuples {
				for _, space := range spaces {
					for _, pred := range preds {
						f := shape(&ir.Instr{Op: op, Typ: typ, Pred: pred, Space: space}, tu)
						if f.Verify() != nil {
							continue
						}
						admitted++
						k, err := Compile(f)
						if err != nil {
							t.Fatalf("%s %s %v: verified but does not compile: %v", op, typ, tu, err)
						}
						check(k)
					}
				}
			}
		}
	}
	check(mustCompile(t, buildOpSoup()))
	check(mustCompile(t, buildColdSoup()))
	check(mustCompile(t, buildCmpSoup()))
	for op := ir.OpNop; op < ir.OpPhi; op++ {
		if lowered[op] == 0 {
			t.Errorf("%s: never lowered — the enumeration no longer reaches it", op)
		}
	}
	for code, ok := range emitted {
		if !ok {
			t.Errorf("uop code %d (counting from uEscape = 0 in uop.go) is emitted by no admitted shape and no soup: a case nobody lowers to", code)
		}
	}
	t.Logf("%d shapes admitted by ir.Verify", admitted)
}

// TestUniformLaunchMemo pins the uniform-launch memoization: a
// timing-oblivious kernel relaunched with an identical signature must
// replay the recorded cycle count while still applying functional effects,
// and changing any part of the signature must bypass the memo.
func TestUniformLaunchMemo(t *testing.T) {
	f := buildVecAdd()
	k := mustCompile(t, f)
	if !k.TimingOblivious() {
		t.Fatal("vecadd should be timing-oblivious")
	}

	d := NewDevice(P100)
	const n = 200
	a, _ := d.Alloc(4 * n)
	bb, _ := d.Alloc(4 * n)
	out, _ := d.Alloc(4 * n)
	av := make([]int32, n)
	bv := make([]int32, n)
	for i := range av {
		av[i] = int32(i)
		bv[i] = int32(3 * i)
	}
	if err := d.WriteI32s(a, av); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteI32s(bb, bv); err != nil {
		t.Fatal(err)
	}
	cfg := LaunchConfig{Grid: 7, Block: 32, Args: []uint64{uint64(a), uint64(bb), uint64(out), uint64(int64(n))}}

	r1, err := d.Launch(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Change the inputs: timing must replay identically, outputs must
	// reflect the new data.
	for i := range av {
		av[i] = int32(1000 - i)
	}
	if err := d.WriteI32s(a, av); err != nil {
		t.Fatal(err)
	}
	r2, err := d.Launch(k, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Cycles != r1.Cycles || r2.DynInstrs != r1.DynInstrs {
		t.Fatalf("memo replay: got %v/%v, want %v/%v", r2.Cycles, r2.DynInstrs, r1.Cycles, r1.DynInstrs)
	}
	got, err := d.ReadI32s(out, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if want := av[i] + bv[i]; got[i] != want {
			t.Fatalf("replay output[%d] = %d, want %d (functional effects must not be memoized)", i, got[i], want)
		}
	}

	// The memo must agree with the interpreter exactly.
	cfgInterp := cfg
	cfgInterp.Backend = BackendInterp
	ri, err := d.Launch(k, cfgInterp)
	if err != nil {
		t.Fatal(err)
	}
	if ri.Cycles != r2.Cycles {
		t.Fatalf("interp cycles %v != memo cycles %v", ri.Cycles, r2.Cycles)
	}

	// A different signature (grid size) bypasses the memo and re-times.
	cfg2 := cfg
	cfg2.Grid = 6
	r3, err := d.Launch(k, cfg2)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Cycles == r1.Cycles {
		t.Error("different grid should schedule differently")
	}
}

// TestReleasedDeviceKeepsNoTimings pins the memo's scope to one device
// acquisition: within it a repeated launch replays, Release empties the memo
// so a pooled device pins no kernel and no argument copy, and a recycled
// device times its first launch again, so a memo hit count is a function of
// the evaluation alone.
func TestReleasedDeviceKeepsNoTimings(t *testing.T) {
	k := mustCompile(t, buildVecAdd())
	const n = 200
	launch := func(d *Device) {
		t.Helper()
		a, _ := d.Alloc(4 * n)
		b, _ := d.Alloc(4 * n)
		out, _ := d.Alloc(4 * n)
		cfg := LaunchConfig{Grid: 7, Block: 32, Args: PackArgs(uint64(a), uint64(b), uint64(out), int64(n))}
		if _, err := d.Launch(k, cfg); err != nil {
			t.Fatal(err)
		}
	}

	d := AcquireDevice(P100)
	st := &EvalStats{}
	d.Stats = st
	launch(d)
	if st.MemoHits != 0 {
		t.Fatalf("first launch of an acquisition replayed (%d memo hits)", st.MemoHits)
	}
	d.Reset()
	launch(d)
	if st.MemoHits != 1 || len(d.memo) != 1 {
		t.Fatalf("repeat launch: %d memo hits, %d entries; want 1 and 1", st.MemoHits, len(d.memo))
	}
	backing := d.memo[:cap(d.memo)]
	d.Release()
	if len(d.memo) != 0 {
		t.Fatalf("released device keeps %d memo entries", len(d.memo))
	}
	for i, e := range backing {
		if e.k != nil || e.args != nil || e.grid != 0 || e.block != 0 || e.cycles != 0 {
			t.Fatalf("released memo slot %d not zeroed: %+v", i, e)
		}
	}

	d2 := AcquireDevice(P100)
	defer d2.Release()
	st2 := &EvalStats{}
	d2.Stats = st2
	launch(d2)
	if st2.MemoHits != 0 || st2.Launches != 1 {
		t.Fatalf("first launch after acquire (recycled: %v): %d memo hits in %d launches, want 0 in 1",
			d2 == d, st2.MemoHits, st2.Launches)
	}
}

// TestDataDependentKernelNotOblivious pins the taint analysis: a kernel
// whose branch depends on loaded data must not be classified
// timing-oblivious.
func TestDataDependentKernelNotOblivious(t *testing.T) {
	b := ir.NewBuilder("databranch")
	in := b.Param("in", ir.I64)
	out := b.Param("out", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	v := b.Load(ir.I32, ir.SpaceGlobal, b.GlobalIdx(in, tid, 4))
	pos := b.ICmp(ir.PredGT, v, b.I32(0))
	b.CondBr(pos, "yes", "exit")
	b.Block("yes")
	b.Store(ir.SpaceGlobal, v, b.GlobalIdx(out, tid, 4))
	b.Br("exit")
	b.Block("exit")
	b.Ret()
	k := mustCompile(t, b.Finish())
	if k.TimingOblivious() {
		t.Error("load-dependent branch must disqualify timing obliviousness")
	}

	// Same shape with the branch on tid instead: oblivious.
	b2 := ir.NewBuilder("tidbranch")
	in2 := b2.Param("in", ir.I64)
	out2 := b2.Param("out", ir.I64)
	b2.Block("entry")
	tid2 := b2.Special(ir.SpecialTID)
	v2 := b2.Load(ir.I32, ir.SpaceGlobal, b2.GlobalIdx(in2, tid2, 4))
	pos2 := b2.ICmp(ir.PredGT, tid2, b2.I32(0))
	b2.CondBr(pos2, "yes", "exit")
	b2.Block("yes")
	b2.Store(ir.SpaceGlobal, v2, b2.GlobalIdx(out2, tid2, 4))
	b2.Br("exit")
	b2.Block("exit")
	b2.Ret()
	k2 := mustCompile(t, b2.Finish())
	if !k2.TimingOblivious() {
		t.Error("tid-dependent branch with untainted addresses should be oblivious")
	}
}

// TestVerifyKernelCatchesCorruption is the mutation test of the compiled-
// program verifier: the op-soup kernel passes the audit as compiled, and a
// deliberately broken rewrite of any layer — operand offsets, the uop jump
// table, lane-invariance marks, register homes, control targets, phi-copy
// plans, the shfl zero-init set, def-before-use — is reported, not executed.
// Each case corrupts a fresh kernel the way a buggy compiler pass would.
func TestVerifyKernelCatchesCorruption(t *testing.T) {
	if err := VerifyKernel(mustCompile(t, buildOpSoup())); err != nil {
		t.Fatalf("pristine kernel rejected: %v", err)
	}

	// firstUop locates the first uop satisfying the predicate.
	firstUop := func(k *Kernel, pred func(*uop) bool) *uop {
		for bi := range k.blocks {
			for ii := range k.blocks[bi].uops {
				if u := &k.blocks[bi].uops[ii]; pred(u) {
					return u
				}
			}
		}
		return nil
	}

	cases := []struct {
		name string
		// corrupt tampers the kernel; false means it found no site to
		// corrupt (a test bug, not a verifier pass).
		corrupt func(k *Kernel) bool
		want    string
	}{
		{
			name: "operand offset past the register file",
			corrupt: func(k *Kernel) bool {
				u := firstUop(k, func(u *uop) bool { return u.code == uAdd32 })
				if u == nil {
					return false
				}
				u.s1 = int32(k.totalSlots * warpSize)
				return true
			},
			want: "outside extended register file",
		},
		{
			name: "operand offset off the warp boundary",
			corrupt: func(k *Kernel) bool {
				u := firstUop(k, func(u *uop) bool { return u.code == uAdd32 })
				if u == nil {
					return false
				}
				u.s2++
				return true
			},
			want: "not on a warp boundary",
		},
		{
			name: "branch target out of range",
			corrupt: func(k *Kernel) bool {
				u := firstUop(k, func(u *uop) bool { return u.code == uCondBr || isFusedCmpBr(u.code) })
				if u == nil {
					return false
				}
				u.succ1 = int32(len(k.blocks))
				return true
			},
			want: "out of range",
		},
		{
			name: "sibling flag contradicting reconvergence",
			corrupt: func(k *Kernel) bool {
				u := firstUop(k, func(u *uop) bool { return u.code == uCondBr || isFusedCmpBr(u.code) })
				if u == nil {
					return false
				}
				u.both = !u.both
				return true
			},
			want: "sibling flag",
		},
		{
			name: "lane-invariance mark on a warp primitive",
			corrupt: func(k *Kernel) bool {
				u := firstUop(k, func(u *uop) bool { return u.code == uShfl })
				if u == nil {
					return false
				}
				u.inv = true
				return true
			},
			want: "no lane-invariant path",
		},
		{
			name: "scalar home read by a lane loop",
			corrupt: func(k *Kernel) bool {
				// The op soup has no scalar home: give one to a slot that is
				// not lane-invariant and that an add's lane loop reads.
				u := firstUop(k, func(u *uop) bool {
					return u.code == uAdd32 && !u.inv && u.s1 < int32(k.nslots*warpSize) && k.home[u.s1/warpSize] == homeLanes
				})
				if u == nil {
					return false
				}
				k.home[u.s1/warpSize] = homeScalar
				return true
			},
			want: "whose home is a scalar word",
		},
		{
			name: "terminator rewritten to a straight-line uop",
			corrupt: func(k *Kernel) bool {
				u := firstUop(k, func(u *uop) bool { return u.code == uRet })
				if u == nil {
					return false
				}
				u.code = uAdd32
				return true
			},
			want: "falls off the uop stream",
		},
		{
			name: "opcode past the jump table",
			corrupt: func(k *Kernel) bool {
				u := firstUop(k, func(u *uop) bool { return u.code == uAdd32 })
				if u == nil {
					return false
				}
				u.code = numUops
				return true
			},
			want: "outside the jump table",
		},
		{
			name: "cost class past the table",
			corrupt: func(k *Kernel) bool {
				u := firstUop(k, func(u *uop) bool { return u.code == uAdd32 })
				if u == nil {
					return false
				}
				u.cls = numCostClasses
				return true
			},
			want: "cost class out of range",
		},
		{
			name: "phi memmove run sourced from the wrong slot",
			corrupt: func(k *Kernel) bool {
				for bi := range k.blocks {
					cb := &k.blocks[bi]
					for ei := range cb.phiFrom {
						if p := cb.phiFrom[ei].prog; p != nil && len(p.runs) > 0 {
							p.runs[0].s += warpSize
							return true
						}
					}
				}
				return false
			},
			want: "not among the edge's copies",
		},
		{
			name: "shfl value slot dropped from clearBases",
			corrupt: func(k *Kernel) bool {
				if len(k.clearBases) == 0 {
					return false
				}
				k.clearBases = nil
				return true
			},
			want: "not in clearBases",
		},
		{
			name: "operand redirected to a not-yet-written slot",
			corrupt: func(k *Kernel) bool {
				// Point an early operand at the register a *later*
				// instruction in the same block defines — the shape of a
				// copy-propagation bug.
				for bi := range k.blocks {
					cb := &k.blocks[bi]
					for ii := range cb.ins {
						for ai := range cb.ins[ii].args {
							a := &cb.ins[ii].args[ai]
							if a.kind != argReg {
								continue
							}
							for jj := ii + 1; jj < len(cb.ins); jj++ {
								if d := cb.ins[jj].dst; d >= 0 {
									a.ebase = d * warpSize
									return true
								}
							}
						}
					}
				}
				return false
			},
			want: "read before any dominating write",
		},
		{
			name: "extended fill colliding with another slot",
			corrupt: func(k *Kernel) bool {
				if len(k.extConst) == 0 || len(k.extParam) == 0 {
					return false
				}
				k.extParam[0].base = k.extConst[0].base
				return true
			},
			want: "filled twice",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := mustCompile(t, buildOpSoup())
			if !tc.corrupt(k) {
				t.Fatal("corruption found no site in the op-soup kernel")
			}
			err := VerifyKernel(k)
			if err == nil {
				t.Fatal("verifier accepted the corrupted kernel")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("verifier reported %q, want mention of %q", err, tc.want)
			}
		})
	}
}

// buildBarrierLoop is the ADEPT-V0 bottleneck in miniature, with the barrier
// in the three places the solo-warp release has to get right: as the
// kernel's very first micro-op (the warp's cycle count is still zero), in a
// loop behind a same-word store, and under a diverged stack entry.
func buildBarrierLoop() *ir.Function {
	b := ir.NewBuilder("barrier_loop")
	out := b.Param("out", ir.I64)
	sh := b.SharedArray("sh", 64, 4)
	b.Block("entry")
	b.Barrier()
	tid := b.Special(ir.SpecialTID)
	b.Br("loop")
	b.Block("loop")
	i := b.Phi(ir.I32)
	b.Store(ir.SpaceShared, i.Result(), b.SharedAddr(sh, b.I32(0), 4))
	b.Barrier()
	v := b.Load(ir.I32, ir.SpaceShared, b.SharedAddr(sh, b.I32(0), 4))
	odd := b.ICmp(ir.PredNE, b.And(tid, b.I32(1)), b.I32(0))
	b.CondBr(odd, "oddside", "latch")
	b.Block("oddside")
	b.Barrier()
	b.Store(ir.SpaceShared, b.Add(v, tid), b.SharedAddr(sh, tid, 4))
	b.Br("latch")
	b.Block("latch")
	i1 := b.Add(i.Result(), b.I32(1))
	b.CondBr(b.ICmp(ir.PredLT, i1, b.I32(5)), "loop", "exit")
	b.AddIncoming(i, "entry", b.I32(0))
	b.AddIncoming(i, "latch", i1)
	b.Block("exit")
	b.Store(ir.SpaceGlobal, b.Load(ir.I32, ir.SpaceShared, b.SharedAddr(sh, tid, 4)), b.GlobalIdx(out, tid, 4))
	b.Ret()
	return b.Finish()
}

// barrierRun is what one launch of buildBarrierLoop (or any kernel taking
// one output buffer) leaves behind.
type barrierRun struct {
	res      *Result
	err      error
	budget   int64
	stats    EvalStats
	mem      []byte
	shared   []byte
	releases int
	dev      *Device
}

func runBarrierLoop(t *testing.T, k *Kernel, backend Backend, block int, maxDyn int64) barrierRun {
	t.Helper()
	d := NewDeviceWithMem(P100, 1<<12)
	d.Stats = &EvalStats{}
	out, err := d.Alloc(4 * 64)
	if err != nil {
		t.Fatal(err)
	}
	r := barrierRun{dev: d}
	testBarrierRelease = func() { r.releases++ }
	defer func() { testBarrierRelease = nil }()
	r.res, r.err = d.Launch(k, LaunchConfig{Grid: 2, Block: block, Backend: backend, MaxDynInstr: maxDyn, Args: []uint64{uint64(out)}})
	r.budget = *d.launch.ctx.budget
	r.stats = *d.Stats
	r.mem = append([]byte(nil), d.mem...)
	r.shared = append([]byte(nil), d.launch.shared...)
	return r
}

// TestSoloWarpBarrier pins the in-place barrier release of a one-warp block
// to the scheduler's park-and-release: same cycles bit for bit, same dynamic
// instruction count, same global and shared bytes as the reference
// interpreter (which always parks), for a full and a ragged single warp —
// and checks the shortcut is taken exactly when the block has one warp.
func TestSoloWarpBarrier(t *testing.T) {
	k := mustCompile(t, buildBarrierLoop())
	for _, block := range []int{32, 20, 64, 40} {
		want := runBarrierLoop(t, k, BackendInterp, block, 0)
		got := runBarrierLoop(t, k, BackendThreaded, block, 0)
		if want.err != nil || got.err != nil {
			t.Fatalf("block %d: interp %v, threaded %v", block, want.err, got.err)
		}
		if got.res.Cycles != want.res.Cycles || got.res.DynInstrs != want.res.DynInstrs {
			t.Errorf("block %d: threaded %v cycles / %d instrs, interp %v / %d",
				block, got.res.Cycles, got.res.DynInstrs, want.res.Cycles, want.res.DynInstrs)
		}
		if !bytes.Equal(got.mem, want.mem) || !bytes.Equal(got.shared, want.shared) {
			t.Errorf("block %d: memory images differ", block)
		}
		if want.releases == 0 {
			t.Fatalf("block %d: the interpreter released no barrier; the kernel is not testing anything", block)
		}
		if solo := block <= warpSize; solo && got.releases != 0 {
			t.Errorf("block %d: one warp, yet the scheduler released %d barriers", block, got.releases)
		} else if !solo && got.releases != want.releases {
			t.Errorf("block %d: %d barrier releases threaded, %d interpreted", block, got.releases, want.releases)
		}
	}
}

// TestBudgetWrittenBackOnEveryExit sweeps the dynamic-instruction budget over
// every value up to what buildBarrierLoop needs, so the timeout lands on every
// micro-op in turn — plain, fused, behind a barrier park, behind an in-place
// release — and a normal finish closes the sweep. The driver keeps the budget
// in a local and writes it back by hand on each exit; one forgotten exit would
// hand the next warp or block a stale count, and the launch would stop on
// another instruction than the reference interpreter's. (The memory-op fault
// exit is pinned by TestCollectiveShapesKeepFaultsAndBytes.) The exit the
// interpreter does not have, a proven spin, closes the test.
func TestBudgetWrittenBackOnEveryExit(t *testing.T) {
	k := mustCompile(t, buildBarrierLoop())
	for _, block := range []int{32, 64} {
		full := runBarrierLoop(t, k, BackendInterp, block, 0)
		if full.err != nil {
			t.Fatal(full.err)
		}
		finished := 0
		for maxDyn := int64(1); maxDyn <= full.res.DynInstrs+2; maxDyn++ {
			want := runBarrierLoop(t, k, BackendInterp, block, maxDyn)
			got := runBarrierLoop(t, k, BackendThreaded, block, maxDyn)
			var wt, gt *TimeoutError
			if errors.As(want.err, &wt) != errors.As(got.err, &gt) || (want.err == nil) != (got.err == nil) {
				t.Fatalf("block %d budget %d: interp %v, threaded %v", block, maxDyn, want.err, got.err)
			}
			if got.budget != want.budget {
				t.Errorf("block %d budget %d: %d left threaded, %d interpreted", block, maxDyn, got.budget, want.budget)
			}
			if !bytes.Equal(got.mem, want.mem) || !bytes.Equal(got.shared, want.shared) {
				t.Errorf("block %d budget %d: memory images differ", block, maxDyn)
			}
			if want.err == nil {
				finished++
				if got.res.DynInstrs != want.res.DynInstrs || got.res.Cycles != want.res.Cycles {
					t.Errorf("block %d budget %d: threaded %v cycles / %d instrs, interp %v / %d",
						block, maxDyn, got.res.Cycles, got.res.DynInstrs, want.res.Cycles, want.res.DynInstrs)
				}
			}
		}
		if finished == 0 {
			t.Errorf("block %d: no budget in the sweep let the kernel finish", block)
		}
	}
	// The proven exit: the non-termination witness (transferT) stops a spin
	// long before the budget does, and what is written back is still what the
	// launch executed — the entry's branch, then add, compare and branch per
	// trip up to the trip after the first copy.
	spin := mustCompile(t, spinKernel("spin", func(b *ir.Builder, _ ir.SharedDecl) (ir.Operand, ir.Operand) { return always(b) }))
	for _, block := range []int{32, 64} {
		const maxDyn = 1 << 20
		got := runBarrierLoop(t, spin, BackendThreaded, block, maxDyn)
		var te *TimeoutError
		if !errors.As(got.err, &te) {
			t.Fatalf("block %d: spin returned %v, want a TimeoutError", block, got.err)
		}
		if executed, want := maxDyn-got.budget, int64(1+3*(witnessFrom+1)); executed != want {
			t.Errorf("block %d: proven spin wrote back %d executed instructions, want %d", block, executed, want)
		}
	}
}
