package gpu

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"gevo/internal/ir"
	"gevo/internal/rng"
)

// runScalarKernel executes a single-thread kernel writing one i64 result to
// out[0] and returns it.
func runScalarKernel(t *testing.T, build func(b *ir.Builder, out ir.Operand)) int64 {
	t.Helper()
	b := ir.NewBuilder("scalar")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	build(b, out)
	b.Ret()
	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	base, _ := d.Alloc(8)
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 1, Args: []uint64{uint64(base)}}); err != nil {
		t.Fatal(err)
	}
	buf, _ := d.ReadBytes(base, 8)
	var v uint64
	for i := 0; i < 8; i++ {
		v |= uint64(buf[i]) << (8 * i)
	}
	return int64(v)
}

func TestIntegerSemantics(t *testing.T) {
	cases := []struct {
		name  string
		build func(b *ir.Builder) ir.Operand
		want  int64
	}{
		{"srem_negative", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.SRem(b.I32(-7), b.I32(3)))
		}, -1},
		{"sdiv_negative", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.SDiv(b.I32(-7), b.I32(2)))
		}, -3},
		{"div_by_zero_is_zero", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.SDiv(b.I32(5), b.I32(0)))
		}, 0},
		{"rem_by_zero_is_zero", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.SRem(b.I32(5), b.I32(0)))
		}, 0},
		{"i32_overflow_wraps", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.Add(b.I32(math.MaxInt32), b.I32(1)))
		}, math.MinInt32},
		{"lshr_i32_is_logical", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.LShr(b.I32(-2), b.I32(1)))
		}, 0x7FFFFFFF},
		{"ashr_is_arithmetic", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.AShr(b.I32(-8), b.I32(2)))
		}, -2},
		{"smin_smax", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.SMax(b.SMin(b.I32(3), b.I32(-5)), b.I32(-4)))
		}, -4},
		{"trunc_sext", func(b *ir.Builder) ir.Operand {
			return b.Sext(ir.I64, b.Trunc(ir.I8, b.I32(0x1FF)))
		}, -1},
		{"zext_i8", func(b *ir.Builder) ir.Operand {
			return b.Zext(ir.I64, b.Trunc(ir.I8, b.I32(0x1FF)))
		}, 0xFF},
		{"fptosi_truncates", func(b *ir.Builder) ir.Operand {
			return b.FPToSI(ir.I64, b.FMul(b.F64(2.9), b.F64(1.0)))
		}, 2},
		{"fptosi_nan_is_zero", func(b *ir.Builder) ir.Operand {
			return b.FPToSI(ir.I64, b.FDiv(b.F64(0), b.F64(0)))
		}, 0},
		{"select_false_arm", func(b *ir.Builder) ir.Operand {
			return b.ToI64(b.Select(b.ICmp(ir.PredGT, b.I32(1), b.I32(2)), b.I32(10), b.I32(20)))
		}, 20},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := runScalarKernel(t, func(b *ir.Builder, out ir.Operand) {
				b.Store(ir.SpaceGlobal, tc.build(b), out)
			})
			if got != tc.want {
				t.Errorf("got %d, want %d", got, tc.want)
			}
		})
	}
}

// TestFPToSIIsDefinedOutOfRange pins the float-to-integer conversion where Go
// leaves it to the host: NaN converts to 0 and every value outside
// [-2^63, 2^63) to MinInt64, through both backends, at full and narrowed
// result widths.
func TestFPToSIIsDefinedOutOfRange(t *testing.T) {
	cases := []struct {
		f    float64
		want int64
	}{
		{math.Inf(1), math.MinInt64},
		{math.Inf(-1), math.MinInt64},
		{1e300, math.MinInt64},
		{-1e300, math.MinInt64},
		{1 << 63, math.MinInt64},
		{-(1 << 63), math.MinInt64}, // in range: the one value that converts to MinInt64 exactly
		{math.Nextafter(1<<63, 0), 1<<63 - 1024},
		{math.Nextafter(-(1 << 63), math.Inf(-1)), math.MinInt64},
		{math.NaN(), 0},
		{0.75, 0},
		{-1.5, -1},
		{123456789.9, 123456789},
		{-4294967297.5, -4294967297},
	}
	in := make([]float64, len(cases))
	for i, tc := range cases {
		in[i] = tc.f
		if got := fptosi(tc.f); got != tc.want {
			t.Errorf("fptosi(%v) = %d, want %d", tc.f, got, tc.want)
		}
	}

	b := ir.NewBuilder("fptosi")
	src := b.Param("in", ir.I64)
	dst := b.Param("out", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	f := b.Load(ir.F64, ir.SpaceGlobal, b.GlobalIdx(src, tid, 8))
	b.Store(ir.SpaceGlobal, b.FPToSI(ir.I64, f), b.GlobalIdx(dst, tid, 8))
	b.Store(ir.SpaceGlobal, b.FPToSI(ir.I32, f), b.GlobalIdx(dst, b.Add(tid, b.I32(32)), 8))
	b.Ret()
	k := mustCompile(t, b.Finish())
	for _, backend := range []Backend{BackendInterp, BackendThreaded} {
		d := NewDeviceWithMem(P100, 1<<12)
		inBase, _ := d.Alloc(8 * len(in))
		outBase, _ := d.Alloc(8 * 64)
		if err := d.WriteF64s(inBase, in); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: len(in), Backend: backend, Args: PackArgs(inBase, outBase)}); err != nil {
			t.Fatal(err)
		}
		buf, err := d.ReadBytes(outBase, 8*64)
		if err != nil {
			t.Fatal(err)
		}
		for i, tc := range cases {
			if got := int64(binary.LittleEndian.Uint64(buf[8*i:])); got != tc.want {
				t.Errorf("backend %d: fptosi i64 of %v = %d, want %d", backend, tc.f, got, tc.want)
			}
			// The i32 result is the low word, stored into a zeroed i64 cell.
			if got, want := binary.LittleEndian.Uint64(buf[8*(32+i):]), uint64(uint32(tc.want)); got != want {
				t.Errorf("backend %d: fptosi i32 of %v = %#x, want %#x", backend, tc.f, got, want)
			}
		}
	}
}

// TestPhiParallelCopy checks swap semantics: two phis exchanging values each
// iteration must read pre-transfer values (parallel copy).
func TestPhiParallelCopy(t *testing.T) {
	b := ir.NewBuilder("swap")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	b.Br("loop")
	b.Block("loop")
	x := b.Phi(ir.I32)
	y := b.Phi(ir.I32)
	i := b.Phi(ir.I32)
	i1 := b.Add(i.Result(), b.I32(1))
	done := b.ICmp(ir.PredGE, i1, b.I32(3)) // 3 swap iterations
	b.CondBr(done, "exit", "loop")
	b.AddIncoming(x, "entry", b.I32(7))
	b.AddIncoming(x, "loop", y.Result()) // x <- y
	b.AddIncoming(y, "entry", b.I32(9))
	b.AddIncoming(y, "loop", x.Result()) // y <- x, simultaneously
	b.AddIncoming(i, "entry", b.I32(0))
	b.AddIncoming(i, "loop", i1)
	b.Block("exit")
	// After 2 back-edges (i=0->1->2), values swapped twice: x=7, y=9.
	fx := b.Phi(ir.I32, ir.Incoming{Block: "loop", Val: x.Result()})
	b.Store(ir.SpaceGlobal, b.ToI64(fx.Result()), out)
	b.Ret()

	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	base, _ := d.Alloc(8)
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 1, Args: []uint64{uint64(base)}}); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadI32s(base, 1)
	if v[0] != 7 {
		t.Errorf("after even swaps x = %d, want 7 (parallel copy broken)", v[0])
	}
}

// TestAtomicMaxExch checks the remaining atomics.
func TestAtomicMaxExch(t *testing.T) {
	b := ir.NewBuilder("atomics")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	b.AtomicMax(ir.SpaceGlobal, out, tid)
	b.AtomicExch(ir.SpaceGlobal, b.Add(out, b.I64(4)), tid)
	b.Ret()
	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	base, _ := d.Alloc(8)
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 64, Args: []uint64{uint64(base)}}); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadI32s(base, 2)
	if v[0] != 63 {
		t.Errorf("atomicMax = %d, want 63", v[0])
	}
	// Exchange winner is the last committing lane under the deterministic
	// order: lane 31 of warp 1 (tid 63).
	if v[1] != 63 {
		t.Errorf("atomicExch final = %d, want 63", v[1])
	}
}

// TestSharedOOBFaults checks shared-memory bounds are enforced.
func TestSharedOOBFaults(t *testing.T) {
	b := ir.NewBuilder("shoob")
	sh := b.SharedArray("sh", 4, 4)
	b.Block("entry")
	b.Store(ir.SpaceShared, b.I32(1), b.SharedAddr(sh, b.I32(100), 4))
	b.Ret()
	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	_, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 1})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want shared fault, got %v", err)
	}
}

// sharedReplaysQuadratic is the bank-conflict model as first written — a
// pairwise scan per lane — kept as the oracle for the one-pass count.
func sharedReplaysQuadratic(addrs []int64) int {
	maxReplay := 1
	for i := range addrs {
		word := addrs[i] >> 2
		replays := 1
		for j := 0; j < i; j++ {
			if wj := addrs[j] >> 2; wj&31 == word&31 && wj != word {
				replays++
			}
		}
		if replays > maxReplay {
			maxReplay = replays
		}
	}
	return maxReplay
}

// TestSharedReplaysMatchesQuadratic pins the one-pass bank-conflict count to
// the pairwise model bit for bit — including its quirk that duplicate
// broadcast lanes in a conflicted bank weigh into the count — on adversarial
// address sets and on random ones of every warp occupancy.
func TestSharedReplaysMatchesQuadratic(t *testing.T) {
	check := func(label string, addrs []int64) {
		t.Helper()
		var c blockCtx
		n := copy(c.addrs[:], addrs)
		if got, want := c.sharedReplays(n), sharedReplaysQuadratic(addrs); got != want {
			t.Errorf("%s: replays = %d, pairwise model says %d (addrs %v)", label, got, want, addrs)
		}
	}
	fill := func(n int, f func(i int) int64) []int64 {
		out := make([]int64, n)
		for i := range out {
			out[i] = f(i)
		}
		return out
	}
	check("empty", nil)
	check("conflict-free", fill(32, func(i int) int64 { return int64(4 * i) }))
	check("all one word", fill(32, func(int) int64 { return 64 }))
	check("all one bank, distinct words", fill(32, func(i int) int64 { return int64(128 * i) }))
	check("all one bank, two words alternating", fill(32, func(i int) int64 { return int64(128 * (i % 2)) }))
	check("broadcast pairs inside a conflicted bank", fill(32, func(i int) int64 { return int64(128 * (i / 2)) }))
	check("sub-word offsets share a word", fill(32, func(i int) int64 { return int64(128*(i%4) + i%3) }))
	check("partial warp, 2-way", fill(7, func(i int) int64 { return int64(128*(i%2) + 4*(i/2)) }))
	check("single lane", []int64{12})
	check("conflict appears at the last lane", append(fill(31, func(i int) int64 { return int64(4 * i) }), 128))

	r := rng.New(77)
	for trial := 0; trial < 4000; trial++ {
		n := 1 + r.Intn(warpSize)
		banks, rows := 1+r.Intn(32), 1+r.Intn(6)
		check("random", fill(n, func(int) int64 {
			return int64(128*r.Intn(rows) + 4*r.Intn(banks) + r.Intn(4))
		}))
	}
}

// TestFaultingStoreStaysInsideDirtyMark is the regression test for a pooled
// device coming back with stale bytes: a global store whose lane 0 lands high
// in the arena and whose lane 1 faults must leave lane 0's bytes under the
// dirty mark, so Release scrubs them and the next tenant gets an all-zero
// arena. The threaded store loops used to mark only after the loop, which a
// fault skips. Covers the micro-op stores (i64/i32/i8) and the closure store
// (i1), full-warp and partial-warp masks, and the reference interpreter.
func TestFaultingStoreStaysInsideDirtyMark(t *testing.T) {
	const arena = 1 << 16
	const hi = arena - 64
	for _, tc := range []struct {
		name string
		val  ir.Operand
	}{
		{"i64", ir.ConstInt(ir.I64, -1)},
		{"i32", ir.ConstInt(ir.I32, -1)},
		{"i8", ir.ConstInt(ir.I8, -1)},
		{"i1", ir.ConstBool(true)},
	} {
		b := ir.NewBuilder("faultstore_" + tc.name)
		hiArg := b.Param("hi", ir.I64)
		b.Block("entry")
		lane0 := b.ICmp(ir.PredEQ, b.Special(ir.SpecialTID), b.I32(0))
		b.Store(ir.SpaceGlobal, tc.val, b.Select(lane0, hiArg, b.I64(-1)))
		b.Ret()
		k := mustCompile(t, b.Finish())
		for _, backend := range []Backend{BackendInterp, BackendThreaded} {
			for _, block := range []int{3, warpSize} {
				d := AcquireDeviceWithMem(P100, arena)
				_, err := d.Launch(k, LaunchConfig{Grid: 1, Block: block, Backend: backend, Args: []uint64{hi}})
				var fe *FaultError
				if !errors.As(err, &fe) {
					t.Fatalf("%s backend %v block %d: want a store fault, got %v", tc.name, backend, block, err)
				}
				if d.mem[hi] == 0 {
					t.Fatalf("%s backend %v block %d: lane 0's store did not land before the fault", tc.name, backend, block)
				}
				d.Release()
				// d.mem is now what the pool hands out; check it directly,
				// since sync.Pool need not return this device next.
				for i, v := range d.mem {
					if v != 0 {
						t.Fatalf("%s backend %v block %d: released arena has %#x at %d (dirty mark missed it)",
							tc.name, backend, block, v, i)
					}
				}
			}
		}
	}
}

// TestDivergentRet checks lanes retiring inside a divergent region while
// others continue.
func TestDivergentRet(t *testing.T) {
	b := ir.NewBuilder("dret")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	early := b.ICmp(ir.PredLT, tid, b.I32(8))
	b.CondBr(early, "quit", "work")
	b.Block("quit")
	b.Ret() // lanes 0-7 retire early
	b.Block("work")
	b.Store(ir.SpaceGlobal, tid, b.GlobalIdx(out, tid, 4))
	b.Ret()
	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	base, _ := d.Alloc(4 * 32)
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 32, Args: []uint64{uint64(base)}}); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadI32s(base, 32)
	for i := 0; i < 8; i++ {
		if v[i] != 0 {
			t.Errorf("retired lane %d wrote %d", i, v[i])
		}
	}
	for i := 8; i < 32; i++ {
		if v[i] != int32(i) {
			t.Errorf("lane %d wrote %d", i, v[i])
		}
	}
}

// TestDCESkipsDeadChains checks compilation drops pure dead code but keeps
// loads and warp primitives.
func TestDCESkipsDeadChains(t *testing.T) {
	b := ir.NewBuilder("dce")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	// Dead ALU chain.
	x := b.Add(b.I32(1), b.I32(2))
	y := b.Mul(x, x)
	_ = b.Sub(y, b.I32(1)) // never used
	// Live: store.
	b.Store(ir.SpaceGlobal, b.I32(5), out)
	b.Ret()
	f := b.Finish()
	k := mustCompile(t, f)

	b2 := ir.NewBuilder("nodce")
	out2 := b2.Param("out", ir.I64)
	b2.Block("entry")
	b2.Store(ir.SpaceGlobal, b2.I32(5), out2)
	b2.Ret()
	k2 := mustCompile(t, b2.Finish())

	d := NewDevice(P100)
	base, _ := d.Alloc(8)
	r1, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 32, Args: []uint64{uint64(base)}})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := d.Launch(k2, LaunchConfig{Grid: 1, Block: 32, Args: []uint64{uint64(base)}})
	if err != nil {
		t.Fatal(err)
	}
	if r1.Cycles != r2.Cycles {
		t.Errorf("dead chain not eliminated: %v vs %v cycles", r1.Cycles, r2.Cycles)
	}
}

// TestArithmeticAgainstGo property-checks warp arithmetic against Go's own
// semantics across random inputs.
func TestArithmeticAgainstGo(t *testing.T) {
	d := NewDevice(P100)
	base, _ := d.Alloc(8 * 32)
	fn := func(xv, yv int32) bool {
		b := ir.NewBuilder("prop")
		out := b.Param("out", ir.I64)
		b.Block("entry")
		x := b.I32(int64(xv))
		y := b.I32(int64(yv))
		sum := b.Add(x, y)
		xr := b.Xor(sum, b.Shl(x, b.And(y, b.I32(7))))
		res := b.SMax(xr, b.Sub(y, x))
		b.Store(ir.SpaceGlobal, b.ToI64(res), out)
		b.Ret()
		k, err := Compile(b.Finish())
		if err != nil {
			return false
		}
		if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 1, Args: []uint64{uint64(base)}}); err != nil {
			return false
		}
		buf, _ := d.ReadBytes(base, 8)
		var got uint64
		for i := 0; i < 8; i++ {
			got |= uint64(buf[i]) << (8 * i)
		}
		sumG := xv + yv
		xrG := sumG ^ (xv << uint(yv&7))
		want := xrG
		if d := yv - xv; d > want {
			want = d
		}
		return int64(got) == int64(want)
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestUnreachableBlocksTolerated checks mutants with orphaned blocks still
// compile and run.
func TestUnreachableBlocksTolerated(t *testing.T) {
	b := ir.NewBuilder("orphan")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	b.Store(ir.SpaceGlobal, b.I32(1), out)
	b.Br("exit")
	b.Block("orphaned") // no predecessors
	b.Store(ir.SpaceGlobal, b.I32(99), out)
	b.Br("exit")
	b.Block("exit")
	b.Ret()
	f := b.Finish()
	if err := f.Verify(); err != nil {
		t.Fatalf("unreachable block should be tolerated: %v", err)
	}
	k, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDevice(P100)
	base, _ := d.Alloc(8)
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 1, Args: []uint64{uint64(base)}}); err != nil {
		t.Fatal(err)
	}
	v, _ := d.ReadI32s(base, 1)
	if v[0] != 1 {
		t.Errorf("orphaned block executed: out = %d", v[0])
	}
}

// TestAllocExhaustion checks the allocator reports out-of-memory.
func TestAllocExhaustion(t *testing.T) {
	d := NewDeviceWithMem(P100, 1024)
	if _, err := d.Alloc(512); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Alloc(4096); err == nil {
		t.Fatal("oversized Alloc should fail")
	}
	d.Reset()
	if _, err := d.Alloc(1024); err != nil {
		t.Fatalf("after Reset: %v", err)
	}
}

// TestLaunchValidation checks geometry and argument validation.
func TestLaunchValidation(t *testing.T) {
	f := buildVecAdd()
	k := mustCompile(t, f)
	d := NewDevice(P100)
	if _, err := d.Launch(k, LaunchConfig{Grid: 0, Block: 32}); err == nil {
		t.Error("zero grid should fail")
	}
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 4096}); err == nil {
		t.Error("oversized block should fail")
	}
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 32, Args: []uint64{1}}); err == nil {
		t.Error("wrong arg count should fail")
	}
}

// memOpCase is one memory micro-op of the collective-shape table: a load or
// a store of one width in one space.
type memOpCase struct {
	name   string
	store  bool
	space  ir.MemSpace
	typ    ir.Type
	stored ir.Operand // store only: a per-lane distinct value is built from it
}

// buildMemOpKernel builds the probe for one memory micro-op. Every lane first
// fills a 256-byte shared array; the lanes whose bit is set in the mask
// parameter then fetch their own address from a 32-entry table in global
// memory and apply the op to it (a load's result, plus the one four lanes up,
// goes to out[tid]). The
// addresses are data, so any shape — and any fault — can be dialled in from
// the host, and the lanes' stored values are all different, so the image says
// which lane wrote last.
func buildMemOpKernel(tc memOpCase) *ir.Function {
	b := ir.NewBuilder("memop_" + tc.name)
	tab := b.Param("tab", ir.I64)
	out := b.Param("out", ir.I64)
	mask := b.Param("mask", ir.I64)
	sh := b.SharedArray("sh", 64, 4)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	fill := b.Add(b.Mul(tid, b.I32(0x01010101)), b.I32(0x10))
	b.Store(ir.SpaceShared, fill, b.SharedAddr(sh, tid, 4))
	b.Store(ir.SpaceShared, b.Xor(fill, b.I32(-1)), b.SharedAddr(sh, b.Add(tid, b.I32(32)), 4))
	on := b.ICmp(ir.PredNE, b.And(b.AShr(mask, b.ToI64(tid)), b.I64(1)), b.I64(0))
	b.CondBr(on, "body", "exit")
	b.Block("body")
	addr := b.Load(ir.I64, ir.SpaceGlobal, b.GlobalIdx(tab, tid, 8))
	if tc.store {
		v := b.Mul(b.Add(b.ToI64(tid), b.I64(1)), b.I64(0x0102030405060708))
		switch tc.typ {
		case ir.I32, ir.I8:
			b.Store(tc.space, b.Trunc(tc.typ, v), addr)
		default:
			b.Store(tc.space, v, addr)
		}
	} else {
		// The shfl reads lanes the mask may have switched off: a load that
		// wrote their registers too would show here.
		v := b.Load(tc.typ, tc.space, addr)
		b.Store(ir.SpaceGlobal, b.Add(v, b.Shfl(v, b.Add(tid, b.I32(4)))), b.GlobalIdx(out, tid, 8))
	}
	b.Br("exit")
	b.Block("exit")
	b.Ret()
	return b.Finish()
}

// memOpOutcome is everything a backend leaves behind after the probe.
type memOpOutcome struct {
	err     error
	cycles  uint64 // the warp's cycle counter, also after a fault
	budget  int64
	dirtyHi int64
	mem     []byte
	shared  []byte
}

// TestCollectiveShapesKeepFaultsAndBytes pins the warp-collective memory
// paths to the per-lane reference on everything a caller or a later launch
// can see: for every memory micro-op, under a full, a partial and a
// single-lane mask, over broadcast, unit-stride and general address vectors
// with and without out-of-range lanes, both backends must return the same
// error (Addr, Op, UID), leave the same cycle count and budget, the same
// global and shared bytes — a fault stops the warp after the lanes below it
// have written — and the same dirty mark, under which Release must find every
// byte (the check of TestFaultingStoreStaysInsideDirtyMark).
func TestCollectiveShapesKeepFaultsAndBytes(t *testing.T) {
	const arena = 1 << 14
	const sharedBytes = 256
	var ops []memOpCase
	for _, sp := range []ir.MemSpace{ir.SpaceGlobal, ir.SpaceShared} {
		for _, ty := range []ir.Type{ir.I64, ir.I32, ir.I8} {
			ops = append(ops,
				memOpCase{name: "load_" + sp.String() + "_" + ty.String(), space: sp, typ: ty},
				memOpCase{name: "store_" + sp.String() + "_" + ty.String(), store: true, space: sp, typ: ty})
		}
	}
	masks := []struct {
		name string
		bits uint32
	}{{"full", fullMask}, {"partial", 0x00F0F0F0}, {"single", 1 << 9}}

	// A pattern maps a lane to its address, given the lowest, a middle and
	// the highest active lane, the base of the in-range region and the
	// highest address at which the access still fits.
	type env struct{ lo, mid, last, base, hi int64 }
	r := rng.New(41)
	const (
		either = iota
		faults
		lands
	)
	patterns := []struct {
		name    string
		outcome int
		addr    func(l int64, e env) int64
	}{
		{"broadcast", lands, func(l int64, e env) int64 { return e.base + 8 }},
		{"broadcast unaligned", lands, func(l int64, e env) int64 { return e.base + 5 }},
		{"broadcast below range", faults, func(l int64, e env) int64 { return -8 }},
		{"broadcast above range", faults, func(l int64, e env) int64 { return e.hi + 1 }},
		{"unit stride", lands, func(l int64, e env) int64 { return e.base + 4*l }},
		{"unit stride, first active lane below range", faults, func(l int64, e env) int64 { return 4*(l-e.lo) - 4 }},
		{"unit stride, above range from a middle lane on", faults, func(l int64, e env) int64 { return e.hi + 4 + 4*(l-e.mid) }},
		{"unit stride, last active lane above range", faults, func(l int64, e env) int64 { return e.hi + 4 + 4*(l-e.last) }},
		{"unit stride but one lane poked out", faults, func(l int64, e env) int64 {
			if l == e.mid {
				return -1
			}
			return e.base + 4*l
		}},
		{"broadcast but the last lane elsewhere", lands, func(l int64, e env) int64 {
			if l == e.last {
				return e.base + 64
			}
			return e.base + 8
		}},
		{"stride of two words", lands, func(l int64, e env) int64 { return e.base + 8*l }},
		{"reversed unit stride", lands, func(l int64, e env) int64 { return e.base + 4*(31-l) }},
		{"random in range", lands, func(l int64, e env) int64 { return e.base + int64(r.Intn(sharedBytes-8)) }},
		{"random, some out of range", either, func(l int64, e env) int64 {
			if r.Intn(8) == 0 {
				return e.hi + 1 + int64(r.Intn(64))
			}
			return e.base + int64(r.Intn(sharedBytes-8))
		}},
	}

	run := func(k *Kernel, backend Backend, mask uint32, addrs []int64) memOpOutcome {
		d := AcquireDeviceWithMem(P100, arena)
		tab, _ := d.Alloc(8 * warpSize)
		out, _ := d.Alloc(8 * warpSize)
		data, _ := d.Alloc(sharedBytes)
		fill := make([]byte, sharedBytes)
		for i := range fill {
			fill[i] = byte(0xA0 + i%89)
		}
		if err := d.WriteBytes(data, fill); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 8*warpSize)
		for l, a := range addrs {
			for i := 0; i < 8; i++ {
				raw[8*l+i] = byte(uint64(a) >> (8 * i))
			}
		}
		if err := d.WriteBytes(tab, raw); err != nil {
			t.Fatal(err)
		}
		_, err := d.Launch(k, LaunchConfig{
			Grid: 1, Block: warpSize, Backend: backend,
			Args: []uint64{uint64(tab), uint64(out), uint64(mask)},
		})
		o := memOpOutcome{
			err:     err,
			cycles:  math.Float64bits(d.launch.warps[0].cycles),
			budget:  *d.launch.ctx.budget,
			dirtyHi: d.dirtyHi,
			mem:     append([]byte(nil), d.mem...),
			shared:  append([]byte(nil), d.launch.shared...),
		}
		d.Release()
		for i, v := range d.mem {
			if v != 0 {
				t.Fatalf("%s backend %v: released arena has %#x at %d (dirty mark %d missed it)", k.Name, backend, v, i, o.dirtyHi)
			}
		}
		return o
	}

	for _, op := range ops {
		k := mustCompile(t, buildMemOpKernel(op))
		width := int64(op.typ.Size())
		for _, m := range masks {
			var active []int64
			for l := int64(0); l < warpSize; l++ {
				if m.bits>>l&1 != 0 {
					active = append(active, l)
				}
			}
			for _, p := range patterns {
				// The in-range region of a shared op is the array itself; a
				// global load's is the data buffer (the third allocation) and
				// a global store's lies above everything the host wrote, so
				// that the dirty mark is the kernel's doing.
				e := env{lo: active[0], mid: active[len(active)/2], last: active[len(active)-1]}
				switch {
				case op.space == ir.SpaceShared:
					e.base, e.hi = 0, sharedBytes-width
				case op.store:
					e.base, e.hi = arena/2, arena-width
				default:
					e.base, e.hi = 2*256, arena-width
				}
				addrs := make([]int64, warpSize)
				for l := range addrs {
					addrs[l] = p.addr(int64(l), e)
				}
				want := run(k, BackendInterp, m.bits, addrs)
				got := run(k, BackendThreaded, m.bits, addrs)
				label := op.name + "/" + m.name + "/" + p.name

				var wf, gf *FaultError
				switch {
				case errors.As(want.err, &wf) != errors.As(got.err, &gf) || (want.err == nil) != (got.err == nil):
					t.Fatalf("%s: interp error %v, threaded error %v", label, want.err, got.err)
				case wf != nil && *wf != *gf:
					t.Errorf("%s: interp fault %+v, threaded fault %+v", label, *wf, *gf)
				}
				if p.outcome != either && (p.outcome == faults) != (wf != nil) {
					t.Errorf("%s: error %v, but the pattern %s", label, want.err, [...]string{faults: "faults", lands: "lands"}[p.outcome])
				}
				if op.store && p.name == "broadcast" {
					// Ascending lane order: the highest active lane's value
					// is the one a same-address store leaves behind.
					image := want.shared
					if op.space == ir.SpaceGlobal {
						image = want.mem
					}
					v := uint64(e.last+1) * 0x0102030405060708
					for i := int64(0); i < width; i++ {
						if image[e.base+8+i] != byte(v>>(8*i)) {
							t.Errorf("%s: byte %d of the broadcast store is %#x, the last active lane stored %#x", label, i, image[e.base+8+i], byte(v>>(8*i)))
						}
					}
				}
				if got.cycles != want.cycles {
					t.Errorf("%s: warp cycles %x (threaded) != %x (interp)", label, got.cycles, want.cycles)
				}
				if got.budget != want.budget {
					t.Errorf("%s: budget left %d (threaded) != %d (interp)", label, got.budget, want.budget)
				}
				if got.dirtyHi != want.dirtyHi {
					t.Errorf("%s: dirty mark %d (threaded) != %d (interp)", label, got.dirtyHi, want.dirtyHi)
				}
				if !bytes.Equal(got.mem, want.mem) {
					t.Errorf("%s: global memory images differ", label)
				}
				if !bytes.Equal(got.shared, want.shared) {
					t.Errorf("%s: shared memory images differ", label)
				}
			}
		}
	}
}

// TestCollectiveShapesChargeWhatTheWalkWould pins the two shortcuts in
// sharedCost and globalCost to the models they skip: whenever shapeOf names a
// collective shape, the pairwise bank model must call the access
// conflict-free, and a broadcast must touch one 128-byte segment — so the
// charge is the float the address walk would have produced. Adversarial
// vectors first, then random ones of every occupancy, many of them one lane
// away from a collective shape.
func TestCollectiveShapesChargeWhatTheWalkWould(t *testing.T) {
	seen := map[addrShape]int{}
	check := func(label string, src [warpSize]uint64, mask uint32) {
		t.Helper()
		var c blockCtx
		n := c.gatherAddrs(src[:], mask)
		shape := shapeOf(src[:], mask, true)
		seen[shape]++
		if got := shapeOf(src[:], mask, false); got != shape && !(shape == shapeUnitStride && got == shapeOther) {
			t.Errorf("%s: shape %d without the unit-stride rule, %d with it", label, got, shape)
		}
		if shape != shapeOther {
			if r := sharedReplaysQuadratic(c.addrs[:n]); r != 1 {
				t.Errorf("%s: shape %d, but the pairwise model counts %d replays (mask %#x, addrs %v)", label, shape, r, mask, c.addrs[:n])
			}
		}
		if shape == shapeBroadcast {
			if segs := c.globalSegs(n); segs != 1 {
				t.Errorf("%s: broadcast touching %d segments (addrs %v)", label, segs, c.addrs[:n])
			}
		}
	}
	vec := func(f func(l int) int64) (v [warpSize]uint64) {
		for l := range v {
			v[l] = uint64(f(l))
		}
		return v
	}
	for _, mask := range []uint32{fullMask, 0x00F0F0F0, 1 << 9, 1<<31 | 1, 0xFFFF0000} {
		check("broadcast", vec(func(int) int64 { return 72 }), mask)
		check("broadcast, unaligned", vec(func(int) int64 { return 127 }), mask)
		check("one word, different bytes", vec(func(l int) int64 { return int64(64 + l%4) }), mask)
		check("unit stride", vec(func(l int) int64 { return int64(4 * l) }), mask)
		check("unit stride off a bank boundary", vec(func(l int) int64 { return int64(52 + 4*l) }), mask)
		check("unit stride, unaligned", vec(func(l int) int64 { return int64(3 + 4*l) }), mask)
		check("unit stride from below zero", vec(func(l int) int64 { return int64(4*l - 20) }), mask)
		check("stride of two words", vec(func(l int) int64 { return int64(8 * l) }), mask)
		check("bytes", vec(func(l int) int64 { return int64(l) }), mask)
		check("reversed", vec(func(l int) int64 { return int64(4 * (31 - l)) }), mask)
		check("one bank", vec(func(l int) int64 { return int64(128 * l) }), mask)
	}
	if shapeOf(make([]uint64, warpSize), fullMask, true) != shapeBroadcast ||
		shapeOf(laneLanes[:], fullMask, true) != shapeOther {
		t.Error("shapeOf misreads the all-zero or the byte-stride vector")
	}

	r := rng.New(99)
	for trial := 0; trial < 20000; trial++ {
		mask := uint32(r.Uint64())
		if r.Intn(4) == 0 {
			mask = fullMask
		}
		if mask == 0 {
			continue
		}
		base, stride := int64(r.Intn(512)-64), int64([]int{0, 4, 4, 8, 1}[r.Intn(5)])
		v := vec(func(l int) int64 { return base + stride*int64(l) })
		if r.Intn(2) == 0 {
			v[r.Intn(warpSize)] += uint64(int64(r.Intn(9) - 4))
		}
		check("random", v, mask)
	}
	for _, s := range []addrShape{shapeOther, shapeBroadcast, shapeUnitStride} {
		if seen[s] < 1000 {
			t.Errorf("shape %d classified only %d times: the table is not exercising it", s, seen[s])
		}
	}
}
