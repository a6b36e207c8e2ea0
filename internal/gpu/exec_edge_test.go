package gpu

import (
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
