package gpu

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"testing"

	"gevo/internal/ir"
)

// TestWidthFreeOpsAreClosed checks the width rule of uopFor against something
// other than itself. The rule: on canonical registers and, or, xor, smin,
// smax, ashr and srem need no i32 lane loop, because the 64-bit loop's result
// is already the canonical i32 one (and and/or/xor of 0/1 values are the i1
// ones). For adversarial operands, shift counts and 10 000 random pairs it
// checks (a) in scalar form, that the 64-bit result of each such operation is
// its own normValue — and, the negative control, that each of add, sub, mul,
// sdiv, shl and lshr has a pair where it is not, which is why they keep an i32
// case; (b) through a kernel that loads the pairs from memory (a constant
// operand could be folded before the micro-op sees it), that the threaded
// backend stores the very i64 the reference interpreter does, and for the
// closed operations that it is the 64-bit result.
func TestWidthFreeOpsAreClosed(t *testing.T) {
	shift := func(y int64) uint64 { return uint64(y) & 63 }
	type intOp struct {
		name   string
		build  func(b *ir.Builder, x, y ir.Operand) ir.Operand
		wide   func(x, y int64) int64 // what the 64-bit lane loop computes
		closed bool
	}
	ops := []intOp{
		{"add", (*ir.Builder).Add, func(x, y int64) int64 { return x + y }, false},
		{"sub", (*ir.Builder).Sub, func(x, y int64) int64 { return x - y }, false},
		{"mul", (*ir.Builder).Mul, func(x, y int64) int64 { return x * y }, false},
		{"sdiv", (*ir.Builder).SDiv, func(x, y int64) int64 {
			if y == 0 {
				return 0
			}
			return x / y
		}, false},
		{"srem", (*ir.Builder).SRem, func(x, y int64) int64 {
			if y == 0 {
				return 0
			}
			return x % y
		}, true},
		{"and", (*ir.Builder).And, func(x, y int64) int64 { return x & y }, true},
		{"or", (*ir.Builder).Or, func(x, y int64) int64 { return x | y }, true},
		{"xor", (*ir.Builder).Xor, func(x, y int64) int64 { return x ^ y }, true},
		{"shl", (*ir.Builder).Shl, func(x, y int64) int64 { return int64(uint64(x) << shift(y)) }, false},
		{"lshr", (*ir.Builder).LShr, func(x, y int64) int64 { return int64(uint64(x) >> shift(y)) }, false},
		{"ashr", (*ir.Builder).AShr, func(x, y int64) int64 { return x >> shift(y) }, true},
		{"smin", (*ir.Builder).SMin, func(x, y int64) int64 { return min(x, y) }, true},
		{"smax", (*ir.Builder).SMax, func(x, y int64) int64 { return max(x, y) }, true},
	}
	// What each thread computes: every operation at i32 on its pair, and
	// and/or/xor once more at i1 on the pair's truth values.
	type column struct {
		intOp
		typ ir.Type
		arg func(int32) int64 // the register a loaded operand becomes
	}
	var cols []column
	for _, op := range ops {
		cols = append(cols, column{op, ir.I32, func(v int32) int64 { return int64(v) }})
	}
	for _, op := range ops[5:8] {
		cols = append(cols, column{op, ir.I1, func(v int32) int64 { return int64(boolBit(v != 0)) }})
	}

	edge := []int32{math.MinInt32, -1, 0, 1, math.MaxInt32, 31, 32, 63}
	var xs, ys []int32
	for _, x := range edge {
		for _, y := range edge {
			xs, ys = append(xs, x), append(ys, y)
		}
	}
	rnd := rand.New(rand.NewSource(1))
	for i := 0; i < 10000; i++ {
		xs, ys = append(xs, int32(rnd.Uint32())), append(ys, int32(rnd.Uint32()))
	}

	// (a) Scalar.
	for _, col := range cols {
		counter := -1
		for i := range xs {
			if r := uint64(col.wide(col.arg(xs[i]), col.arg(ys[i]))); normValue(col.typ, r) != r {
				counter = i
				break
			}
		}
		switch {
		case col.closed && counter >= 0:
			t.Errorf("%s %s is lowered to the 64-bit loop, but %d %s %d is not canonical", col.name, col.typ, col.arg(xs[counter]), col.name, col.arg(ys[counter]))
		case !col.closed && counter < 0:
			t.Errorf("%s %s keeps a loop of its own, yet no pair here leaves its range: the negative control is not testing anything", col.name, col.typ)
		}
	}

	// (b) Both backends, operands loaded from memory. Each result is stored
	// through a sext to i64, which the threaded backend lowers to reading the
	// result's register as it is: the stored word is the register.
	b := ir.NewBuilder("widthfree")
	pxs, pys, pout, pn := b.Param("xs", ir.I64), b.Param("ys", ir.I64), b.Param("out", ir.I64), b.Param("n", ir.I32)
	b.Block("entry")
	gid := b.Add(b.Mul(b.Special(ir.SpecialBID), b.Special(ir.SpecialBDim)), b.Special(ir.SpecialTID))
	b.CondBr(b.ICmp(ir.PredLT, gid, pn), "body", "exit")
	b.Block("body")
	x := b.Load(ir.I32, ir.SpaceGlobal, b.GlobalIdx(pxs, gid, 4))
	y := b.Load(ir.I32, ir.SpaceGlobal, b.GlobalIdx(pys, gid, 4))
	px, py := b.ICmp(ir.PredNE, x, b.I32(0)), b.ICmp(ir.PredNE, y, b.I32(0))
	base := b.Mul(gid, b.I32(int64(len(cols))))
	for j, col := range cols {
		l, r := x, y
		if col.typ == ir.I1 {
			l, r = px, py
		}
		b.Store(ir.SpaceGlobal, b.Sext(ir.I64, col.build(b, l, r)), b.GlobalIdx(pout, b.Add(base, b.I32(int64(j))), 8))
	}
	b.Br("exit")
	b.Block("exit")
	b.Ret()
	k := mustCompile(t, b.Finish())

	n := len(xs)
	run := func(backend Backend) []byte {
		d := NewDeviceWithMem(P100, 2<<20)
		dx, _ := d.Alloc(4 * n)
		dy, _ := d.Alloc(4 * n)
		out, err := d.Alloc(8 * len(cols) * n)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.WriteI32s(dx, xs); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteI32s(dy, ys); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Launch(k, LaunchConfig{Grid: (n + 63) / 64, Block: 64, Backend: backend, Args: PackArgs(uint64(dx), uint64(dy), uint64(out), n)}); err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadBytes(out, 8*len(cols)*n)
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	interp, threaded := run(BackendInterp), run(BackendThreaded)
	for i := range xs {
		for j, col := range cols {
			at := 8 * (i*len(cols) + j)
			want, got := binary.LittleEndian.Uint64(interp[at:]), binary.LittleEndian.Uint64(threaded[at:])
			a, c := col.arg(xs[i]), col.arg(ys[i])
			if got != want {
				t.Fatalf("%s %s of %d, %d: threaded stores %#x, the interpreter %#x", col.name, col.typ, a, c, got, want)
			}
			if wide := uint64(col.wide(a, c)); col.closed && want != wide {
				t.Fatalf("%s %s of %d, %d: the interpreter stores %#x, the 64-bit loop computes %#x", col.name, col.typ, a, c, want, wide)
			}
		}
	}
}

// TestLaunchArgsAreCanonicalised pins the one register source a caller
// controls: a launch argument with garbage above its parameter's width runs
// exactly as its canonical value does, on both backends, and the caller's
// slice is left alone. The kernel ORs each narrow parameter with 0 and stores
// its sign-extension: on the threaded backend neither step rewrites the bits
// (uOr is width-free, sext to i64 is an identity copy), so without Launch's
// normalisation the garbage would reach memory.
func TestLaunchArgsAreCanonicalised(t *testing.T) {
	b := ir.NewBuilder("rawargs")
	out := b.Param("out", ir.I64)
	params := []ir.Operand{b.Param("a", ir.I32), b.Param("b", ir.I8), b.Param("c", ir.I1)}
	b.Block("entry")
	for i, p := range params {
		zero := ir.ConstInt(p.Typ, 0)
		b.Store(ir.SpaceGlobal, b.Sext(ir.I64, b.Or(p, zero)), b.GlobalIdx(out, b.I32(int64(i)), 8))
	}
	b.Ret()
	k := mustCompile(t, b.Finish())

	run := func(backend Backend, a, b8, c uint64) []byte {
		d := NewDeviceWithMem(P100, 1<<12)
		o, err := d.Alloc(8 * len(params))
		if err != nil {
			t.Fatal(err)
		}
		args := []uint64{uint64(o), a, b8, c}
		passed := slices.Clone(args)
		if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 40, Backend: backend, Args: passed}); err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(passed, args) {
			t.Errorf("Launch rewrote the caller's argument slice: %#x -> %#x", args, passed)
		}
		got, err := d.ReadBytes(o, 8*len(params))
		if err != nil {
			t.Fatal(err)
		}
		return got
	}
	for _, tc := range []struct{ raw, canon [3]uint64 }{
		{[3]uint64{0xDEADBEEF_FFFFFFFB, 0x1280, 0xFFFFFFFF_FFFFFFFF}, [3]uint64{uint64(math.MaxUint64 - 4), uint64(math.MaxUint64 - 127), 1}},
		{[3]uint64{0xFFFFFFFF_00000005, 0xFFFFFF_7F, 0xFE}, [3]uint64{5, 127, 0}},
		{[3]uint64{0x00000000_80000000, 0xFF, 3}, [3]uint64{0xFFFFFFFF_80000000, math.MaxUint64, 1}},
	} {
		for _, backend := range []Backend{BackendInterp, BackendThreaded} {
			raw := run(backend, tc.raw[0], tc.raw[1], tc.raw[2])
			canon := run(backend, tc.canon[0], tc.canon[1], tc.canon[2])
			for i := range tc.canon {
				r, c := binary.LittleEndian.Uint64(raw[8*i:]), binary.LittleEndian.Uint64(canon[8*i:])
				if r != c || c != tc.canon[i] {
					t.Errorf("backend %d, %s parameter: raw %#x stores %#x, canonical %#x stores %#x", backend, params[i].Typ, tc.raw[i], r, tc.canon[i], c)
				}
			}
		}
	}
}
