package gpu

import (
	"bytes"
	"errors"
	"testing"

	"gevo/internal/ir"
)

// spinKernel builds entry -> spin -> exit around one loop body: body emits
// the spin block's instructions and returns the i1 that keeps the warp in
// the loop and the i32 the exit block stores to out[tid] (which keeps the
// loop's values live through dead-code elimination).
func spinKernel(name string, body func(b *ir.Builder, sh ir.SharedDecl) (stay, result ir.Operand)) *ir.Function {
	b := ir.NewBuilder(name)
	out := b.Param("out", ir.I64)
	sh := b.SharedArray("sh", 64, 4)
	b.Block("entry")
	b.Br("spin")
	b.Block("spin")
	stay, result := body(b, sh)
	b.CondBr(stay, "spin", "exit")
	b.Block("exit")
	b.Store(ir.SpaceGlobal, result, b.GlobalIdx(out, b.Special(ir.SpecialTID), 4))
	b.Ret()
	return b.Finish()
}

// always is a loop condition no lane ever fails: lane+1 < 100, the shape of
// the search_adept runaway (`%168 = add @lane:i32, 1` feeding its loop test).
func always(b *ir.Builder) (stay, x ir.Operand) {
	x = b.Add(b.Special(ir.SpecialLane), b.I32(1))
	return b.ICmp(ir.PredLT, x, b.I32(100)), x
}

// cycleKernel spins on a counter that runs 0, 1, .., period-1, 0, ..: the
// warp's state repeats every period trips and at no shorter distance.
func cycleKernel(name string, period int64) *ir.Function {
	return spinKernel(name, func(b *ir.Builder, _ ir.SharedDecl) (ir.Operand, ir.Operand) {
		i := b.Phi(ir.I32)
		i1 := b.Add(i.Result(), b.I32(1))
		next := b.Select(b.ICmp(ir.PredEQ, i1, b.I32(period)), b.I32(0), i1)
		b.AddIncoming(i, "entry", b.I32(0))
		b.AddIncoming(i, "spin", next)
		return b.ICmp(ir.PredLT, next, b.I32(period)), next
	})
}

// hiddenCounterKernel is a finite loop whose only moving state is a counter in
// shared memory that the registers forget. Trips alternate between two cells:
// an even trip adds 1 to cell 0 and leaves on reading hiddenCounterTrips/2
// there, an odd trip adds 0 to cell 8 and reads 0. The same instructions serve
// both, so after every odd trip the register file is what it was two trips
// earlier, bit for bit — and only the write in between says the warp has not
// been here before. (One thread per block: every lane of a warp would add to
// the counter.) update emits the read-modify-write of cell idx by inc and
// returns what it read.
func hiddenCounterKernel(name string, update func(b *ir.Builder, addr, inc ir.Operand) ir.Operand) *ir.Function {
	return spinKernel(name, func(b *ir.Builder, sh ir.SharedDecl) (ir.Operand, ir.Operand) {
		odd := b.Phi(ir.I32)
		next := b.Xor(odd.Result(), b.I32(1))
		b.AddIncoming(odd, "entry", b.I32(0))
		b.AddIncoming(odd, "spin", next)
		read := update(b, b.SharedAddr(sh, b.Mul(odd.Result(), b.I32(8)), 4), next)
		return b.ICmp(ir.PredLT, read, b.I32(hiddenCounterTrips/2)), read
	})
}

// hiddenCounterTrips puts a finite loop's exit past the witness's second copy
// (2^15 retreats, one per trip).
const hiddenCounterTrips = 40_000

// buildOtherWarpsWord: warp 1 writes a shared word, everybody meets at a
// barrier, then every warp polls the word for a value nobody writes.
func buildOtherWarpsWord() *ir.Function {
	b := ir.NewBuilder("other_warps_word")
	out := b.Param("out", ir.I64)
	sh := b.SharedArray("sh", 64, 4)
	b.Block("entry")
	b.CondBr(b.ICmp(ir.PredEQ, b.Special(ir.SpecialWarp), b.I32(1)), "write", "meet")
	b.Block("write")
	b.Store(ir.SpaceShared, b.I32(5), b.SharedAddr(sh, b.I32(0), 4))
	b.Br("meet")
	b.Block("meet")
	b.Barrier()
	b.Br("poll")
	b.Block("poll")
	v := b.Load(ir.I32, ir.SpaceShared, b.SharedAddr(sh, b.I32(0), 4))
	b.CondBr(b.ICmp(ir.PredNE, v, b.I32(6)), "poll", "exit")
	b.Block("exit")
	b.Store(ir.SpaceGlobal, v, b.GlobalIdx(out, b.Special(ir.SpecialTID), 4))
	b.Ret()
	return b.Finish()
}

// buildFlagAcrossBarriers is a finite two-warp loop around a barrier: warp 0
// counts trips and raises a shared flag on trip hiddenCounterTrips, warp 1
// only polls the flag, its registers the same trip after trip — what changes
// its future is written while it is parked.
func buildFlagAcrossBarriers() *ir.Function {
	b := ir.NewBuilder("flag_across_barriers")
	out := b.Param("out", ir.I64)
	sh := b.SharedArray("sh", 64, 4)
	b.Block("entry")
	step := b.Sub(b.I32(1), b.Special(ir.SpecialWarp))
	b.Br("spin")
	b.Block("spin")
	i := b.Phi(ir.I32)
	i1 := b.Add(i.Result(), step)
	b.CondBr(b.ICmp(ir.PredEQ, i1, b.I32(hiddenCounterTrips)), "raise", "meet")
	b.AddIncoming(i, "entry", b.I32(0))
	b.AddIncoming(i, "meet", i1)
	b.Block("raise")
	b.Store(ir.SpaceShared, b.I32(1), b.SharedAddr(sh, b.I32(0), 4))
	b.Br("meet")
	b.Block("meet")
	b.Barrier()
	flag := b.Load(ir.I32, ir.SpaceShared, b.SharedAddr(sh, b.I32(0), 4))
	b.CondBr(b.ICmp(ir.PredEQ, flag, b.I32(0)), "spin", "exit")
	b.Block("exit")
	b.Store(ir.SpaceGlobal, i1, b.GlobalIdx(out, b.Special(ir.SpecialTID), 4))
	b.Ret()
	return b.Finish()
}

// buildDivergedSpin: lanes 16..31 leave for the exit, lanes 0..15 spin under
// a diverged stack entry whose reconvergence point they never reach.
func buildDivergedSpin() *ir.Function {
	b := ir.NewBuilder("diverged_spin")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	lane := b.Special(ir.SpecialLane)
	b.CondBr(b.ICmp(ir.PredLT, lane, b.I32(16)), "spin", "exit")
	b.Block("spin")
	stay, _ := always(b)
	b.CondBr(stay, "spin", "exit")
	b.Block("exit")
	b.Store(ir.SpaceGlobal, lane, b.GlobalIdx(out, b.Special(ir.SpecialTID), 4))
	b.Ret()
	return b.Finish()
}

// buildLongFiniteNest is a 512 x 512-trip loop nest that returns. At an inner
// back edge the warp's state differs from what it was one outer trip earlier
// in the outer counter and accumulator alone — two registers out of the file.
func buildLongFiniteNest() *ir.Function {
	b := ir.NewBuilder("long_finite_nest")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	b.Br("outer")
	b.Block("outer")
	i := b.Phi(ir.I32)
	acc := b.Phi(ir.I32)
	b.Br("inner")
	b.Block("inner")
	j := b.Phi(ir.I32)
	j1 := b.Add(j.Result(), b.I32(1))
	b.CondBr(b.ICmp(ir.PredLT, j1, b.I32(512)), "inner", "latch")
	b.AddIncoming(j, "outer", b.I32(0))
	b.AddIncoming(j, "inner", j1)
	b.Block("latch")
	i1 := b.Add(i.Result(), b.I32(1))
	acc1 := b.Add(acc.Result(), b.Xor(i1, j1))
	b.CondBr(b.ICmp(ir.PredLT, i1, b.I32(512)), "outer", "exit")
	b.AddIncoming(i, "entry", b.I32(0))
	b.AddIncoming(i, "latch", i1)
	b.AddIncoming(acc, "entry", tid)
	b.AddIncoming(acc, "latch", acc1)
	b.Block("exit")
	b.Store(ir.SpaceGlobal, acc1, b.GlobalIdx(out, tid, 4))
	b.Ret()
	return b.Finish()
}

// TestNonTerminationWitnessAdversarial runs hand-written loops under both
// backends at a budget the interpreter can afford. Every case must end in the
// same verdict, error text, result bits and global and shared memory image
// as the interpreter, which has no witness; the cases differ in whether the
// threaded backend may get there early. It may when a warp's state repeats
// within the window with nothing written in between, and must not when the
// repeat is further apart than the window, when something is stored —
// whatever the value — or an escape runs, when the loop passes a barrier, or
// when the loop ends.
func TestNonTerminationWitnessAdversarial(t *testing.T) {
	const budget = 1 << 18
	const (
		proves  = iota // TimeoutError before the budget is gone
		burns          // TimeoutError with the whole budget executed
		returns        // a Result
	)
	cases := []struct {
		name  string
		f     *ir.Function
		block int
		want  int
		// copies is how many times the witness must have copied the warp's
		// state before a finite loop returned.
		copies int
	}{
		{"period 1", spinKernel("period1", func(b *ir.Builder, _ ir.SharedDecl) (ir.Operand, ir.Operand) {
			return always(b)
		}), 32, proves, 0},
		{"period 3", cycleKernel("period3", 3), 32, proves, 0},
		{"period 16, the window's edge", cycleKernel("period16", witnessWindow), 32, proves, 0},
		{"period 17, past the window", cycleKernel("period17", witnessWindow+1), 32, burns, 0},
		{"same value stored every trip", spinKernel("same_store", func(b *ir.Builder, sh ir.SharedDecl) (ir.Operand, ir.Operand) {
			b.Store(ir.SpaceShared, b.I32(7), b.SharedAddr(sh, b.I32(0), 4))
			return always(b)
		}), 32, burns, 0},
		{"barrier in the loop, solo warp", spinKernel("barrier_solo", func(b *ir.Builder, _ ir.SharedDecl) (ir.Operand, ir.Operand) {
			b.Barrier()
			return always(b)
		}), 32, burns, 0},
		{"barrier in the loop, two warps", spinKernel("barrier_two", func(b *ir.Builder, _ ir.SharedDecl) (ir.Operand, ir.Operand) {
			b.Barrier()
			return always(b)
		}), 64, burns, 0},
		{"atomic in the loop, registers at a fixed point", spinKernel("atomic", func(b *ir.Builder, sh ir.SharedDecl) (ir.Operand, ir.Operand) {
			b.AtomicMax(ir.SpaceShared, b.SharedAddr(sh, b.I32(0), 4), b.I32(5))
			return always(b)
		}), 32, burns, 0},
		{"finite, counter hidden behind a store", hiddenCounterKernel("hidden_store", func(b *ir.Builder, addr, inc ir.Operand) ir.Operand {
			read := b.Load(ir.I32, ir.SpaceShared, addr)
			b.Store(ir.SpaceShared, b.Add(read, inc), addr)
			return read
		}), 1, returns, 2},
		{"finite, counter hidden behind an atomic", hiddenCounterKernel("hidden_atomic", func(b *ir.Builder, addr, inc ir.Operand) ir.Operand {
			return b.AtomicAdd(ir.SpaceShared, addr, inc)
		}), 1, returns, 2},
		{"i8 counter wrapping at 256", spinKernel("i8_wrap", func(b *ir.Builder, _ ir.SharedDecl) (ir.Operand, ir.Operand) {
			i := b.Phi(ir.I8)
			i1 := b.Add(i.Result(), b.I8(1))
			b.AddIncoming(i, "entry", b.I8(0))
			b.AddIncoming(i, "spin", i1)
			wide := b.Sext(ir.I32, i1)
			return b.ICmp(ir.PredLT, wide, b.I32(1000)), wide
		}), 32, burns, 0},
		{"finite, flag raised by another warp between barriers", buildFlagAcrossBarriers(), 64, returns, 2},
		{"word another warp wrote before the barrier", buildOtherWarpsWord(), 64, proves, 0},
		{"diverged spin", buildDivergedSpin(), 32, proves, 0},
		{"finite 2^18-retreat nest", buildLongFiniteNest(), 32, returns, 4},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := mustCompile(t, tc.f)
			maxDyn := int64(budget)
			if tc.want == returns {
				maxDyn = 0 // the default: the finite loops run past 1 << 18
			}
			want := runBarrierLoop(t, k, BackendInterp, tc.block, maxDyn)
			got := runBarrierLoop(t, k, BackendThreaded, tc.block, maxDyn)
			if (want.err == nil) != (got.err == nil) || want.err != nil && want.err.Error() != got.err.Error() {
				t.Fatalf("interp: %v\nthreaded: %v", want.err, got.err)
			}
			if !bytes.Equal(got.mem, want.mem) || !bytes.Equal(got.shared, want.shared) {
				t.Error("memory images differ")
			}
			if tc.want == returns {
				if want.err != nil {
					t.Fatal(want.err)
				}
				if *got.res != *want.res {
					t.Errorf("threaded %+v, interp %+v", *got.res, *want.res)
				}
				// Every power of two from witnessFrom up to the retreat count took
				// a copy — of the real slots' lanes and words — and none matched.
				// The count is the second block's alone: runBlock starts each
				// block's warps at zero.
				w, wit := &got.dev.launch.warps[0], &got.dev.launch.ctx.wit
				first := uint32(witnessFrom) << (tc.copies - 1)
				if w.retreats < first || w.retreats >= 2*first || len(wit.regs) != k.nslots*(warpSize+1) || len(wit.stack) == 0 {
					t.Errorf("%d retreats (want %d copies), last copy %d words and %d stack entries: the witness was not exercised as meant",
						w.retreats, tc.copies, len(wit.regs), len(wit.stack))
				}
				if got.stats.FailedLaunches != 0 || got.stats.Launches != 1 || got.stats.DynInstrs != got.res.DynInstrs {
					t.Errorf("stats %+v for a launch that returned %d instructions", got.stats, got.res.DynInstrs)
				}
				return
			}
			var te *TimeoutError
			if !errors.As(got.err, &te) || te.Budget != budget {
				t.Fatalf("threaded: %v, want a TimeoutError at budget %d", got.err, budget)
			}
			if want.stats.FailedLaunches != 1 || want.stats.FailedDynInstrs != budget || want.stats.Launches != 0 {
				t.Errorf("interp stats %+v: a budget timeout is one failed launch of %d instructions", want.stats, budget)
			}
			if got.stats.FailedLaunches != 1 || got.stats.Launches != 0 || got.stats.DynInstrs != 0 {
				t.Errorf("threaded stats %+v: want one failed launch", got.stats)
			}
			switch executed := got.stats.FailedDynInstrs; {
			case tc.want == proves && executed >= budget:
				t.Errorf("executed %d of %d instructions: the spin was not proven", executed, budget)
			case tc.want == burns && executed != budget:
				t.Errorf("executed %d of %d instructions: a timeout was declared that the budget did not produce", executed, budget)
			}
		})
	}
}
