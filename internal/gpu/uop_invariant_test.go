package gpu

import (
	"bytes"
	"testing"

	"gevo/internal/ir"
	"gevo/internal/kernels"
)

// laneInvariance compiles f and returns the compiled kernel and, by UID, the
// home the analysis gave every live value (homeLanes unless it is
// lane-invariant).
func laneInvariance(t *testing.T, f *ir.Function) (*Kernel, map[int]int32) {
	t.Helper()
	k := mustCompile(t, f)
	vals, _, err := liveValues(f)
	if err != nil {
		t.Fatal(err)
	}
	home := make(map[int]int32)
	for uid, v := range vals {
		if v.live && v.def != nil && v.def.Typ != ir.Void {
			home[uid] = k.home[v.slot]
		}
	}
	return k, home
}

// invarianceCases are the hand-made kernels of TestLaneInvarianceIsSound:
// one for each way lane invariance must die, and the one exemption. Each
// stores what it computed to out[tid], so a value wrongly taken for
// lane-invariant shows in the memory image as well as in the run-time check.
var invarianceCases = []struct {
	name, src string
	// inv and not list UIDs the analysis must and must not hold invariant;
	// scalar lists those whose home must be their word alone.
	inv, not, scalar []int
	// noCheck runs the case with the run-time check off: its shadow lanes
	// would move registers the case needs to stay still.
	noCheck bool
}{{
	// The two sides of a tid branch write different constants into the phi
	// at its ipdom: each side's constant is invariant, the merge is not.
	name: "phi at the ipdom of a tid branch",
	src: `
kernel merge(in:i64, out:i64, n:i32) shared 0 {
entry:
  %0 = icmp.lt @tid:i32, 5:i32 -> i1
  %1 = condbr %0:i1, left, right
left:
  %2 = br join
right:
  %3 = br join
join:
  %4 = phi [left 1:i32] [right 2:i32] -> i32
  %5 = add %4:i32, 10:i32 -> i32
  %6 = sext @tid:i32 -> i64
  %7 = mul %6:i64, 4:i64 -> i64
  %8 = add $out:i64, %7:i64 -> i64
  %9 = store global %5:i32, %8:i64
  %10 = ret
}`,
	not: []int{0, 4, 5, 6, 7, 8},
}, {
	// Each lane leaves the loop one trip after its lane number. Two counters
	// are the same in every lane on every trip and not after the exit: one
	// in a register (a phi of the loop) and one in a shared word (a load
	// with an invariant address, a def of the region).
	name: "in-loop counter read after a tid-dependent exit",
	src: `
kernel exit(in:i64, out:i64, n:i32) shared 8 {
entry:
  %0 = sext @tid:i32 -> i64
  %1 = br loop
loop:
  %2 = phi [entry 0:i32] [loop %3:i32] -> i32
  %3 = add %2:i32, 1:i32 -> i32
  %11 = load shared 0:i64 -> i32
  %12 = add %11:i32, 1:i32 -> i32
  %13 = store shared %12:i32, 0:i64
  %4 = icmp.le %3:i32, @lane:i32 -> i1
  %5 = condbr %4:i1, loop, done
done:
  %6 = mul %3:i32, 3:i32 -> i32
  %14 = add %6:i32, %12:i32 -> i32
  %7 = mul %0:i64, 4:i64 -> i64
  %8 = add $out:i64, %7:i64 -> i64
  %9 = store global %14:i32, %8:i64
  %10 = ret
}`,
	not: []int{2, 3, 4, 6, 11, 12, 14},
}, {
	// Lanes above the counter take the side path, which steps by two and
	// goes back to the header before the groups meet again at done: both
	// phis of the header are in the branch's region, and the side trips a
	// lane took differ from lane to lane.
	name: "divergent side re-entering the loop header",
	src: `
kernel reenter(in:i64, out:i64, n:i32) shared 0 {
entry:
  %0 = br head
head:
  %1 = phi [entry 0:i32] [side %5:i32] [latch %7:i32] -> i32
  %2 = phi [entry 0:i32] [side %6:i32] [latch %2:i32] -> i32
  %3 = icmp.lt %1:i32, @lane:i32 -> i1
  %4 = condbr %3:i1, side, latch
side:
  %5 = add %1:i32, 2:i32 -> i32
  %6 = add %2:i32, 1:i32 -> i32
  %10 = br head
latch:
  %7 = add %1:i32, 1:i32 -> i32
  %8 = icmp.lt %7:i32, 20:i32 -> i1
  %9 = condbr %8:i1, head, done
done:
  %11 = sext @tid:i32 -> i64
  %12 = mul %11:i64, 4:i64 -> i64
  %13 = add $out:i64, %12:i64 -> i64
  %14 = store global %2:i32, %13:i64
  %15 = ret
}`,
	not: []int{1, 2, 3, 5, 6, 7, 8},
}, {
	// Threads from 20 on return at once (ipdom -1): the rest run a loop whose
	// counter, shared addresses, loads and compare stay invariant, because
	// the returned lanes never rejoin them.
	name: "early tid return",
	src: `
kernel early(in:i64, out:i64, n:i32) shared 64 {
entry:
  %0 = icmp.ge @tid:i32, 20:i32 -> i1
  %1 = condbr %0:i1, gone, work
gone:
  %2 = ret
work:
  %3 = br loop
loop:
  %4 = phi [work 0:i32] [loop %10:i32] -> i32
  %5 = phi [work 0:i32] [loop %9:i32] -> i32
  %6 = sext %4:i32 -> i64
  %7 = mul %6:i64, 4:i64 -> i64
  %8 = add %7:i64, 0:i64 -> i64
  %20 = store shared %4:i32, %8:i64
  %21 = load shared %8:i64 -> i32
  %9 = add %5:i32, %21:i32 -> i32
  %10 = add %4:i32, 1:i32 -> i32
  %11 = icmp.lt %10:i32, 16:i32 -> i1
  %12 = condbr %11:i1, loop, store
store:
  %13 = mul %9:i32, @bid:i32 -> i32
  %14 = add %13:i32, $n:i32 -> i32
  %15 = sext @tid:i32 -> i64
  %16 = mul %15:i64, 4:i64 -> i64
  %17 = add $out:i64, %16:i64 -> i64
  %18 = store global %14:i32, %17:i64
  %19 = ret
}`,
	inv:    []int{4, 5, 6, 7, 8, 9, 10, 11, 13, 14, 21},
	not:    []int{0, 15, 16, 17},
	scalar: []int{4, 5, 8, 9, 10, 13, 21},
}, {
	// Threads below 16 go round the loop again, redefining its counter at the
	// header; the others leave for a loop of their own that reads it. The
	// branch's ipdom is -1, so the low group runs to its end — its last trip
	// leaves the counter at 9 — before the high group resumes with the 0 it
	// left with: one word for both would hand it the 9.
	name: "two rets sharing a loop counter",
	src: `
kernel tworet(in:i64, out:i64, n:i32) shared 0 {
entry:
  %0 = br head
head:
  %1 = phi [entry 0:i32] [back %4:i32] -> i32
  %2 = icmp.lt @tid:i32, 16:i32 -> i1
  %3 = condbr %2:i1, back, side
back:
  %4 = add %1:i32, 1:i32 -> i32
  %5 = icmp.lt %4:i32, 10:i32 -> i1
  %6 = condbr %5:i1, head, done
done:
  %7 = sext @tid:i32 -> i64
  %8 = mul %7:i64, 4:i64 -> i64
  %9 = add $out:i64, %8:i64 -> i64
  %10 = store global %4:i32, %9:i64
  %11 = ret
side:
  %12 = br sideloop
sideloop:
  %13 = phi [side 7:i32] [sideloop %15:i32] -> i32
  %14 = phi [side 0:i32] [sideloop %16:i32] -> i32
  %15 = add %13:i32, %1:i32 -> i32
  %16 = add %14:i32, 1:i32 -> i32
  %17 = icmp.lt %16:i32, 4:i32 -> i1
  %18 = condbr %17:i1, sideloop, sidedone
sidedone:
  %19 = sext @tid:i32 -> i64
  %20 = mul %19:i64, 4:i64 -> i64
  %21 = add $out:i64, %20:i64 -> i64
  %22 = store global %15:i32, %21:i64
  %23 = ret
}`,
	not: []int{1, 2, 4, 13, 15},
}, {
	// A loop of 20 000 trips — past the non-termination witness's first copy
	// at 2^14 retreats — whose only moving state is its counter, in words of
	// the scalar file: its lanes never change, so a witness that compared
	// lanes alone would call the loop a runaway.
	name:    "loop moving only words",
	noCheck: true,
	src: `
kernel quiet(in:i64, out:i64, n:i32) shared 0 {
entry:
  %0 = br loop
loop:
  %1 = phi [entry 0:i32] [loop %2:i32] -> i32
  %2 = add %1:i32, 1:i32 -> i32
  %3 = icmp.lt %2:i32, 20000:i32 -> i1
  %4 = condbr %3:i1, loop, done
done:
  %5 = add %2:i32, 0:i32 -> i32
  %6 = sext @tid:i32 -> i64
  %7 = mul %6:i64, 4:i64 -> i64
  %8 = add $out:i64, %7:i64 -> i64
  %9 = store global %5:i32, %8:i64
  %10 = ret
}`,
	inv:    []int{1, 2, 5},
	scalar: []int{1, 2},
}}

// TestLaneInvarianceIsSound holds the lane-invariance analysis to its rules
// on a kernel for each way invariance must die — a phi at the ipdom of a tid
// branch, a loop counter read after a tid-dependent exit, a divergent side
// that re-enters the loop header before it reconverges, the two sides of a
// branch that never reconverge touching one slot — for the one exemption, an
// early tid return, and for the non-termination witness over a loop that
// moves only words. It checks the classification and the homes value by
// value, and that the two backends agree bit for bit with the run-time check
// of every invariance claim on, under full, ragged and partial warps.
func TestLaneInvarianceIsSound(t *testing.T) {
	defer CheckLaneInvariance(CheckLaneInvariance(true))
	input := make([]int32, 8)
	for _, tc := range invarianceCases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := ir.Parse("module sound\n" + tc.src)
			if err != nil {
				t.Fatal(err)
			}
			f := m.Funcs[0]
			_, home := laneInvariance(t, f)
			for _, uid := range tc.inv {
				if home[uid] == homeLanes {
					t.Errorf("%%%d is not held lane-invariant", uid)
				}
			}
			for _, uid := range tc.not {
				if home[uid] != homeLanes {
					t.Errorf("%%%d is held lane-invariant (home %d)", uid, home[uid])
				}
			}
			for _, uid := range tc.scalar {
				if home[uid] != homeScalar {
					t.Errorf("%%%d has home %d, not its word alone", uid, home[uid])
				}
			}
			defer CheckLaneInvariance(CheckLaneInvariance(!tc.noCheck))
			for _, geom := range []struct{ grid, block int }{{1, 32}, {2, 64}, {3, 40}} {
				ri, memI := runBackend(t, f, BackendInterp, geom.grid, geom.block, input)
				rt, memT := runBackend(t, f, BackendThreaded, geom.grid, geom.block, input)
				for i := range ri {
					if ri[i].Cycles != rt[i].Cycles || ri[i].DynInstrs != rt[i].DynInstrs {
						t.Errorf("%dx%d launch %d: interp %v cycles / %d instrs, threaded %v / %d", geom.grid, geom.block, i,
							ri[i].Cycles, ri[i].DynInstrs, rt[i].Cycles, rt[i].DynInstrs)
					}
				}
				if !bytes.Equal(memI, memT) {
					t.Errorf("%dx%d: memory images differ", geom.grid, geom.block)
				}
			}
		})
	}
}

// TestLaneInvarianceCoversMemset pins the traffic the analysis exists for.
// ADEPT-V0's memset loop (Section VI-C) — every thread storing zero to the
// same shared word, three times a trip — must keep its three store
// addresses, k+1 and the loop's compare lane-invariant, so that its stores
// are broadcasts without an address scan and its address arithmetic and
// compare run once; and k, k+1 and the three addresses must live in words
// alone, so that no write of them fills 32 lanes. A more conservative rule
// would take either away without failing anything else. And on every kernel
// of internal/kernels no value computed from tid or lane may be held
// invariant, let alone live in a word.
func TestLaneInvarianceCoversMemset(t *testing.T) {
	f := kernels.ADEPTModule(kernels.ADEPTV0).Func("sw_forward")
	k, home := laneInvariance(t, f)
	var loop *ir.Block
	for _, b := range f.Blocks {
		if b.Name == "init_head" {
			loop = b
		}
	}
	if loop == nil {
		t.Fatal("ADEPT-V0 has no init_head block")
	}
	for _, in := range loop.Instrs {
		h, ok := home[in.UID]
		if !ok {
			continue
		}
		if h == homeLanes {
			t.Errorf("memset loop: %%%d (%s) is not held lane-invariant", in.UID, in.Op)
		}
		// k (the phi), the three addresses (their adds) and k+1.
		if (in.Op == ir.OpPhi || in.Op == ir.OpAdd) && h != homeScalar {
			t.Errorf("memset loop: %%%d (%s) has home %d, not its word alone", in.UID, in.Op, h)
		}
	}
	var stores, mulAdds, adds, cmpBrs int
	for bi := range k.blocks {
		if k.blocks[bi].name != "init_head" {
			continue
		}
		for _, u := range k.blocks[bi].uops {
			switch {
			case u.code == uStoreS4:
				stores++
			case u.code == uMulAdd64:
				mulAdds++
			case u.code == uAdd32:
				adds++
			case isFusedCmpBr(u.code):
				cmpBrs++
			default:
				continue
			}
			if !u.inv {
				t.Errorf("memset loop: uop %d (code %d) not marked lane-invariant", u.uid, u.code)
			}
			if writesDst(u.code) && u.lanes {
				t.Errorf("memset loop: uop %d (code %d) fills the lanes of its destination", u.uid, u.code)
			}
		}
	}
	if stores != 3 || mulAdds != 3 || adds != 1 || cmpBrs != 1 {
		t.Errorf("memset loop lowered to %d shared stores, %d mul-adds, %d adds, %d compare-branches; want 3, 3, 1, 1",
			stores, mulAdds, adds, cmpBrs)
	}

	mods := []*ir.Module{kernels.ADEPTModule(kernels.ADEPTV0), kernels.ADEPTModule(kernels.ADEPTV1),
		kernels.SIMCoVModule(false), kernels.SIMCoVModule(true)}
	for _, m := range mods {
		for _, f := range m.Funcs {
			_, home := laneInvariance(t, f)
			for uid, derived := range laneDerived(f) {
				if derived && home[uid] != homeLanes {
					t.Errorf("%s/%s: %%%d is computed from tid or lane but held lane-invariant (home %d)", m.Name, f.Name, uid, home[uid])
				}
			}
		}
	}
}

// laneDerived returns the UIDs of f whose value is computed, through operands
// and phi incomings, from the tid or lane special register.
func laneDerived(f *ir.Function) map[int]bool {
	derived := make(map[int]bool)
	from := func(o ir.Operand) bool {
		switch o.Kind {
		case ir.OperSpecial:
			return ir.Special(o.Index) == ir.SpecialTID || ir.Special(o.Index) == ir.SpecialLane
		case ir.OperInstr:
			return derived[o.Ref]
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, in := range f.Instructions() {
			if derived[in.UID] || in.Typ == ir.Void {
				continue
			}
			for _, a := range in.Args {
				derived[in.UID] = derived[in.UID] || from(a)
			}
			for _, inc := range in.Inc {
				derived[in.UID] = derived[in.UID] || from(inc.Val)
			}
			changed = changed || derived[in.UID]
		}
	}
	return derived
}
