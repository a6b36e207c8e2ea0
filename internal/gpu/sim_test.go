package gpu

import (
	"errors"
	"testing"

	"gevo/internal/ir"
)

// buildVecAdd builds: out[i] = a[i] + b[i] for i = bid*bdim + tid < n.
func buildVecAdd() *ir.Function {
	b := ir.NewBuilder("vecadd")
	pa := b.Param("a", ir.I64)
	pb := b.Param("b", ir.I64)
	po := b.Param("out", ir.I64)
	pn := b.Param("n", ir.I32)

	b.Block("entry")
	bid := b.Special(ir.SpecialBID)
	bdim := b.Special(ir.SpecialBDim)
	tid := b.Special(ir.SpecialTID)
	i := b.Add(b.Mul(bid, bdim), tid)
	inb := b.ICmp(ir.PredLT, i, pn)
	b.CondBr(inb, "body", "exit")

	b.Block("body")
	av := b.Load(ir.I32, ir.SpaceGlobal, b.GlobalIdx(pa, i, 4))
	bv := b.Load(ir.I32, ir.SpaceGlobal, b.GlobalIdx(pb, i, 4))
	sum := b.Add(av, bv)
	b.Store(ir.SpaceGlobal, sum, b.GlobalIdx(po, i, 4))
	b.Br("exit")

	b.Block("exit")
	b.Ret()
	return b.Finish()
}

func mustCompile(t *testing.T, f *ir.Function) *Kernel {
	t.Helper()
	if err := f.Verify(); err != nil {
		t.Fatalf("verify: %v", err)
	}
	k, err := Compile(f)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return k
}

func TestVecAdd(t *testing.T) {
	f := buildVecAdd()
	k := mustCompile(t, f)
	d := NewDevice(P100)

	const n = 1000
	a := make([]int32, n)
	bb := make([]int32, n)
	for i := range a {
		a[i] = int32(i)
		bb[i] = int32(2 * i)
	}
	pa, _ := d.Alloc(4 * n)
	pbuf, _ := d.Alloc(4 * n)
	po, _ := d.Alloc(4 * n)
	if err := d.WriteI32s(pa, a); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteI32s(pbuf, bb); err != nil {
		t.Fatal(err)
	}

	res, err := d.Launch(k, LaunchConfig{
		Grid: (n + 255) / 256, Block: 256,
		Args: []uint64{uint64(pa), uint64(pbuf), uint64(po), uint64(n)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles <= 0 || res.TimeMS <= 0 {
		t.Errorf("expected positive time, got %v cycles %v ms", res.Cycles, res.TimeMS)
	}
	out, err := d.ReadI32s(po, n)
	if err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if out[i] != int32(3*i) {
			t.Fatalf("out[%d] = %d, want %d", i, out[i], 3*i)
		}
	}
}

// TestDivergence checks that a divergent branch computes both sides
// correctly and costs more than a uniform branch.
func TestDivergence(t *testing.T) {
	build := func(divergent bool) *ir.Function {
		b := ir.NewBuilder("div")
		po := b.Param("out", ir.I64)
		b.Block("entry")
		tid := b.Special(ir.SpecialTID)
		var cond ir.Operand
		if divergent {
			cond = b.ICmp(ir.PredEQ, b.And(tid, b.I32(1)), b.I32(0)) // per-lane
		} else {
			cond = b.ICmp(ir.PredGE, tid, b.I32(0)) // uniform true
		}
		b.CondBr(cond, "then", "else")
		b.Block("then")
		thenV := b.Add(tid, b.I32(100))
		b.Br("join")
		b.Block("else")
		elseV := b.Add(tid, b.I32(200))
		b.Br("join")
		b.Block("join")
		phi := b.Phi(ir.I32, ir.Incoming{Block: "then", Val: thenV}, ir.Incoming{Block: "else", Val: elseV})
		b.Store(ir.SpaceGlobal, phi.Result(), b.GlobalIdx(po, tid, 4))
		b.Ret()
		return b.Finish()
	}

	d := NewDevice(P100)
	po, _ := d.Alloc(4 * 32)

	kd := mustCompile(t, build(true))
	rd, err := d.Launch(kd, LaunchConfig{Grid: 1, Block: 32, Args: []uint64{uint64(po)}})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d.ReadI32s(po, 32)
	for i, v := range out {
		want := int32(i + 200)
		if i%2 == 0 {
			want = int32(i + 100)
		}
		if v != want {
			t.Fatalf("divergent out[%d] = %d, want %d", i, v, want)
		}
	}

	ku := mustCompile(t, build(false))
	ru, err := d.Launch(ku, LaunchConfig{Grid: 1, Block: 32, Args: []uint64{uint64(po)}})
	if err != nil {
		t.Fatal(err)
	}
	if rd.Cycles <= ru.Cycles {
		t.Errorf("divergent branch should cost more: divergent %v vs uniform %v", rd.Cycles, ru.Cycles)
	}
}

// TestLoopPhi checks loop execution with a phi induction variable:
// out[tid] = sum(0..tid).
func TestLoopPhi(t *testing.T) {
	b := ir.NewBuilder("loop")
	po := b.Param("out", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	b.Br("loop")

	b.Block("loop")
	iPhi := b.Phi(ir.I32)
	sPhi := b.Phi(ir.I32)
	iNext := b.Add(iPhi.Result(), b.I32(1))
	sNext := b.Add(sPhi.Result(), iPhi.Result())
	done := b.ICmp(ir.PredGE, iNext, tid)
	b.CondBr(done, "exit", "loop")
	b.AddIncoming(iPhi, "entry", b.I32(0))
	b.AddIncoming(iPhi, "loop", iNext)
	b.AddIncoming(sPhi, "entry", b.I32(0))
	b.AddIncoming(sPhi, "loop", sNext)

	b.Block("exit")
	sFinal := b.Phi(ir.I32, ir.Incoming{Block: "loop", Val: sNext})
	b.Store(ir.SpaceGlobal, sFinal.Result(), b.GlobalIdx(po, tid, 4))
	b.Ret()

	k := mustCompile(t, b.Finish())
	d := NewDevice(V100)
	po64, _ := d.Alloc(4 * 64)
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 64, Args: []uint64{uint64(po64)}}); err != nil {
		t.Fatal(err)
	}
	out, _ := d.ReadI32s(po64, 64)
	for i, v := range out {
		want := int32(0)
		for j := 0; j < i; j++ {
			want += int32(j)
		}
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
}

// TestBarrierExchange checks shared memory + __syncthreads: each thread
// reads its neighbour's value written before the barrier.
func TestBarrierExchange(t *testing.T) {
	b := ir.NewBuilder("exchange")
	po := b.Param("out", ir.I64)
	sh := b.SharedArray("sh", 256, 4)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	b.Store(ir.SpaceShared, b.Mul(tid, b.I32(10)), b.SharedAddr(sh, tid, 4))
	b.Barrier()
	next := b.SRem(b.Add(tid, b.I32(1)), b.Special(ir.SpecialBDim))
	v := b.Load(ir.I32, ir.SpaceShared, b.SharedAddr(sh, next, 4))
	b.Store(ir.SpaceGlobal, v, b.GlobalIdx(po, tid, 4))
	b.Ret()

	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	po64, _ := d.Alloc(4 * 256)
	res, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 256, Args: []uint64{uint64(po64)}})
	if err != nil {
		t.Fatal(err)
	}
	out, _ := d.ReadI32s(po64, 256)
	for i, v := range out {
		want := int32(((i + 1) % 256) * 10)
		if v != want {
			t.Fatalf("out[%d] = %d, want %d", i, v, want)
		}
	}
	// 8 warps crossing one barrier must include the barrier cost.
	if res.Cycles < P100.BarrierCost {
		t.Errorf("cycles %v too low to include barrier", res.Cycles)
	}
}

// TestShfl checks __shfl_sync lane exchange.
func TestShfl(t *testing.T) {
	b := ir.NewBuilder("shfl")
	po := b.Param("out", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	lane := b.Special(ir.SpecialLane)
	src := b.Sub(lane, b.I32(1)) // lane-1; lane 0 wraps to 31 via mask
	v := b.Shfl(b.Mul(tid, b.I32(3)), src)
	b.Store(ir.SpaceGlobal, v, b.GlobalIdx(po, tid, 4))
	b.Ret()

	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	po64, _ := d.Alloc(4 * 32)
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 32, Args: []uint64{uint64(po64)}}); err != nil {
		t.Fatal(err)
	}
	out, _ := d.ReadI32s(po64, 32)
	for i, v := range out {
		srcLane := (i - 1) & 31
		if v != int32(srcLane*3) {
			t.Fatalf("out[%d] = %d, want %d", i, v, srcLane*3)
		}
	}
}

// TestBallotActiveMask checks warp queries under divergence.
func TestBallotActiveMask(t *testing.T) {
	b := ir.NewBuilder("ballot")
	po := b.Param("out", ir.I64)
	pm := b.Param("outmask", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	lane := b.Special(ir.SpecialLane)
	odd := b.ICmp(ir.PredEQ, b.And(lane, b.I32(1)), b.I32(1))
	b.CondBr(odd, "oddpath", "join")
	b.Block("oddpath")
	am := b.ActiveMask()
	bal := b.Ballot(b.ICmp(ir.PredLT, lane, b.I32(16)))
	b.Store(ir.SpaceGlobal, am, b.GlobalIdx(po, tid, 4))
	b.Store(ir.SpaceGlobal, bal, b.GlobalIdx(pm, tid, 4))
	b.Br("join")
	b.Block("join")
	b.Ret()

	k := mustCompile(t, b.Finish())
	d := NewDevice(V100)
	po64, _ := d.Alloc(4 * 32)
	pm64, _ := d.Alloc(4 * 32)
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 32, Args: []uint64{uint64(po64), uint64(pm64)}}); err != nil {
		t.Fatal(err)
	}
	amOut, _ := d.ReadI32s(po64, 32)
	balOut, _ := d.ReadI32s(pm64, 32)
	oddMask := int32(-1431655766) // 0xAAAAAAAA: odd lanes
	wantBallot := int32(0x0000AAAA)
	for i := 1; i < 32; i += 2 {
		if amOut[i] != oddMask {
			t.Fatalf("activemask[%d] = %#x, want %#x", i, uint32(amOut[i]), uint32(oddMask))
		}
		if balOut[i] != wantBallot {
			t.Fatalf("ballot[%d] = %#x, want %#x", i, uint32(balOut[i]), uint32(wantBallot))
		}
	}
	for i := 0; i < 32; i += 2 {
		if amOut[i] != 0 {
			t.Fatalf("even lane %d wrote activemask %#x", i, uint32(amOut[i]))
		}
	}
}

// TestAtomicAdd checks contended atomics produce the exact sum.
func TestAtomicAdd(t *testing.T) {
	b := ir.NewBuilder("atomic")
	po := b.Param("counter", ir.I64)
	b.Block("entry")
	b.AtomicAdd(ir.SpaceGlobal, po, b.I32(1))
	b.Ret()

	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	po64, _ := d.Alloc(4)
	if _, err := d.Launch(k, LaunchConfig{Grid: 4, Block: 128, Args: []uint64{uint64(po64)}}); err != nil {
		t.Fatal(err)
	}
	out, _ := d.ReadI32s(po64, 1)
	if out[0] != 512 {
		t.Fatalf("counter = %d, want 512", out[0])
	}
}

// TestAtomicCAS checks compare-and-swap claims exactly one winner per slot.
func TestAtomicCAS(t *testing.T) {
	b := ir.NewBuilder("cas")
	po := b.Param("slot", ir.I64)
	pw := b.Param("winners", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	old := b.AtomicCAS(ir.SpaceGlobal, po, b.I32(-1), tid)
	won := b.ICmp(ir.PredEQ, old, b.I32(-1))
	b.CondBr(won, "winner", "done")
	b.Block("winner")
	b.AtomicAdd(ir.SpaceGlobal, pw, b.I32(1))
	b.Br("done")
	b.Block("done")
	b.Ret()

	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	slot, _ := d.Alloc(4)
	winners, _ := d.Alloc(4)
	d.WriteI32s(slot, []int32{-1})
	if _, err := d.Launch(k, LaunchConfig{Grid: 2, Block: 64, Args: []uint64{uint64(slot), uint64(winners)}}); err != nil {
		t.Fatal(err)
	}
	w, _ := d.ReadI32s(winners, 1)
	if w[0] != 1 {
		t.Fatalf("winners = %d, want 1", w[0])
	}
	s, _ := d.ReadI32s(slot, 1)
	if s[0] == -1 {
		t.Fatal("slot unclaimed")
	}
}

// TestFault checks that out-of-arena access returns a FaultError.
func TestFault(t *testing.T) {
	b := ir.NewBuilder("oob")
	b.Block("entry")
	b.Store(ir.SpaceGlobal, b.I32(7), b.I64(int64(P100.MemBytes+100)))
	b.Ret()
	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	_, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 32, Args: nil})
	var fe *FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want FaultError, got %v", err)
	}
}

// TestInArenaOOBIsSilent checks the Fig 10b behaviour: access beyond a
// buffer but inside the arena does not fault.
func TestInArenaOOBIsSilent(t *testing.T) {
	b := ir.NewBuilder("slack")
	pbuf := b.Param("buf", ir.I64)
	b.Block("entry")
	// Read 4KB past the buffer base: outside the logical buffer, inside the
	// arena.
	v := b.Load(ir.I32, ir.SpaceGlobal, b.Add(pbuf, b.I64(4096)))
	b.Store(ir.SpaceGlobal, v, pbuf)
	b.Ret()
	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	base, _ := d.Alloc(64) // small buffer; plenty of arena slack beyond
	if _, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 1, Args: []uint64{uint64(base)}}); err != nil {
		t.Fatalf("in-arena OOB should be silent, got %v", err)
	}
}

// TestTimeout checks the dynamic-instruction budget catches infinite loops.
func TestTimeout(t *testing.T) {
	b := ir.NewBuilder("forever")
	b.Block("entry")
	b.Br("entry")
	k := mustCompile(t, b.Finish())
	d := NewDevice(P100)
	_, err := d.Launch(k, LaunchConfig{Grid: 1, Block: 32, MaxDynInstr: 10000})
	var te *TimeoutError
	if !errors.As(err, &te) {
		t.Fatalf("want TimeoutError, got %v", err)
	}
}

// TestCoalescingCost checks strided global access costs more than unit
// stride.
func TestCoalescingCost(t *testing.T) {
	build := func(stride int64) *ir.Function {
		b := ir.NewBuilder("stride")
		pbuf := b.Param("buf", ir.I64)
		b.Block("entry")
		tid := b.Special(ir.SpecialTID)
		addr := b.GlobalIdx(pbuf, b.Mul(tid, b.I32(stride)), 4)
		b.Store(ir.SpaceGlobal, tid, addr)
		b.Ret()
		return b.Finish()
	}
	d := NewDevice(P100)
	base, _ := d.Alloc(4 * 32 * 64)
	args := []uint64{uint64(base)}

	k1 := mustCompile(t, build(1))
	r1, err := d.Launch(k1, LaunchConfig{Grid: 1, Block: 32, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	k32 := mustCompile(t, build(32))
	r32, err := d.Launch(k32, LaunchConfig{Grid: 1, Block: 32, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if r32.Cycles <= r1.Cycles {
		t.Errorf("strided store should cost more: stride32 %v vs stride1 %v", r32.Cycles, r1.Cycles)
	}
}

// TestBankConflictCost checks 32-way shared bank conflicts cost more than
// conflict-free access.
func TestBankConflictCost(t *testing.T) {
	build := func(stride int64) *ir.Function {
		b := ir.NewBuilder("bank")
		sh := b.SharedArray("sh", 32*32, 4)
		po := b.Param("out", ir.I64)
		b.Block("entry")
		tid := b.Special(ir.SpecialTID)
		addr := b.SharedAddr(sh, b.Mul(tid, b.I32(stride)), 4)
		b.Store(ir.SpaceShared, tid, addr)
		v := b.Load(ir.I32, ir.SpaceShared, addr)
		b.Store(ir.SpaceGlobal, v, b.GlobalIdx(po, tid, 4))
		b.Ret()
		return b.Finish()
	}
	d := NewDevice(P100)
	base, _ := d.Alloc(4 * 32)
	args := []uint64{uint64(base)}

	r1, err := d.Launch(mustCompile(t, build(1)), LaunchConfig{Grid: 1, Block: 32, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	r32, err := d.Launch(mustCompile(t, build(32)), LaunchConfig{Grid: 1, Block: 32, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if r32.Cycles <= r1.Cycles {
		t.Errorf("32-way conflict should cost more: %v vs %v", r32.Cycles, r1.Cycles)
	}
}

// TestProfileAttribution checks the profiler attributes cycles to UIDs.
func TestProfileAttribution(t *testing.T) {
	f := buildVecAdd()
	k := mustCompile(t, f)
	d := NewDevice(P100)
	pa, _ := d.Alloc(4 * 256)
	pb, _ := d.Alloc(4 * 256)
	po, _ := d.Alloc(4 * 256)
	prof := NewProfile(k)
	_, err := d.Launch(k, LaunchConfig{
		Grid: 1, Block: 256,
		Args:    []uint64{uint64(pa), uint64(pb), uint64(po), 256},
		Profile: prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	if prof.SumCycles() <= 0 {
		t.Fatal("no cycles attributed")
	}
	top := prof.Top(3)
	if len(top) == 0 {
		t.Fatal("no hotspots")
	}
	// Global loads/stores must dominate a memory-bound kernel.
	in := f.InstrByUID(top[0].UID)
	if in == nil || (in.Op != ir.OpLoad && in.Op != ir.OpStore) {
		t.Errorf("hottest instruction should be a memory op, got %v", in)
	}
}

// TestMultiBlockScheduling checks grid time scales with blocks beyond SM
// count.
func TestMultiBlockScheduling(t *testing.T) {
	f := buildVecAdd()
	k := mustCompile(t, f)
	d := NewDevice(P100)
	n := 256 * P100.SMs * 4
	pa, _ := d.Alloc(4 * n)
	pb, _ := d.Alloc(4 * n)
	po, _ := d.Alloc(4 * n)
	args := []uint64{uint64(pa), uint64(pb), uint64(po), uint64(n)}

	rSmall, err := d.Launch(k, LaunchConfig{Grid: P100.SMs, Block: 256, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	rBig, err := d.Launch(k, LaunchConfig{Grid: P100.SMs * 4, Block: 256, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	ratio := rBig.Cycles / rSmall.Cycles
	if ratio < 3.5 || ratio > 4.5 {
		t.Errorf("4x blocks should take ~4x time, got ratio %.2f", ratio)
	}
}

func TestScheduleBlocks(t *testing.T) {
	sms := func(n int) []float64 { return make([]float64, n) }
	if got := scheduleBlocks(nil, sms(4), nil); got != 0 {
		t.Errorf("empty schedule = %v, want 0", got)
	}
	if got := scheduleBlocks([]float64{10, 10, 10, 10}, sms(2), nil); got != 20 {
		t.Errorf("schedule = %v, want 20", got)
	}
	if got := scheduleBlocks([]float64{30, 10, 10, 10}, sms(2), nil); got != 30 {
		t.Errorf("LPT-ish schedule = %v, want 30", got)
	}
	// Launch clamps the SM count to at least one.
	if got := scheduleBlocks([]float64{5}, sms(1), nil); got != 5 {
		t.Errorf("schedule with 1 SM = %v, want 5", got)
	}
}
