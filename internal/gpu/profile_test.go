package gpu

import (
	"math"
	"reflect"
	"testing"

	"gevo/internal/ir"
)

// buildProfiled builds a tiny kernel with a known instruction mix: a cheap
// add, an expensive divide, and a store, all fully active.
func buildProfiled() *ir.Function {
	b := ir.NewBuilder("profiled")
	out := b.Param("out", ir.I64)
	b.Block("entry")
	tid := b.Special(ir.SpecialTID)
	sum := b.Add(tid, b.I32(1))
	q := b.SDiv(sum, b.I32(3))
	b.Store(ir.SpaceGlobal, q, b.GlobalIdx(out, tid, 4))
	b.Ret()
	return b.Finish()
}

// profiledLaunch runs one profiled launch of k on a fresh device under the
// backend: args allocates the kernel's buffers and returns its arguments.
func profiledLaunch(t *testing.T, k *Kernel, backend Backend, grid, block int, args func(d *Device) []uint64) (*Profile, *Result) {
	t.Helper()
	d := NewDeviceWithMem(P100, 1<<14)
	prof := NewProfile(k)
	res, err := d.Launch(k, LaunchConfig{Grid: grid, Block: block, Args: args(d), Backend: backend, Profile: prof})
	if err != nil {
		t.Fatalf("%s under backend %d: %v", k.Name, backend, err)
	}
	return prof, res
}

func mustAlloc(t *testing.T, d *Device, n int) uint64 {
	t.Helper()
	a, err := d.Alloc(n)
	if err != nil {
		t.Fatal(err)
	}
	return uint64(a)
}

// TestProfileCountersAndTop checks the profile's counters and ranking, and
// that the threaded driver records the profile the interpreter records, bit
// for bit: on buildProfiled, on buildColdSoup (escapes and atomics, which
// record through the interpreter's account, between micro-ops the driver
// records per run) and on buildBarrierLoop with one warp per block (the
// driver's in-place barrier release).
func TestProfileCountersAndTop(t *testing.T) {
	out := func(d *Device) []uint64 { return []uint64{mustAlloc(t, d, 4*256)} }
	input := make([]int32, 40)
	for i := range input {
		input[i] = int32(i*7919%1000 - 300)
	}
	soupArgs := func(d *Device) []uint64 {
		in := mustAlloc(t, d, 4*len(input))
		if err := d.WriteI32s(int64(in), input); err != nil {
			t.Fatal(err)
		}
		return []uint64{in, mustAlloc(t, d, 4*1024), uint64(len(input))}
	}
	for _, tc := range []struct {
		f           *ir.Function
		grid, block int
		args        func(d *Device) []uint64
	}{
		{buildProfiled(), 2, 32, out},
		{buildColdSoup(), 1, 48, soupArgs},
		{buildBarrierLoop(), 2, 20, out},
	} {
		k := mustCompile(t, tc.f)
		want, wantRes := profiledLaunch(t, k, BackendInterp, tc.grid, tc.block, tc.args)
		got, gotRes := profiledLaunch(t, k, BackendThreaded, tc.grid, tc.block, tc.args)
		if gotRes.Cycles != wantRes.Cycles {
			t.Errorf("%s: threaded %v cycles, interpreted %v", k.Name, gotRes.Cycles, wantRes.Cycles)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: threaded profile differs from the interpreter's:\n got %+v\nwant %+v", k.Name, *got, *want)
		}
		if want.SumCycles() <= 0 {
			t.Errorf("%s: the interpreter recorded no cycles", k.Name)
		}
		switch k.Name {
		case "profiled":
			checkProfileCounters(t, want, wantRes)
			checkProfileCounters(t, got, gotRes)
		case "barrier_loop":
			if want.BarrierCycles <= 0 {
				t.Errorf("%s: no barrier cycles recorded", k.Name)
			}
		}
	}
}

// checkProfileCounters checks buildProfiled's profile of a 2 x 32 launch.
func checkProfileCounters(t *testing.T, prof *Profile, res *Result) {
	t.Helper()
	if prof.Launches != 1 {
		t.Errorf("Launches = %d, want 1", prof.Launches)
	}
	if prof.TotalCycles != res.Cycles {
		t.Errorf("TotalCycles = %v, want %v", prof.TotalCycles, res.Cycles)
	}

	// SumCycles attributes every accounted cycle to a UID; with one block
	// per SM the makespan is a single block's cycles, so the per-grid sum
	// is twice that (2 blocks) and must exceed the makespan.
	if s := prof.SumCycles(); s <= res.Cycles {
		t.Errorf("SumCycles = %v, want > makespan %v", s, res.Cycles)
	}

	// Every executed instruction ran once per warp per block (2 blocks x 1
	// warp, no divergence), with all 32 lanes active.
	for _, hs := range prof.Top(0) {
		if c := prof.Count(hs.UID); c != 2 {
			t.Errorf("uid %d Count = %d, want 2", hs.UID, c)
		}
		if l := prof.Lanes(hs.UID); l != 64 {
			t.Errorf("uid %d Lanes = %d, want 64", hs.UID, l)
		}
		if hs.Cycles != prof.Cycles(hs.UID) {
			t.Errorf("uid %d HotSpot cycles %v != Cycles() %v", hs.UID, hs.Cycles, prof.Cycles(hs.UID))
		}
	}

	// Top must rank by attributed cycles, descending, and Frac must sum to
	// one across the full ranking.
	top := prof.Top(0)
	if len(top) == 0 {
		t.Fatal("empty profile ranking")
	}
	var frac float64
	for i, hs := range top {
		if i > 0 && hs.Cycles > top[i-1].Cycles {
			t.Errorf("Top not sorted at %d: %v after %v", i, hs.Cycles, top[i-1].Cycles)
		}
		frac += hs.Frac
	}
	if math.Abs(frac-1) > 1e-9 {
		t.Errorf("Top fractions sum to %v, want 1", frac)
	}

	// Top(n) truncates; the truncated head matches the full ranking.
	if got := prof.Top(2); len(got) != 2 || got[0] != top[0] || got[1] != top[1] {
		t.Errorf("Top(2) = %v, want head of %v", got, top[:2])
	}

	// The divide must out-cost the add: IssueDiv dominates IssueALU on
	// every architecture.
	if top[0].Cycles <= 0 {
		t.Error("hottest instruction has no cycles")
	}

	// Out-of-range UIDs are safe zeros.
	if prof.Cycles(-1) != 0 || prof.Count(9999) != 0 || prof.Lanes(9999) != 0 {
		t.Error("out-of-range UID accessors must return 0")
	}
}

func TestScheduleBlocksEdgeCases(t *testing.T) {
	// Zero blocks: an empty grid takes no time regardless of SM count.
	if got := scheduleBlocks(nil, make([]float64, 4), nil); got != 0 {
		t.Errorf("zero blocks makespan = %v, want 0", got)
	}

	// More SMs than blocks: every block gets its own SM, so the makespan
	// is the single slowest block.
	blocks := []float64{10, 30, 20}
	if got := scheduleBlocks(blocks, make([]float64, 8), nil); got != 30 {
		t.Errorf("SMs>blocks makespan = %v, want 30", got)
	}

	// One SM serializes everything.
	if got := scheduleBlocks(blocks, make([]float64, 1), nil); got != 60 {
		t.Errorf("1-SM makespan = %v, want 60", got)
	}

	// Greedy earliest-finish-first packing: 4 blocks on 2 SMs.
	blocks = []float64{8, 6, 4, 2}
	// SM0: 8, then +2 = 10; SM1: 6, then +4 = 10.
	if got := scheduleBlocks(blocks, make([]float64, 2), nil); got != 10 {
		t.Errorf("2-SM makespan = %v, want 10", got)
	}
}
