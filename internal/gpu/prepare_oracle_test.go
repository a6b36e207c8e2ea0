package gpu_test

import (
	"bytes"
	"errors"
	"math"
	"os"
	"strings"
	"testing"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/rng"
	"gevo/internal/synth"
)

// mutantCorpus is the corpus of internal/ir's TestCFGMatchesOracles: the
// hand-written control-flow shapes of ir/testdata/cfg_corpus.ir, the paper
// kernels and one scenario per synth family, each followed by a seeded chain
// of mutants (cond-br deletes strand blocks and leave stale phi incomings).
func mutantCorpus(t *testing.T, perBase int) []*ir.Module {
	t.Helper()
	text, err := os.ReadFile("../ir/testdata/cfg_corpus.ir")
	if err != nil {
		t.Fatal(err)
	}
	hand, err := ir.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	bases := []*ir.Module{hand, kernels.ADEPTModule(kernels.ADEPTV0), kernels.ADEPTModule(kernels.ADEPTV1),
		kernels.SIMCoVModule(false), kernels.SIMCoVModule(true)}
	for _, fam := range synth.Families() {
		w, err := synth.New(synth.Spec{Family: fam, Seed: 2})
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, w.Base())
	}
	var out []*ir.Module
	for bi, base := range bases {
		out = append(out, base)
		r := rng.New(uint64(bi) + 41)
		var g []core.Edit
		for i := 0; i < perBase; i++ {
			if g = core.Mutate(base, g, r); len(g) > 6 {
				g = nil
			}
			out = append(out, core.Variant(base, g))
		}
	}
	return out
}

// TestPrepareMatchesOracles runs the mutant corpus through the one-index
// prepare pipeline with the compiled-program audit on: the dense liveness
// pass must agree with the map-based oracle on every function (and size its
// arenas exactly), Prepare must reject what Module.Verify rejects with the
// verifier's error, and every program it builds must pass VerifyProgram and
// run the same under both backends (launchBoth) with every lane-invariance
// claim checked as it executes.
func TestPrepareMatchesOracles(t *testing.T) {
	defer gpu.SetVerifyCompiled(gpu.SetVerifyCompiled(true))
	defer gpu.CheckLaneInvariance(gpu.CheckLaneInvariance(true))
	accepted, rejected := 0, 0
	for _, m := range mutantCorpus(t, 60) {
		for _, f := range m.Funcs {
			want := gpu.LiveOracle(f)
			live, nins, nargs, err := gpu.Live(f)
			if err != nil {
				t.Fatalf("%s/%s: %v", m.Name, f.Name, err)
			}
			wantIns, wantArgs := 0, 0
			for _, in := range f.Instructions() {
				if live[in.UID] != want[in.UID] {
					t.Fatalf("%s/%s: %%%d (%s) live=%v, oracle says %v", m.Name, f.Name, in.UID, in.Op, live[in.UID], want[in.UID])
				}
				if want[in.UID] && in.Op != ir.OpPhi {
					wantIns++
					wantArgs += len(in.Args)
				}
			}
			if nins != wantIns || nargs != wantArgs {
				t.Fatalf("%s/%s: arenas sized for %d instructions, %d operands; live set has %d, %d",
					m.Name, f.Name, nins, nargs, wantIns, wantArgs)
			}
		}
		verr := m.Verify()
		prog, err := gpu.NewProgramCache().Prepare(m)
		switch {
		case verr != nil:
			rejected++
			if !errors.Is(err, ir.ErrInvalid) || err.Error() != verr.Error() {
				t.Fatalf("%s: Verify says %q, Prepare says %v", m.Name, verr, err)
			}
		case err != nil:
			// Verify tolerates anything in an unreachable block; the compiler
			// lowers those blocks too and may find a use of a deleted value.
			// What it must never report here is an audit failure.
			if !strings.HasPrefix(err.Error(), "gpu: compile ") {
				t.Fatalf("%s: verifies but Prepare fails: %v", m.Name, err)
			}
		default:
			accepted++
			if len(prog.Kernels) != len(m.Funcs) {
				t.Fatalf("%s: %d kernels for %d functions", m.Name, len(prog.Kernels), len(m.Funcs))
			}
			for _, f := range m.Funcs {
				launchBoth(t, m.Name, prog.Kernels[f.Name])
			}
		}
	}
	if accepted < 100 || rejected < 100 {
		t.Fatalf("corpus too one-sided to mean anything: %d accepted, %d rejected", accepted, rejected)
	}
}

// launchBoth launches k under the interpreter and under the threaded backend,
// each on a fresh arena of small i32 words with every pointer parameter
// inside it and every integer parameter 24, over two blocks of 40 threads (a
// full and a ragged warp) and a budget most runaways reach quickly, and fails
// unless both end in the same error or the same cycles, instruction count
// and memory.
func launchBoth(t *testing.T, name string, k *gpu.Kernel) {
	t.Helper()
	const arena = 1 << 13
	var res [2]*gpu.Result
	var errs [2]error
	var mems [2][]byte
	for i, b := range []gpu.Backend{gpu.BackendInterp, gpu.BackendThreaded} {
		d := gpu.NewDeviceWithMem(gpu.P100, arena)
		base, err := d.Alloc(arena)
		if err != nil {
			t.Fatal(err)
		}
		words := make([]int32, arena/4)
		for w := range words {
			words[w] = int32(w*7) % 61
		}
		if err := d.WriteI32s(base, words); err != nil {
			t.Fatal(err)
		}
		args := make([]uint64, len(k.Params))
		for p, typ := range k.Params {
			switch typ {
			case ir.I64:
				args[p] = uint64(base) + uint64(p)*512
			case ir.F64:
				args[p] = math.Float64bits(1.5)
			default:
				args[p] = 24
			}
		}
		res[i], errs[i] = d.Launch(k, gpu.LaunchConfig{Grid: 2, Block: 40, Args: args, MaxDynInstr: 1 << 15, Backend: b})
		if mems[i], err = d.ReadBytes(base, arena); err != nil {
			t.Fatal(err)
		}
	}
	switch {
	case (errs[0] == nil) != (errs[1] == nil) || errs[0] != nil && errs[0].Error() != errs[1].Error():
		t.Fatalf("%s/%s: interp %v, threaded %v", name, k.Name, errs[0], errs[1])
	case errs[0] == nil && (res[0].Cycles != res[1].Cycles || res[0].DynInstrs != res[1].DynInstrs):
		t.Fatalf("%s/%s: interp %v cycles / %d instrs, threaded %v / %d", name, k.Name,
			res[0].Cycles, res[0].DynInstrs, res[1].Cycles, res[1].DynInstrs)
	case !bytes.Equal(mems[0], mems[1]):
		t.Fatalf("%s/%s: memory differs between the backends (error %v)", name, k.Name, errs[0])
	}
}

// TestPrepareAllocations is the allocation guard on the prepare path: a cold
// verify+compile of a synth reduce kernel (143 instructions, 18 blocks)
// allocates per kernel, not per instruction or per UID. Measured 71
// allocations after the prepare path moved to one CFG, dense per-UID and
// per-slot tables and per-kernel arenas (59 since escapes run through the
// interpreter and have no closures); before that the path, with its two dozen
// maps and per-instruction appends, measured 748. The bound is
// 1.25 x 71, so a reintroduced per-UID map or per-instruction slice fails
// here instead of quietly costing a search round 15 %.
func TestPrepareAllocations(t *testing.T) {
	// The bound prices verify+compile; GEVO_VERIFY_COMPILED=1 adds the
	// compiled-program audit to every Prepare, which is not what is guarded.
	defer gpu.SetVerifyCompiled(gpu.SetVerifyCompiled(false))
	w, err := synth.New(synth.Spec{Family: "reduce", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := w.Base()
	const limit = 88
	got := testing.AllocsPerRun(50, func() {
		if _, err := gpu.NewProgramCache().Prepare(base); err != nil {
			t.Fatal(err)
		}
	})
	if got > limit {
		t.Errorf("cold Prepare of %s: %v allocations, want <= %d", base.Name, got, limit)
	}
}
