package workload

import (
	"errors"
	"sync"
	"testing"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/simcov"
)

func newTestSIMCoV(t *testing.T, padded bool) *SIMCoV {
	t.Helper()
	s, err := NewSIMCoV(SIMCoVOptions{Seed: 3, W: 32, H: 20, Steps: 24, LargeW: 64, LargeH: 64, Padded: padded})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSIMCoVMatchesReferenceExactly checks the GPU kernels reproduce the CPU
// model step for step (deterministic warp order resolves the T-cell race the
// same way the index-ordered CPU does).
func TestSIMCoVMatchesReferenceExactly(t *testing.T) {
	s := newTestSIMCoV(t, false)
	_, gpuStats, err := s.RunStats(s.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	ref := simcov.New(s.Params).Run(s.Params.Steps)
	if len(gpuStats) != len(ref) {
		t.Fatalf("length mismatch %d vs %d", len(gpuStats), len(ref))
	}
	for i := range ref {
		if gpuStats[i] != ref[i] {
			t.Fatalf("step %d: gpu %+v != ref %+v", i, gpuStats[i], ref[i])
		}
	}
}

// TestSIMCoVPaddedMatchesReference checks the zero-padded layout is
// semantically identical to the reference (absorbing boundary).
func TestSIMCoVPaddedMatchesReference(t *testing.T) {
	s := newTestSIMCoV(t, true)
	_, gpuStats, err := s.RunStats(s.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	ref := simcov.New(s.Params).Run(s.Params.Steps)
	for i := range ref {
		if gpuStats[i] != ref[i] {
			t.Fatalf("step %d: padded gpu %+v != ref %+v", i, gpuStats[i], ref[i])
		}
	}
}

// TestSIMCoVEvaluateValidate checks the base module passes fitness bands and
// held-out validation.
func TestSIMCoVEvaluateValidate(t *testing.T) {
	s := newTestSIMCoV(t, false)
	ms, err := s.Evaluate(s.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	if ms <= 0 {
		t.Errorf("non-positive fitness %v", ms)
	}
	if err := s.Validate(s.Base(), gpu.P100); err != nil {
		t.Fatalf("validate: %v", err)
	}
}

// TestSIMCoVValidateConcurrently: the held-out bands are built by the first
// Validate, and callers racing to be first all validate against them.
func TestSIMCoVValidateConcurrently(t *testing.T) {
	s := newTestSIMCoV(t, false)
	var wg sync.WaitGroup
	errs := make([]error, 3)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.Validate(s.Base(), gpu.P100)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("validate %d: %v", i, err)
		}
	}
}

// TestSIMCoVSimulationProgresses checks the infection actually unfolds (the
// model is not degenerate): infection spreads, T cells arrive, cells die.
func TestSIMCoVSimulationProgresses(t *testing.T) {
	s := newTestSIMCoV(t, false)
	ref := simcov.New(s.Params).Run(s.Params.Steps)
	last := ref[len(ref)-1]
	if last.Dead == 0 && last.Expressing == 0 && last.Incubating == 0 {
		t.Errorf("no infection dynamics: %+v", last)
	}
	if last.TCells == 0 {
		t.Errorf("no immune response: %+v", last)
	}
	if last.Virions == 0 {
		t.Errorf("no virions: %+v", last)
	}
}

// removeBoundaryChecks deletes all eight boundary-check branches in both
// diffusion kernels (the Section VI-D optimization), making the neighbour
// loads unconditional.
func removeBoundaryChecks(t *testing.T, m *ir.Module) {
	t.Helper()
	for _, name := range []string{"cov_vdiffuse", "cov_cdiffuse"} {
		f := m.Func(name)
		if f == nil {
			t.Fatalf("missing %s", name)
		}
		sites := kernels.DiffuseEditSites(f)
		if len(sites) != 8 {
			t.Fatalf("%s: want 8 boundary branches, found %d", name, len(sites))
		}
		for _, uid := range sites {
			br := f.InstrByUID(uid)
			br.Op = ir.OpBr
			br.Args = nil
			br.Succs = []string{br.Succs[0]} // fall into the load unconditionally
		}
	}
}

// TestBoundaryRemovalPassesFitness reproduces the Section VI-D finding: on
// the small fitness grid the boundary-check-free variant reads neighbouring
// allocations silently, stays within tolerance, and is faster.
func TestBoundaryRemovalPassesFitness(t *testing.T) {
	s := newTestSIMCoV(t, false)
	base, err := s.Evaluate(s.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	mm := s.Base().Clone()
	removeBoundaryChecks(t, mm)
	opt, err := s.Evaluate(mm, gpu.P100)
	if err != nil {
		t.Fatalf("boundary removal should pass the fitness grid: %v", err)
	}
	gain := (base - opt) / base
	t.Logf("boundary removal: %.4f -> %.4f ms (%.1f%%)", base, opt, gain*100)
	if opt >= base {
		t.Errorf("boundary removal should be faster: %v >= %v", opt, base)
	}
}

// TestBoundaryRemovalFaultsOnLargeGrid reproduces Figure 10b: on a grid
// sized near device capacity the same variant faults.
func TestBoundaryRemovalFaultsOnLargeGrid(t *testing.T) {
	s := newTestSIMCoV(t, false)
	mm := s.Base().Clone()
	removeBoundaryChecks(t, mm)
	err := s.Validate(mm, gpu.P100)
	var fe *gpu.FaultError
	if !errors.As(err, &fe) {
		t.Fatalf("want FaultError on large grid, got %v", err)
	}
}

// TestPaddedFasterThanChecked reproduces Figure 10c: the zero-padded variant
// beats the boundary-checked base (and is safe).
func TestPaddedFasterThanChecked(t *testing.T) {
	checked := newTestSIMCoV(t, false)
	padded := newTestSIMCoV(t, true)
	msC, err := checked.Evaluate(checked.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	msP, err := padded.Evaluate(padded.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("checked %.4f ms, padded %.4f ms (%.1f%%)", msC, msP, 100*(msC-msP)/msC)
	if msP >= msC {
		t.Errorf("padded should be faster: %v >= %v", msP, msC)
	}
	if err := padded.Validate(padded.Base(), gpu.P100); err != nil {
		t.Errorf("padded validate: %v", err)
	}
}

// TestBrokenVariantRejected checks the bands reject genuinely broken
// dynamics: deleting the virion production select.
func TestBrokenVariantRejected(t *testing.T) {
	s := newTestSIMCoV(t, false)
	mm := s.Base().Clone()
	f := mm.Func("cov_vupdate")
	// Find the store to the virions grid and redirect its value operand to
	// the decayed-only value's... simplest break: store constant 0 always.
	var store *ir.Instr
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == ir.OpStore && in.Args[0].Typ == ir.F64 {
				store = in
			}
		}
	}
	if store == nil {
		t.Fatal("no f64 store in cov_vupdate")
	}
	store.Args[0] = ir.ConstFloat(0)
	_, err := s.Evaluate(mm, gpu.P100)
	var me *MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("zeroing virions should violate bands, got %v", err)
	}
}

// TestSIMCoVProfile checks profiling attributes the bulk of time to the hot
// kernels (move + diffusion, per Section II-C: over 90%).
func TestSIMCoVProfile(t *testing.T) {
	s := newTestSIMCoV(t, false)
	_, profs, err := s.EvaluateProfiled(s.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	var hot, total float64
	for name, p := range profs {
		total += p.SumCycles()
		switch name {
		case "cov_move", "cov_vdiffuse", "cov_cdiffuse":
			hot += p.SumCycles()
		}
	}
	if total <= 0 {
		t.Fatal("no profile data")
	}
	frac := hot / total
	t.Logf("move+diffusion fraction: %.1f%%", frac*100)
	if frac < 0.5 {
		t.Errorf("move+diffusion should dominate, got %.1f%%", frac*100)
	}
}

// TestSIMCoVMemoHitsArePerEvaluation checks that the uniform-launch memo
// lives for one evaluation: two consecutive fitness evaluations of one
// program report the same nonzero memo hit count, whether or not the second
// draws the first one's recycled device. A memo that outlived Release would
// let the second evaluation replay its first step's launches too.
func TestSIMCoVMemoHitsArePerEvaluation(t *testing.T) {
	s := newTestSIMCoV(t, false)
	var hits [2]int64
	var ms [2]float64
	for i := range hits {
		st := &gpu.EvalStats{}
		var err error
		if ms[i], err = s.EvaluateCosted(s.Base(), gpu.P100, st); err != nil {
			t.Fatal(err)
		}
		hits[i] = st.MemoHits
	}
	if hits[0] == 0 || hits[1] != hits[0] {
		t.Fatalf("memo hits per evaluation = %v, want two equal nonzero counts", hits)
	}
	if ms[1] != ms[0] {
		t.Fatalf("fitness moved between evaluations: %v", ms)
	}
}
