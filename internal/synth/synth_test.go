package synth

import (
	"errors"
	"strings"
	"testing"

	"gevo/internal/gpu"
	"gevo/internal/ir"
)

// TestParseRoundTrip pins the canonical-name contract: Parse(sp.Name())
// reproduces the spec, defaults are made explicit, and the default suite
// spans every family exactly once.
func TestParseRoundTrip(t *testing.T) {
	suite := DefaultSuite()
	if len(suite) != len(Families()) {
		t.Fatalf("default suite has %d specs for %d families", len(suite), len(Families()))
	}
	for _, sp := range append(suite, Spec{Family: "stencil2d", Seed: 42, N: 4096}, Spec{Family: "matmul", Seed: 9, N: 32}) {
		got, err := Parse(sp.Name())
		if err != nil {
			t.Fatalf("Parse(%q): %v", sp.Name(), err)
		}
		if got != sp {
			t.Errorf("Parse(%q) = %+v, want %+v", sp.Name(), got, sp)
		}
	}
	// Short forms default seed and size.
	got, err := Parse("synth:reduce")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 1 || got.N != 4096 {
		t.Errorf("short form defaults = %+v", got)
	}
}

// TestSuiteDefault is the family gauntlet: every default-suite scenario
// must generate a verified module, agree with its host oracle under the
// reference interpreter, hold interp ≡ threaded (including the memo replay
// path), and prove exactly the timing shape its family documents.
func TestSuiteDefault(t *testing.T) {
	reps, err := RunSuite(DefaultSuite(), gpu.P100)
	if err != nil {
		t.Fatalf("suite: %v", err)
	}
	if len(reps) != len(Families()) {
		t.Fatalf("suite produced %d reports for %d families", len(reps), len(Families()))
	}
	for _, r := range reps {
		if !r.DifferentialOK || !r.UniformAsDocumented {
			t.Errorf("%s: differential=%v uniformAsDocumented=%v", r.Name, r.DifferentialOK, r.UniformAsDocumented)
		}
	}
}

// TestDeterministicIR pins the byte-identity guarantee: the same spec
// always renders byte-identical textual IR and identical golden datasets;
// a different seed reshapes at least one family's kernel.
func TestDeterministicIR(t *testing.T) {
	for _, sp := range DefaultSuite() {
		a, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		b, err := New(sp)
		if err != nil {
			t.Fatal(err)
		}
		if a.Base().String() != b.Base().String() {
			t.Errorf("%s: same spec produced different IR", sp.Name())
		}
		if string(a.fit.golden) != string(b.fit.golden) || string(a.hold.golden) != string(b.hold.golden) {
			t.Errorf("%s: same spec produced different golden outputs", sp.Name())
		}
		if string(a.fit.golden) == string(a.hold.golden) {
			t.Errorf("%s: fitness and held-out datasets coincide", sp.Name())
		}
	}
	a, _ := New(Spec{Family: "branchy", Seed: 1, N: 64})
	c, _ := New(Spec{Family: "branchy", Seed: 2, N: 64})
	if a.Base().String() == c.Base().String() {
		t.Error("branchy: different seeds produced identical IR (shape stream not wired)")
	}
}

// TestMutantRejected: a semantics-changing edit must fail evaluation with a
// mismatch against the golden output, and held-out validation must reject
// it too.
func TestMutantRejected(t *testing.T) {
	w, err := New(Spec{Family: "stencil1d", Seed: 3, N: 128})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Base().Clone()
	flipped := false
	for _, in := range m.Funcs[0].Instructions() {
		if in.Op == ir.OpFAdd {
			in.Op = ir.OpFSub
			flipped = true
			break
		}
	}
	if !flipped {
		t.Fatal("no FAdd to flip")
	}
	if _, err := w.Evaluate(m, gpu.P100); err == nil {
		t.Error("semantics-changing mutant passed fitness evaluation")
	} else {
		var me *MismatchError
		if !errors.As(err, &me) {
			t.Errorf("want MismatchError, got %v", err)
		}
	}
	if err := w.Validate(m, gpu.P100); err == nil {
		t.Error("semantics-changing mutant passed held-out validation")
	}
}

// TestRunawayMutantTimesOut: inverting the data-dependent loop condition in
// branchy creates an unbounded loop; the derived dynamic-instruction budget
// must kill it rather than hang the evaluator.
func TestRunawayMutantTimesOut(t *testing.T) {
	w, err := New(Spec{Family: "branchy", Seed: 1, N: 64})
	if err != nil {
		t.Fatal(err)
	}
	m := w.Base().Clone()
	var blk *ir.Block
	for _, b := range m.Funcs[0].Blocks {
		if b.Name == "lh" {
			blk = b
		}
	}
	if blk == nil {
		t.Fatal("branchy kernel lacks loop header lh")
	}
	inverted := false
	for _, in := range blk.Instrs {
		if in.Op == ir.OpICmp && in.Pred == ir.PredLT {
			in.Pred = ir.PredGE
			inverted = true
		}
	}
	if !inverted {
		t.Fatal("no loop comparison to invert")
	}
	_, err = w.Evaluate(m, gpu.P100)
	var te *gpu.TimeoutError
	if !errors.As(err, &te) {
		t.Errorf("want TimeoutError from the runaway budget, got %v", err)
	}
}

// TestNewRejectsBadSpecs mirrors the Parse validation on the construction
// path (New is reachable without Parse through the re-exported API).
func TestNewRejectsBadSpecs(t *testing.T) {
	cases := []struct {
		sp   Spec
		want string
	}{
		{Spec{Family: "nope"}, "unknown family"},
		{Spec{Family: "stencil1d", N: 4}, "outside"},
		{Spec{Family: "stencil2d", N: 1000}, "perfect square"},
		{Spec{Family: "matmul", N: 12}, "multiple of 8"},
	}
	for _, tc := range cases {
		if _, err := New(tc.sp); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("New(%+v) = %v, want error containing %q", tc.sp, err, tc.want)
		}
	}
	// Zero seed and size take defaults.
	w, err := New(Spec{Family: "histogram"})
	if err != nil {
		t.Fatal(err)
	}
	if w.Name() != "synth:histogram:seed=1:n=4096" {
		t.Errorf("defaulted name = %q", w.Name())
	}
}
