package core

import (
	"fmt"
	"math"
	"testing"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/rng"
	"gevo/internal/workload"
)

func testADEPT(t *testing.T, v kernels.ADEPTVersion) *workload.ADEPT {
	t.Helper()
	a, err := workload.NewADEPT(v, workload.ADEPTOptions{
		Seed: 11, FitPairs: 4, HoldoutPairs: 6, RefLen: 96, QueryLen: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// TestEditApplyDelete checks delete semantics on plain and branch targets.
func TestEditApplyDelete(t *testing.T) {
	m := kernels.ADEPTModule(kernels.ADEPTV0)
	f := m.Func("sw_forward")
	sites := kernels.V0EditSiteUIDs(f)

	mm := m.Clone()
	e := Edit{Kind: EditDelete, Func: "sw_forward", Target: sites["memsetSync"]}
	if !e.Apply(mm) {
		t.Fatal("barrier delete should apply")
	}
	if mm.Func("sw_forward").InstrByUID(sites["memsetSync"]) != nil {
		t.Fatal("barrier still present")
	}

	mm2 := m.Clone()
	e2 := Edit{Kind: EditDelete, Func: "sw_forward", Target: sites["memsetBr"], KeepSucc: 1}
	if !e2.Apply(mm2) {
		t.Fatal("condbr delete should apply")
	}
	br := mm2.Func("sw_forward").InstrByUID(sites["memsetBr"])
	if br.Op != ir.OpBr || len(br.Succs) != 1 {
		t.Fatalf("condbr not rewritten: %+v", br)
	}
}

// TestEditApplySkipsMissing checks stale edits are skipped, not fatal.
func TestEditApplySkipsMissing(t *testing.T) {
	m := kernels.ADEPTModule(kernels.ADEPTV0)
	e := Edit{Kind: EditDelete, Func: "sw_forward", Target: 99999}
	if e.Apply(m.Clone()) {
		t.Fatal("edit with missing target should not apply")
	}
	e2 := Edit{Kind: EditDelete, Func: "nope", Target: 1}
	if e2.Apply(m.Clone()) {
		t.Fatal("edit with missing kernel should not apply")
	}
}

// TestGenomeKeyDistinguishes checks cache keys separate distinct genomes.
func TestGenomeKeyDistinguishes(t *testing.T) {
	a := []Edit{{Kind: EditDelete, Func: "f", Target: 1}}
	b := []Edit{{Kind: EditDelete, Func: "f", Target: 2}}
	if GenomeKey(a) == GenomeKey(b) {
		t.Fatal("distinct genomes share a key")
	}
	if GenomeKey(a) != GenomeKey([]Edit{a[0]}) {
		t.Fatal("equal genomes have distinct keys")
	}
}

// TestGenomeKeyGolden freezes the key format byte for byte: genome keys are
// hashed into lineage records, checkpoints name genomes by them, and the
// benchmark's result digests contain them. The Sprintf line is the format as
// first written; the literals pin the cases a rewrite gets wrong (negative
// ints, all 64 constant bits, the operand Index that is deliberately not
// part of the key, the empty genome).
func TestGenomeKeyGolden(t *testing.T) {
	viaFmt := func(e Edit) string {
		return fmt.Sprintf("%d:%s:%d:%d:%d:%d:%d:%d:%d:%d:%d",
			e.Kind, e.Func, e.Target, e.Anchor, e.Other, e.Slot,
			e.NewOperand.Kind, e.NewOperand.Typ, e.NewOperand.Const,
			e.NewOperand.Ref, e.KeepSucc)
	}
	neg := Edit{Kind: EditReplaceOperand, Func: "sw_forward", Target: -1, Anchor: -22, Other: 333, Slot: -4,
		NewOperand: ir.Operand{Kind: ir.OperInstr, Typ: ir.I64, Const: math.MaxUint64, Ref: -5, Index: 9}, KeepSucc: -1}
	del := Edit{Kind: EditDelete, Func: "k", Target: 38}
	for _, c := range []struct {
		e    Edit
		want string
	}{
		{neg, "5:sw_forward:-1:-22:333:-4:1:4:18446744073709551615:-5:-1"},
		{del, "0:k:38:0:0:0:0:0:0:0:0"},
		{Edit{}, "0::0:0:0:0:0:0:0:0:0"},
	} {
		if got := c.e.Key(); got != c.want || got != viaFmt(c.e) {
			t.Errorf("Key() = %q, want %q (fmt form %q)", got, c.want, viaFmt(c.e))
		}
	}
	if got := GenomeKey(nil); got != "" {
		t.Errorf("empty genome key = %q, want empty", got)
	}
	if got, want := GenomeKey([]Edit{del, neg}), del.Key()+"|"+neg.Key()+"|"; got != want {
		t.Errorf("GenomeKey = %q, want %q", got, want)
	}
	r := rng.New(5)
	base := kernels.ADEPTModule(kernels.ADEPTV0)
	for i := 0; i < 500; i++ {
		if e, ok := RandomEdit(base, r); ok && e.Key() != viaFmt(e) {
			t.Fatalf("Key() = %q, fmt form %q", e.Key(), viaFmt(e))
		}
	}
}

// TestRandomEditsProduceVariants checks the mutation operators generate
// applicable edits and that a reasonable share of mutants stay valid
// (Schulte et al.'s mutational robustness, cited in Section VIII).
func TestRandomEditsProduceVariants(t *testing.T) {
	a := testADEPT(t, kernels.ADEPTV1)
	r := rng.New(9)
	applied, verified := 0, 0
	const n = 300
	for i := 0; i < n; i++ {
		m := a.Base().Clone()
		e, ok := RandomEdit(m, r)
		if !ok {
			continue
		}
		if !e.Apply(m) {
			continue
		}
		applied++
		if m.Verify() == nil {
			verified++
		}
	}
	if applied < n/2 {
		t.Errorf("only %d/%d random edits applied", applied, n)
	}
	if verified == 0 {
		t.Error("no mutant passed verification")
	}
	t.Logf("applied %d/%d, verified %d (%.0f%%)", applied, n, verified, 100*float64(verified)/float64(applied))
}

// TestCrossover checks one-point crossover structure.
func TestCrossover(t *testing.T) {
	r := rng.New(4)
	a := []Edit{{Target: 1}, {Target: 2}, {Target: 3}}
	b := []Edit{{Target: 10}, {Target: 20}}
	for i := 0; i < 50; i++ {
		c := Crossover(a, b, r)
		if len(c) > len(a)+len(b) {
			t.Fatalf("child too long: %d", len(c))
		}
		// Prefix must come from a, suffix from b.
		inA := map[int]bool{1: true, 2: true, 3: true}
		split := 0
		for split < len(c) && inA[c[split].Target] {
			split++
		}
		for _, e := range c[split:] {
			if inA[e.Target] {
				t.Fatalf("a-edit after b-suffix started: %v", c)
			}
		}
	}
}

// TestCanonicalADEPTV1Replay checks the canonical edit set applies, stays
// valid, and improves fitness — the Figure 4 replay path.
func TestCanonicalADEPTV1Replay(t *testing.T) {
	a := testADEPT(t, kernels.ADEPTV1)
	base, err := a.Evaluate(a.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	_, edits, err := CanonicalADEPTV1(a.Base(), false)
	if err != nil {
		t.Fatal(err)
	}
	m := Variant(a.Base(), edits)
	opt, err := a.Evaluate(m, gpu.P100)
	if err != nil {
		t.Fatalf("canonical V1 edit set invalid: %v", err)
	}
	speedup := base / opt
	t.Logf("canonical V1 replay: %.3fx", speedup)
	if speedup < 1.1 {
		t.Errorf("canonical V1 speedup too small: %.3fx", speedup)
	}
	if err := a.Validate(m, gpu.P100); err != nil {
		t.Errorf("held-out validation: %v", err)
	}
}

// TestCanonicalADEPTV0Replay checks the ~30x memset-removal replay.
func TestCanonicalADEPTV0Replay(t *testing.T) {
	a := testADEPT(t, kernels.ADEPTV0)
	base, err := a.Evaluate(a.Base(), gpu.P100)
	if err != nil {
		t.Fatal(err)
	}
	edits, err := CanonicalADEPTV0(a.Base())
	if err != nil {
		t.Fatal(err)
	}
	m := Variant(a.Base(), edits)
	opt, err := a.Evaluate(m, gpu.P100)
	if err != nil {
		t.Fatalf("canonical V0 edit set invalid: %v", err)
	}
	speedup := base / opt
	t.Logf("canonical V0 replay: %.1fx", speedup)
	if speedup < 10 {
		t.Errorf("canonical V0 speedup too small: %.1fx", speedup)
	}
}

// TestEngineSearchV0 runs a small real search on ADEPT-V0 and expects it to
// find a large improvement (the memset loop is an easy target, which is why
// the paper's Fig 4 shows ~30x from V0 searches). The dataset is tiny so a
// meaningful number of generations fits in a unit test.
func TestEngineSearchV0(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	a, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 2, HoldoutPairs: 4, RefLen: 64, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Scaled-down population with proportionally higher mutation rate so the
	// test explores as many fresh edits as a slice of the paper's pop-256
	// run would.
	eng := NewEngine(a, Config{
		Pop: 24, Elite: 2, Generations: 30, Seed: 5, Arch: gpu.P100,
		CrossoverRate: 0.8, MutationRate: 0.9,
	})
	res, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("V0 search: %.2fx in %d evals", res.Speedup, res.Evaluations)
	if res.Speedup < 1.2 {
		t.Errorf("search should find improvements in the memset region, got %.2fx", res.Speedup)
	}
	if err := eng.Validate(res.Best.Genome); err != nil {
		t.Errorf("best variant fails held-out validation: %v", err)
	}
	if len(res.History.Records) != 30 {
		t.Errorf("history has %d records, want 30", len(res.History.Records))
	}
}

// TestHistorySpeedups checks the trajectory bookkeeping.
func TestHistorySpeedups(t *testing.T) {
	h := NewHistory(100)
	h.Record(1, []Individual{{Fitness: 90, Genome: []Edit{{Target: 1}}}, {Fitness: math.Inf(1)}})
	h.Record(2, []Individual{{Fitness: 95}})
	h.Record(3, []Individual{{Fitness: 80, Genome: []Edit{{Target: 1}, {Target: 2}}}})
	sp := h.Speedups()
	want := []float64{100.0 / 90, 100.0 / 90, 100.0 / 80}
	for i := range want {
		if math.Abs(sp[i]-want[i]) > 1e-12 {
			t.Errorf("speedup[%d] = %v, want %v", i, sp[i], want[i])
		}
	}
	best := h.BestEver()
	if best.Fitness != 80 || len(best.Genome) != 2 {
		t.Errorf("best ever = %+v", best)
	}
	disc := h.Discoveries()
	if len(disc) != 2 {
		t.Fatalf("want 2 discoveries, got %d", len(disc))
	}
	if len(disc[0].NewEdits) != 1 || len(disc[1].NewEdits) != 1 {
		t.Errorf("discovery new-edit counts: %d, %d", len(disc[0].NewEdits), len(disc[1].NewEdits))
	}
}

// TestEngineDeterminism checks two runs with the same seed agree.
func TestEngineDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("search test")
	}
	a, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 2, HoldoutPairs: 2, RefLen: 64, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	run := func() float64 {
		eng := NewEngine(a, Config{
			Pop: 8, Elite: 1, Generations: 4, Seed: 42, Arch: gpu.P100,
			CrossoverRate: 0.8, MutationRate: 0.3,
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Best.Fitness
	}
	if f1, f2 := run(), run(); f1 != f2 {
		t.Errorf("same seed, different results: %v vs %v", f1, f2)
	}
}
