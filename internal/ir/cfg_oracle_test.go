package ir_test

import (
	"os"
	"testing"

	"gevo/internal/core"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/rng"
	"gevo/internal/synth"
)

// mutantCorpus is the corpus internal/gpu's TestPrepareMatchesOracles also
// runs: the hand-written control-flow shapes of testdata/cfg_corpus.ir
// (stranded blocks, stale phi incomings, self-loops, several exits, no exit
// at all), the paper kernels and one scenario per synth family, each
// followed by a seeded chain of mutants.
func mutantCorpus(t *testing.T, perBase int) []*ir.Module {
	t.Helper()
	text, err := os.ReadFile("testdata/cfg_corpus.ir")
	if err != nil {
		t.Fatal(err)
	}
	hand, err := ir.Parse(string(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := hand.Verify(); err != nil {
		t.Fatalf("testdata/cfg_corpus.ir: %v", err)
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

// TestCFGMatchesOracles checks the integer-indexed CFG against the
// string-keyed dominator and post-dominator passes it replaced: the same
// reachable set, the same immediate dominator and the same reconvergence
// block for every block of every function in the corpus.
func TestCFGMatchesOracles(t *testing.T) {
	name := func(f *ir.Function, b int32) string {
		if b < 0 {
			return ""
		}
		return f.Blocks[b].Name
	}
	stranded, spinning := 0, 0
	for _, m := range mutantCorpus(t, 60) {
		for _, f := range m.Funcs {
			dom, pdom, g := ir.ComputeDom(f), ir.ComputePostDom(f), ir.NewCFG(f)
			for bi, b := range f.Blocks {
				bi := int32(bi)
				if i, ok := g.BlockIndex(b.Name); !ok || i != bi {
					t.Fatalf("%s/%s: BlockIndex(%q) = %d, %v", m.Name, f.Name, b.Name, i, ok)
				}
				if got, want := g.Reachable(bi), dom.Reachable(b.Name); got != want {
					t.Fatalf("%s/%s: Reachable(%s) = %v, oracle %v", m.Name, f.Name, b.Name, got, want)
				}
				if got, want := name(f, g.Idom(bi)), dom.Idom(b.Name); got != want {
					t.Fatalf("%s/%s: idom(%s) = %q, oracle %q", m.Name, f.Name, b.Name, got, want)
				}
				if got, want := name(f, g.IPdom(bi)), pdom.IPdom(b.Name); got != want {
					t.Fatalf("%s/%s: ipdom(%s) = %q, oracle %q", m.Name, f.Name, b.Name, got, want)
				}
				for ci, c := range f.Blocks {
					if got, want := g.Dominates(bi, int32(ci)), dom.Dominates(b.Name, c.Name); got != want {
						t.Fatalf("%s/%s: Dominates(%s, %s) = %v, oracle %v", m.Name, f.Name, b.Name, c.Name, got, want)
					}
				}
				switch {
				case !g.Reachable(bi):
					stranded++
				case g.IPdom(bi) < 0 && b.Terminator() != nil && len(b.Terminator().Succs) > 0:
					spinning++
				}
			}
		}
	}
	if stranded == 0 || spinning == 0 {
		t.Fatalf("corpus has %d unreachable blocks and %d live blocks with successors that reconverge at the exit; want both", stranded, spinning)
	}
}
