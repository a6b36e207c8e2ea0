package core

import (
	"sync"
	"testing"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/rng"
	"gevo/internal/synth"
)

// variantBases are the modules the copy-on-write tests run on: both ADEPT
// versions, SIMCoV and one scenario of every synth family.
func variantBases(t *testing.T) []*ir.Module {
	t.Helper()
	bases := []*ir.Module{kernels.ADEPTModule(kernels.ADEPTV0), kernels.ADEPTModule(kernels.ADEPTV1), kernels.SIMCoVModule(false)}
	for _, fam := range synth.Families() {
		w, err := synth.New(synth.Spec{Family: fam, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		bases = append(bases, w.Base())
	}
	return bases
}

// wildEdit draws an edit of the given kind aimed at base instructions with
// none of RandomEdit's placement care: any instruction of the function can be
// target, anchor or partner (terminators, phis, other blocks, itself), the
// operand slot may be out of range, and the replacement operand is any value
// of the function or a constant. With aim set, the target is instead one the
// kind rewrites in place where it can: a conditional branch for a delete, an
// instruction with operands for an operand replacement.
func wildEdit(m *ir.Module, kind EditKind, aim bool, r *rng.R) Edit {
	f := m.Funcs[r.Intn(len(m.Funcs))]
	instrs := f.Instructions()
	pick := func() *ir.Instr { return instrs[r.Intn(len(instrs))] }
	target := pick()
	for tries := 0; aim && tries < 4*len(instrs); tries++ {
		if kind == EditDelete && target.Op == ir.OpCondBr || kind == EditReplaceOperand && len(target.Args) > 0 {
			break
		}
		target = pick()
	}
	e := Edit{Kind: kind, Func: f.Name, Target: target.UID, Anchor: pick().UID, Other: pick().UID,
		KeepSucc: r.Intn(2), Slot: r.Intn(len(target.Args) + 1)}
	if src := pick(); src.Typ != ir.Void && r.Intn(2) == 0 {
		e.NewOperand = ir.Reg(src.UID, src.Typ)
	} else {
		e.NewOperand = ir.ConstInt(ir.I32, int64(r.Intn(7)))
	}
	return e
}

// TestVariantSharesNeverMutates pins the copy-on-write contract of Variant:
// whatever a genome does — including the two edits that change an
// instruction (cond-br delete, operand replace) aimed straight at base
// instructions, copies, moves and swaps across blocks, and edits whose target
// an earlier edit already deleted or replaced — the variant equals the
// reference built on a private deep clone, and the base module that eight
// goroutines build variants from at once is never written. CI runs this
// package under -race, which sees a write through a shared instruction or a
// shared block list even where the hashes happen to agree.
func TestVariantSharesNeverMutates(t *testing.T) {
	const perBase, workers = 300, 8
	total := 0
	for bi, base := range variantBases(t) {
		before := gpu.HashModule(base)
		r := rng.New(uint64(bi) + 7)
		genomes := make([][]Edit, perBase)
		applied := map[EditKind]int{}
		condbrDeletes, restruck := 0, 0
		probe := base.Clone()
		for i := range genomes {
			var g []Edit
			for n := 1 + r.Intn(5); len(g) < n; {
				switch r.Intn(5) {
				case 0: // a placed edit, drawn against the variant so far
					if e, ok := RandomEdit(Variant(base, g), r); ok {
						g = append(g, e)
					}
				case 1: // strike an earlier edit's target again
					if len(g) > 0 {
						e := wildEdit(base, EditKind(r.Intn(6)), false, r)
						prev := g[r.Intn(len(g))]
						e.Func, e.Target = prev.Func, prev.Target
						g = append(g, e)
						restruck++
					}
				case 2: // one of the two edits that rewrite an instruction, aimed
					g = append(g, wildEdit(base, []EditKind{EditDelete, EditReplaceOperand}[r.Intn(2)], true, r))
				default:
					g = append(g, wildEdit(base, EditKind(r.Intn(6)), false, r))
				}
			}
			genomes[i] = g
			// Coverage bookkeeping on a scratch clone, one edit at a time.
			scratch := base.Clone()
			for _, e := range g {
				wasCondBr := false
				if f := scratch.Func(e.Func); f != nil {
					if in := f.InstrByUID(e.Target); in != nil {
						wasCondBr = in.Op == ir.OpCondBr
					}
				}
				if e.Apply(scratch) {
					applied[e.Kind]++
					if e.Kind == EditDelete && wasCondBr {
						condbrDeletes++
					}
				}
			}
		}
		if gpu.HashModule(probe) != before {
			t.Fatalf("%s: Clone does not reproduce the base", base.Name)
		}
		for k := EditDelete; k <= EditReplaceOperand; k++ {
			if applied[k] == 0 {
				t.Errorf("%s: no applicable %s edit in %d genomes", base.Name, k, perBase)
			}
		}
		hasCondBr := false
		for _, f := range base.Funcs {
			for _, in := range f.Instructions() {
				hasCondBr = hasCondBr || in.Op == ir.OpCondBr
			}
		}
		if (hasCondBr && condbrDeletes == 0) || restruck == 0 {
			t.Errorf("%s: %d cond-br deletes applied, %d targets struck twice; want both", base.Name, condbrDeletes, restruck)
		}

		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := w; i < len(genomes); i += workers {
					ref := base.Clone()
					ApplyAll(ref, genomes[i])
					if gpu.HashModule(Variant(base, genomes[i])) != gpu.HashModule(ref) {
						t.Errorf("%s: genome %d %v: variant differs from clone-and-apply", base.Name, i, genomes[i])
					}
				}
			}(w)
		}
		wg.Wait()
		if gpu.HashModule(base) != before {
			t.Fatalf("%s: building variants changed the base module", base.Name)
		}
		total += len(genomes)
	}
	if total < 2000 {
		t.Fatalf("only %d genomes", total)
	}
}

// TestVariantAllocations is the allocation guard on variant construction: a
// one-edit child of a synth reduce kernel costs a handful of allocations for
// the module's headers and block lists plus the one instruction the edit
// touches — not one per instruction. A reintroduced deep clone (several
// hundred allocations on this kernel) fails here instead of quietly costing
// 15 % of a search round.
func TestVariantAllocations(t *testing.T) {
	w, err := synth.New(synth.Spec{Family: "reduce", Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	base := w.Base()
	f := base.Funcs[0]
	var condbr, arith *ir.Instr
	for _, in := range f.Instructions() {
		switch {
		case in.Op == ir.OpCondBr && condbr == nil:
			condbr = in
		case in.Op.IsIntArith() && arith == nil:
			arith = in
		}
	}
	if condbr == nil || arith == nil {
		t.Fatal("reduce kernel lacks a conditional branch or an integer op")
	}
	limit := float64(2*len(f.Blocks) + 8)
	if n := f.NumInstrs(); float64(n) < 3*limit {
		t.Fatalf("kernel has %d instructions; too small for the bound %v to tell a deep clone apart", n, limit)
	}
	for _, e := range []Edit{
		{Kind: EditDelete, Func: f.Name, Target: arith.UID},
		{Kind: EditDelete, Func: f.Name, Target: condbr.UID, KeepSucc: 1},
		{Kind: EditReplaceOperand, Func: f.Name, Target: arith.UID, Slot: 1, NewOperand: arith.Args[0]},
		{Kind: EditCopy, Func: f.Name, Target: arith.UID, Anchor: condbr.UID},
		{Kind: EditMove, Func: f.Name, Target: arith.UID, Anchor: condbr.UID},
	} {
		genome := []Edit{e}
		if !e.Apply(base.Clone()) {
			t.Fatalf("%v does not apply", e)
		}
		if got := testing.AllocsPerRun(50, func() { _ = Variant(base, genome) }); got > limit {
			t.Errorf("Variant with %v: %v allocations, want <= %v (2 x %d blocks + 8)", e, got, limit, len(f.Blocks))
		}
	}
}
