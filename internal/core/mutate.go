package core

import (
	"gevo/internal/ir"
	"gevo/internal/rng"
)

// Mutation operator weights (relative). GEVO's operand-level operators are
// weighted up: they are both the cheapest to validate and the source of the
// paper's most interesting edits.
var kindWeights = []struct {
	kind   EditKind
	weight int
}{
	{EditDelete, 28},
	{EditCopy, 12},
	{EditMove, 8},
	{EditSwap, 8},
	{EditReplaceInstr, 14},
	{EditReplaceOperand, 30},
}

// RandomEdit draws one random edit against the current state of the module.
// It reports false when no edit could be constructed (degenerate module).
// Like GEVO, it makes no semantic validity promise: the verifier and the
// test suite judge the result.
func RandomEdit(m *ir.Module, r *rng.R) (Edit, bool) {
	if len(m.Funcs) == 0 {
		return Edit{}, false
	}
	// Weight kernel choice by size.
	total := 0
	for _, f := range m.Funcs {
		total += f.NumInstrs()
	}
	if total == 0 {
		return Edit{}, false
	}
	pick := r.Intn(total)
	var f *ir.Function
	for _, ff := range m.Funcs {
		if pick < ff.NumInstrs() {
			f = ff
			break
		}
		pick -= ff.NumInstrs()
	}
	if f == nil {
		f = m.Funcs[len(m.Funcs)-1]
	}

	instrs := f.Instructions()
	if len(instrs) == 0 {
		return Edit{}, false
	}

	wTotal := 0
	for _, kw := range kindWeights {
		wTotal += kw.weight
	}
	kpick := r.Intn(wTotal)
	kind := EditDelete
	for _, kw := range kindWeights {
		if kpick < kw.weight {
			kind = kw.kind
			break
		}
		kpick -= kw.weight
	}

	// A few placement retries keep the operator productive without biasing
	// it toward validity.
	for attempt := 0; attempt < 8; attempt++ {
		target := instrs[r.Intn(len(instrs))]
		e := Edit{Kind: kind, Func: f.Name, Target: target.UID}
		switch kind {
		case EditDelete:
			if target.Op == ir.OpCondBr {
				e.KeepSucc = r.Intn(2)
				return e, true
			}
			if target.Op.IsTerminator() {
				continue
			}
			return e, true

		case EditCopy, EditMove:
			if target.Op.IsTerminator() || target.Op == ir.OpPhi {
				continue
			}
			anchor := instrs[r.Intn(len(instrs))]
			if anchor.Op == ir.OpPhi {
				continue
			}
			e.Anchor = anchor.UID
			return e, true

		case EditSwap:
			other := instrs[r.Intn(len(instrs))]
			if target.Op.IsTerminator() || other.Op.IsTerminator() ||
				target.Op == ir.OpPhi || other.Op == ir.OpPhi ||
				other.UID == target.UID {
				continue
			}
			e.Other = other.UID
			return e, true

		case EditReplaceInstr:
			other := instrs[r.Intn(len(instrs))]
			if target.Op.IsTerminator() || other.Op.IsTerminator() ||
				target.Op == ir.OpPhi || other.Op == ir.OpPhi ||
				other.UID == target.UID || other.Typ != target.Typ {
				continue
			}
			e.Other = other.UID
			return e, true

		case EditReplaceOperand:
			if len(target.Args) == 0 {
				continue
			}
			slot := r.Intn(len(target.Args))
			cands := operandCandidates(f, target.Args[slot].Typ)
			if len(cands) == 0 {
				continue
			}
			repl := cands[r.Intn(len(cands))]
			if repl.Equal(target.Args[slot]) {
				continue
			}
			e.Slot = slot
			e.NewOperand = repl
			return e, true
		}
	}
	return Edit{}, false
}

// operandCandidates collects replacement values of the given type: results
// of instructions, parameters, hardware specials (i32) and the function's
// constant pool — GEVO's "replace the operands between instructions".
func operandCandidates(f *ir.Function, t ir.Type) []ir.Operand {
	var out []ir.Operand
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.Typ == t {
				out = append(out, ir.Reg(in.UID, t))
			}
		}
	}
	for i, pt := range f.Params {
		if pt == t {
			out = append(out, ir.Param(i, t))
		}
	}
	if t == ir.I32 {
		for _, s := range []ir.Special{ir.SpecialTID, ir.SpecialBID, ir.SpecialBDim, ir.SpecialLane, ir.SpecialWarp} {
			out = append(out, ir.SpecialReg(s))
		}
	}
	for _, c := range f.ConstPool() {
		if c.Typ == t {
			out = append(out, c)
		}
	}
	return out
}

// Crossover performs one-point crossover over two genomes, GEVO-style: the
// child takes a prefix of a and a suffix of b.
func Crossover(a, b []Edit, r *rng.R) []Edit {
	ca := r.Intn(len(a) + 1)
	cb := r.Intn(len(b) + 1)
	child := make([]Edit, 0, ca+len(b)-cb)
	child = append(child, a[:ca]...)
	child = append(child, b[cb:]...)
	return child
}

// Mutate returns a mutated copy of the genome: usually appending a fresh
// random edit against the variant's current state, sometimes dropping one
// (keeping genome growth in check).
func Mutate(base *ir.Module, genome []Edit, r *rng.R) []Edit {
	out := append([]Edit(nil), genome...)
	if len(out) > 0 && r.Float64() < 0.25 {
		i := r.Intn(len(out))
		out = append(out[:i], out[i+1:]...)
		return out
	}
	variant := Variant(base, out)
	if e, ok := RandomEdit(variant, r); ok {
		out = append(out, e)
	}
	return out
}
