// Package core implements the GEVO evolutionary search engine (Section II-A
// of the paper): program variants are ordered lists of IR edits; populations
// of variants are evaluated on the GPU simulator, selected by fitness
// (simulated kernel time), recombined by crossover, and mutated with the
// paper's operator set — instruction copy / delete / move / swap / replace,
// plus operand replacement.
package core

import (
	"fmt"
	"strconv"

	"gevo/internal/ir"
)

// EditKind enumerates GEVO's mutation operators.
type EditKind uint8

const (
	// EditDelete removes the target instruction. Deleting a conditional
	// branch rewrites it into an unconditional branch to the surviving
	// successor (KeepSucc) — the operator behind loop elision (Section VI-C)
	// and boundary-check removal (Section VI-D).
	EditDelete EditKind = iota
	// EditCopy inserts a clone of the target before the anchor instruction.
	EditCopy
	// EditMove removes the target and reinserts it before the anchor.
	EditMove
	// EditSwap exchanges the positions of two instructions.
	EditSwap
	// EditReplaceInstr replaces the target with a clone of another
	// instruction, keeping the target's result identity (UID).
	EditReplaceInstr
	// EditReplaceOperand rewrites one operand of the target — the operator
	// behind Figure 9's edits 5, 6, 8 and 10.
	EditReplaceOperand
)

var editKindNames = map[EditKind]string{
	EditDelete: "delete", EditCopy: "copy", EditMove: "move",
	EditSwap: "swap", EditReplaceInstr: "replace", EditReplaceOperand: "operand",
}

func (k EditKind) String() string {
	if s, ok := editKindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Edit is one code modification. Edits address instructions by UID, which is
// stable across module clones, so an edit list (a genome) can be replayed on
// a fresh clone of the base program. Edits whose targets vanished under
// earlier edits are skipped, as in GEVO.
type Edit struct {
	Kind EditKind
	// Func names the kernel the edit applies to.
	Func string
	// Target is the UID of the edited instruction.
	Target int
	// Anchor is the UID of the instruction the copy/move inserts before.
	Anchor int
	// Other is the UID of the second instruction for swap/replace.
	Other int
	// Slot is the operand index for EditReplaceOperand.
	Slot int
	// NewOperand is the replacement operand for EditReplaceOperand.
	NewOperand ir.Operand
	// KeepSucc selects the surviving successor when deleting a conditional
	// branch (0 = then, 1 = else).
	KeepSucc int
}

func (e Edit) String() string {
	switch e.Kind {
	case EditDelete:
		return fmt.Sprintf("%s(%s/%%%d keep=%d)", e.Kind, e.Func, e.Target, e.KeepSucc)
	case EditCopy, EditMove:
		return fmt.Sprintf("%s(%s/%%%d before %%%d)", e.Kind, e.Func, e.Target, e.Anchor)
	case EditSwap, EditReplaceInstr:
		return fmt.Sprintf("%s(%s/%%%d with %%%d)", e.Kind, e.Func, e.Target, e.Other)
	case EditReplaceOperand:
		return fmt.Sprintf("%s(%s/%%%d arg%d <- %v)", e.Kind, e.Func, e.Target, e.Slot, e.NewOperand)
	default:
		return fmt.Sprintf("%s(%s/%%%d)", e.Kind, e.Func, e.Target)
	}
}

// appendKey appends the edit's canonical key: the decimal fields
// kind:func:target:anchor:other:slot:operand-kind:operand-type:const:ref:keep.
// The format is frozen — genome keys are hashed into lineage records,
// checkpoints and result digests.
func (e Edit) appendKey(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(e.Kind), 10)
	b = append(append(b, ':'), e.Func...)
	for _, v := range [...]int{e.Target, e.Anchor, e.Other, e.Slot, int(e.NewOperand.Kind), int(e.NewOperand.Typ)} {
		b = strconv.AppendInt(append(b, ':'), int64(v), 10)
	}
	b = strconv.AppendUint(append(b, ':'), e.NewOperand.Const, 10)
	b = strconv.AppendInt(append(b, ':'), int64(e.NewOperand.Ref), 10)
	return strconv.AppendInt(append(b, ':'), int64(e.KeepSucc), 10)
}

// Key returns a canonical string identifying the edit.
func (e Edit) Key() string { return string(e.appendKey(nil)) }

// GenomeKey returns the canonical key of an edit list: every edit's key
// followed by '|'.
func GenomeKey(genome []Edit) string { return string(appendGenomeKey(genome)) }

func appendGenomeKey(genome []Edit) []byte {
	b := make([]byte, 0, 40*len(genome))
	for _, e := range genome {
		b = append(e.appendKey(b), '|')
	}
	return b
}

// Apply performs the edit on the module in place, reporting whether it was
// applicable. Inapplicable edits (missing targets, structural impossibility)
// are skipped without error; semantically broken results are left for the
// verifier and the fitness evaluation to reject, mirroring GEVO mutants that
// fail to compile or fail their test cases.
//
// "In place" means the module's block lists: instructions may be shared with
// the base module (see Variant), so an edit that changes one installs an
// edited copy and never writes through the pointer it found.
func (e Edit) Apply(m *ir.Module) bool {
	f := m.Func(e.Func)
	if f == nil {
		return false
	}
	pos, ok := f.Find(e.Target)
	if !ok {
		return false
	}
	target := f.InstrAt(pos)

	switch e.Kind {
	case EditDelete:
		if target.Op == ir.OpCondBr {
			keep := e.KeepSucc
			if keep < 0 || keep >= len(target.Succs) {
				keep = 0
			}
			br := *target
			br.Op = ir.OpBr
			br.Args = nil
			br.Succs = []string{target.Succs[keep]}
			f.BlockByName(pos.Block).Instrs[pos.Index] = &br
			return true
		}
		if target.Op.IsTerminator() {
			return false // removing Br/Ret would leave the block open
		}
		f.RemoveAt(pos)
		return true

	case EditCopy, EditMove:
		if target.Op.IsTerminator() {
			return false
		}
		anchorPos, ok := f.Find(e.Anchor)
		if !ok {
			return false
		}
		if e.Kind == EditMove {
			f.RemoveAt(pos)
			// Recompute the anchor: indices may have shifted.
			anchorPos, ok = f.Find(e.Anchor)
			if !ok {
				// The anchor was the moved instruction itself.
				return f.InsertAt(pos, target)
			}
			return f.InsertAt(anchorPos, target)
		}
		cp := target.Clone()
		cp.UID = f.NewUID()
		return f.InsertAt(anchorPos, cp)

	case EditSwap:
		otherPos, ok := f.Find(e.Other)
		if !ok {
			return false
		}
		other := f.InstrAt(otherPos)
		if target.Op.IsTerminator() || other.Op.IsTerminator() {
			return false
		}
		tb := f.BlockByName(pos.Block)
		ob := f.BlockByName(otherPos.Block)
		tb.Instrs[pos.Index], ob.Instrs[otherPos.Index] = other, target
		return true

	case EditReplaceInstr:
		otherPos, ok := f.Find(e.Other)
		if !ok {
			return false
		}
		other := f.InstrAt(otherPos)
		if target.Op.IsTerminator() || other.Op.IsTerminator() {
			return false
		}
		cp := other.Clone()
		cp.UID = target.UID // the replacement takes over the target's uses
		f.BlockByName(pos.Block).Instrs[pos.Index] = cp
		return true

	case EditReplaceOperand:
		if e.Slot < 0 || e.Slot >= len(target.Args) {
			return false
		}
		cp := *target
		cp.Args = append([]ir.Operand(nil), target.Args...)
		cp.Args[e.Slot] = e.NewOperand
		f.BlockByName(pos.Block).Instrs[pos.Index] = &cp
		return true
	}
	return false
}

// ApplyAll applies a genome to the module in order, returning how many edits
// were applicable.
func ApplyAll(m *ir.Module, genome []Edit) int {
	n := 0
	for _, e := range genome {
		if e.Apply(m) {
			n++
		}
	}
	return n
}

// Variant applies the genome to a copy-on-write copy of the base module. The
// cost is proportional to the genome, not to the module: the result has its
// own block lists but shares every instruction no edit changed with base, so
// it must be treated like base itself — read, hashed, compiled, edited
// further through Apply, never written through an *ir.Instr. Callers that
// want to patch instructions by hand start from base.Clone() instead.
func Variant(base *ir.Module, genome []Edit) *ir.Module {
	m := base.Share()
	ApplyAll(m, genome)
	return m
}
