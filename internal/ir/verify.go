package ir

import (
	"errors"
	"fmt"
)

// ErrInvalid wraps all verification failures so callers (the evolutionary
// engine) can cheaply classify a mutant as non-viable without simulating it.
var ErrInvalid = errors.New("ir: invalid function")

func verifyErr(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrInvalid, fmt.Sprintf(format, args...))
}

// Verify checks module well-formedness: CFG structure, SSA dominance, type
// agreement and operand arity. Mutated programs that fail verification are
// assigned worst fitness by the engine, mirroring GEVO variants that fail to
// compile to PTX.
func (m *Module) Verify() error {
	for _, f := range m.Funcs {
		if err := f.Verify(); err != nil {
			return fmt.Errorf("kernel %s: %w", f.Name, err)
		}
	}
	return nil
}

// Verify checks a single function. See Module.Verify.
func (f *Function) Verify() error {
	if len(f.Blocks) == 0 {
		return verifyErr("no blocks")
	}
	names := make(map[string]bool, len(f.Blocks))
	// UIDs are dense below NextUID (checked below), so the per-UID tables are
	// slices: defs[uid] is the instruction carrying the UID (nil = none),
	// defPos[uid] its position when it produces a value.
	defs := make([]*Instr, max(f.NextUID, 0))
	defPos := make([]Pos, len(defs))
	for _, b := range f.Blocks {
		if b.Name == "" {
			return verifyErr("unnamed block")
		}
		if names[b.Name] {
			return verifyErr("duplicate block %q", b.Name)
		}
		names[b.Name] = true
		if len(b.Instrs) == 0 {
			return verifyErr("block %q is empty", b.Name)
		}
		for i, in := range b.Instrs {
			if in.UID >= f.NextUID {
				return verifyErr("block %q: UID %d >= NextUID %d", b.Name, in.UID, f.NextUID)
			}
			if in.UID < 0 {
				return verifyErr("block %q: negative UID %d", b.Name, in.UID)
			}
			if prev := defs[in.UID]; prev != nil {
				return verifyErr("duplicate UID %d (%s and %s)", in.UID, prev.Op, in.Op)
			}
			defs[in.UID] = in
			if in.Typ != Void {
				defPos[in.UID] = Pos{Block: b.Name, Index: i}
			}
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return verifyErr("block %q does not end in a terminator (ends in %s)", b.Name, in.Op)
				}
				return verifyErr("block %q has terminator %s mid-block at %d", b.Name, in.Op, i)
			}
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return verifyErr("block %q: phi %%%d not at block start", b.Name, in.UID)
			}
		}
	}
	for _, b := range f.Blocks {
		for _, s := range b.Terminator().Succs {
			if !names[s] {
				return verifyErr("block %q branches to unknown block %q", b.Name, s)
			}
		}
	}

	dom := ComputeDom(f)
	preds := f.Preds()

	// visible reports whether the operand's defining value is available at
	// the given use position with its claimed type.
	visible := func(o Operand, use Pos) bool {
		if o.Kind != OperInstr {
			return true
		}
		if o.Ref < 0 || o.Ref >= len(defs) {
			return false
		}
		if d := defs[o.Ref]; d == nil || d.Typ == Void || d.Typ != o.Typ {
			return false
		}
		def := defPos[o.Ref]
		if def.Block == use.Block {
			return def.Index < use.Index
		}
		return dom.Dominates(def.Block, use.Block)
	}

	for _, b := range f.Blocks {
		if !dom.Reachable(b.Name) {
			continue // unreachable code never executes; tolerate it
		}
		for i, in := range b.Instrs {
			if err := checkSignature(f, in); err != nil {
				return err
			}
			use := Pos{Block: b.Name, Index: i}
			if in.Op == OpPhi {
				seenInc := make(map[string]bool, len(in.Inc))
				for _, inc := range in.Inc {
					// Duplicate incomings make the edge's parallel copy
					// write one destination twice — which value wins would
					// be an artifact of lowering order.
					if seenInc[inc.Block] {
						return verifyErr("phi %%%d has duplicate incoming for %q", in.UID, inc.Block)
					}
					seenInc[inc.Block] = true
				}
				for _, p := range preds[b.Name] {
					if !dom.Reachable(p) {
						continue
					}
					found := false
					for _, inc := range in.Inc {
						if inc.Block == p {
							found = true
							// The incoming value must be available at the end
							// of the predecessor.
							pb := f.BlockByName(p)
							if !visible(inc.Val, Pos{Block: p, Index: len(pb.Instrs)}) {
								return verifyErr("phi %%%d: incoming from %q not dominated by its def", in.UID, p)
							}
							break
						}
					}
					if !found {
						return verifyErr("phi %%%d in %q missing incoming for predecessor %q", in.UID, b.Name, p)
					}
				}
				continue
			}
			for ai, a := range in.Args {
				if !visible(a, use) {
					return verifyErr("%%%d (%s) arg %d uses %%%d which does not dominate it", in.UID, in.Op, ai, a.Ref)
				}
			}
		}
	}
	return nil
}

// VerifyStrict checks everything Verify does and additionally rejects
// unreachable blocks. Mutants legitimately strand blocks (a deleted branch
// orphans the code it guarded), so the engine's viability check stays
// Verify; strict mode is for sources that promise fully live CFGs — the
// hand-written kernels and the synth generator — where an unreachable
// block means a construction bug, not a search step.
func (m *Module) VerifyStrict() error {
	for _, f := range m.Funcs {
		if err := f.VerifyStrict(); err != nil {
			return fmt.Errorf("kernel %s: %w", f.Name, err)
		}
	}
	return nil
}

// VerifyStrict checks a single function. See Module.VerifyStrict.
func (f *Function) VerifyStrict() error {
	if err := f.Verify(); err != nil {
		return err
	}
	dom := ComputeDom(f)
	for _, b := range f.Blocks {
		if !dom.Reachable(b.Name) {
			return verifyErr("block %q is unreachable", b.Name)
		}
	}
	return nil
}

// sig describes the operand signature of an opcode.
type sig struct {
	nargs   int
	resVoid bool // result must be Void
}

func checkSignature(f *Function, in *Instr) error {
	bad := func(format string, args ...any) error {
		return verifyErr("%%%d (%s): %s", in.UID, in.Op, fmt.Sprintf(format, args...))
	}
	argType := func(i int) Type { return in.Args[i].Typ }
	need := func(n int) error {
		if len(in.Args) != n {
			return bad("want %d args, have %d", n, len(in.Args))
		}
		return nil
	}
	for i, a := range in.Args {
		if a.Kind == OperParam {
			if a.Index < 0 || a.Index >= len(f.Params) {
				return bad("arg %d references parameter %d of %d", i, a.Index, len(f.Params))
			}
			if f.Params[a.Index] != a.Typ {
				return bad("arg %d parameter type %s != declared %s", i, a.Typ, f.Params[a.Index])
			}
		}
		if a.Kind == OperSpecial && (a.Index < 0 || a.Index >= int(numSpecials)) {
			return bad("arg %d references unknown special %d", i, a.Index)
		}
	}

	switch {
	case in.Op.IsIntArith():
		if err := need(2); err != nil {
			return err
		}
		if !in.Typ.IsInt() || in.Typ == I1 && in.Op != OpAnd && in.Op != OpOr && in.Op != OpXor {
			return bad("result type %s invalid for int arith", in.Typ)
		}
		if argType(0) != in.Typ || argType(1) != in.Typ {
			return bad("operand types %s,%s != result %s", argType(0), argType(1), in.Typ)
		}
	case in.Op.IsFloatArith():
		if err := need(2); err != nil {
			return err
		}
		if !in.Typ.IsFloat() || argType(0) != in.Typ || argType(1) != in.Typ {
			return bad("float arith types mismatch")
		}
	case in.Op == OpICmp:
		if err := need(2); err != nil {
			return err
		}
		if in.Typ != I1 || !argType(0).IsInt() || argType(0) != argType(1) {
			return bad("icmp wants matching int operands and i1 result")
		}
	case in.Op == OpFCmp:
		if err := need(2); err != nil {
			return err
		}
		if in.Typ != I1 || !argType(0).IsFloat() || argType(0) != argType(1) {
			return bad("fcmp wants matching float operands and i1 result")
		}
	case in.Op == OpSelect:
		if err := need(3); err != nil {
			return err
		}
		if argType(0) != I1 || argType(1) != in.Typ || argType(2) != in.Typ {
			return bad("select wants (i1, %s, %s)", in.Typ, in.Typ)
		}
	case in.Op == OpZext || in.Op == OpSext:
		if err := need(1); err != nil {
			return err
		}
		if !argType(0).IsInt() || !in.Typ.IsInt() || argType(0).Size() > in.Typ.Size() {
			return bad("extension from %s to %s", argType(0), in.Typ)
		}
	case in.Op == OpTrunc:
		if err := need(1); err != nil {
			return err
		}
		if !argType(0).IsInt() || !in.Typ.IsInt() || argType(0).Size() < in.Typ.Size() {
			return bad("truncation from %s to %s", argType(0), in.Typ)
		}
	case in.Op == OpSIToFP:
		if err := need(1); err != nil {
			return err
		}
		if !argType(0).IsInt() || !in.Typ.IsFloat() {
			return bad("sitofp from %s to %s", argType(0), in.Typ)
		}
	case in.Op == OpFPToSI:
		if err := need(1); err != nil {
			return err
		}
		if !argType(0).IsFloat() || !in.Typ.IsInt() {
			return bad("fptosi from %s to %s", argType(0), in.Typ)
		}
	case in.Op == OpLoad:
		if err := need(1); err != nil {
			return err
		}
		if argType(0) != I64 || in.Typ == Void {
			return bad("load wants i64 address and non-void result")
		}
	case in.Op == OpStore:
		if err := need(2); err != nil {
			return err
		}
		if argType(1) != I64 || in.Typ != Void {
			return bad("store wants (val, i64 addr) and void result")
		}
	case in.Op == OpAtomicAdd || in.Op == OpAtomicMax || in.Op == OpAtomicExch:
		if err := need(2); err != nil {
			return err
		}
		if argType(0) != I64 || argType(1) != in.Typ || !in.Typ.IsInt() {
			return bad("atomic wants (i64 addr, %s val)", in.Typ)
		}
	case in.Op == OpAtomicCAS:
		if err := need(3); err != nil {
			return err
		}
		if argType(0) != I64 || argType(1) != in.Typ || argType(2) != in.Typ || !in.Typ.IsInt() {
			return bad("atomiccas wants (i64 addr, %s expected, %s desired)", in.Typ, in.Typ)
		}
	case in.Op == OpBarrier:
		if err := need(0); err != nil {
			return err
		}
		if in.Typ != Void {
			return bad("barrier result must be void")
		}
	case in.Op == OpShfl:
		if err := need(2); err != nil {
			return err
		}
		if argType(0) != in.Typ || argType(1) != I32 {
			return bad("shfl wants (%s val, i32 lane)", in.Typ)
		}
	case in.Op == OpBallot:
		if err := need(1); err != nil {
			return err
		}
		if argType(0) != I1 || in.Typ != I32 {
			return bad("ballot wants (i1) -> i32")
		}
	case in.Op == OpActiveMask:
		if err := need(0); err != nil {
			return err
		}
		if in.Typ != I32 {
			return bad("activemask returns i32")
		}
	case in.Op == OpBr:
		if err := need(0); err != nil {
			return err
		}
		if len(in.Succs) != 1 {
			return bad("br wants 1 successor, have %d", len(in.Succs))
		}
	case in.Op == OpCondBr:
		if err := need(1); err != nil {
			return err
		}
		if argType(0) != I1 || len(in.Succs) != 2 {
			return bad("condbr wants i1 condition and 2 successors")
		}
	case in.Op == OpRet:
		if err := need(0); err != nil {
			return err
		}
	case in.Op == OpPhi:
		if in.Typ == Void {
			return bad("phi result must be non-void")
		}
		for _, inc := range in.Inc {
			if inc.Val.Typ != in.Typ {
				return bad("phi incoming from %q has type %s, want %s", inc.Block, inc.Val.Typ, in.Typ)
			}
		}
	case in.Op == OpNop:
		// no constraints
	default:
		return bad("unknown opcode")
	}
	return nil
}
