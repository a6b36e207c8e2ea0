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
	_, err := m.Analyze()
	return err
}

// Analyze verifies the module and returns the control-flow analysis the
// verification built, one CFG per function in Funcs order, so the compiler
// does not derive it again.
func (m *Module) Analyze() ([]*CFG, error) {
	cfgs := make([]*CFG, len(m.Funcs))
	for i, f := range m.Funcs {
		g, err := f.Analyze()
		if err != nil {
			return nil, fmt.Errorf("kernel %s: %w", f.Name, err)
		}
		cfgs[i] = g
	}
	return cfgs, nil
}

// Verify checks a single function. See Module.Verify.
func (f *Function) Verify() error {
	_, err := f.Analyze()
	return err
}

// Analyze verifies a single function and returns its CFG. See Module.Analyze.
func (f *Function) Analyze() (*CFG, error) {
	if len(f.Blocks) == 0 {
		return nil, verifyErr("no blocks")
	}
	g := NewCFG(f)
	// UIDs are dense below NextUID (checked below), so the per-UID table is a
	// slice: defs[uid] is the instruction carrying the UID (in == nil: none)
	// and where it sits.
	type def struct {
		in           *Instr
		block, index int32
	}
	defs := make([]def, max(f.NextUID, 0))
	for bi, b := range f.Blocks {
		if b.Name == "" {
			return nil, verifyErr("unnamed block")
		}
		if g.index[b.Name] != int32(bi) {
			return nil, verifyErr("duplicate block %q", b.Name)
		}
		if len(b.Instrs) == 0 {
			return nil, verifyErr("block %q is empty", b.Name)
		}
		for i, in := range b.Instrs {
			if in.UID >= f.NextUID {
				return nil, verifyErr("block %q: UID %d >= NextUID %d", b.Name, in.UID, f.NextUID)
			}
			if in.UID < 0 {
				return nil, verifyErr("block %q: negative UID %d", b.Name, in.UID)
			}
			if prev := defs[in.UID].in; prev != nil {
				return nil, verifyErr("duplicate UID %d (%s and %s)", in.UID, prev.Op, in.Op)
			}
			defs[in.UID] = def{in: in, block: int32(bi), index: int32(i)}
			isLast := i == len(b.Instrs)-1
			if in.Op.IsTerminator() != isLast {
				if isLast {
					return nil, verifyErr("block %q does not end in a terminator (ends in %s)", b.Name, in.Op)
				}
				return nil, verifyErr("block %q has terminator %s mid-block at %d", b.Name, in.Op, i)
			}
			if in.Op == OpPhi && i > 0 && b.Instrs[i-1].Op != OpPhi {
				return nil, verifyErr("block %q: phi %%%d not at block start", b.Name, in.UID)
			}
		}
	}
	for _, b := range f.Blocks {
		for _, s := range b.Terminator().Succs {
			if _, ok := g.index[s]; !ok {
				return nil, verifyErr("block %q branches to unknown block %q", b.Name, s)
			}
		}
	}

	// visible reports whether the operand's defining value is available at
	// position index of the given block with its claimed type.
	visible := func(o Operand, block, index int32) bool {
		if o.Kind != OperInstr {
			return true
		}
		if o.Ref < 0 || o.Ref >= len(defs) {
			return false
		}
		d := &defs[o.Ref]
		if d.in == nil || d.in.Typ == Void || d.in.Typ != o.Typ {
			return false
		}
		if d.block == block {
			return d.index < index
		}
		return g.Dominates(d.block, block)
	}

	for bi, b := range f.Blocks {
		bi := int32(bi)
		if !g.Reachable(bi) {
			continue // unreachable code never executes; tolerate it
		}
		for i, in := range b.Instrs {
			if err := checkSignature(f, in); err != nil {
				return nil, err
			}
			if in.Op == OpPhi {
				if err := checkPhi(f, g, bi, in, visible); err != nil {
					return nil, err
				}
				continue
			}
			for ai, a := range in.Args {
				if !visible(a, bi, int32(i)) {
					return nil, verifyErr("%%%d (%s) arg %d uses %%%d which does not dominate it", in.UID, in.Op, ai, a.Ref)
				}
			}
		}
	}
	return g, nil
}

// checkPhi checks the incomings of one phi of reachable block bi: no
// predecessor named twice, and for every reachable predecessor an incoming
// whose value is available at that predecessor's end.
func checkPhi(f *Function, g *CFG, bi int32, in *Instr, visible func(Operand, int32, int32) bool) error {
	for i := range in.Inc {
		for j := 0; j < i; j++ {
			// Duplicate incomings make the edge's parallel copy write one
			// destination twice — which value wins would be an artifact of
			// lowering order.
			if in.Inc[j].Block == in.Inc[i].Block {
				return verifyErr("phi %%%d has duplicate incoming for %q", in.UID, in.Inc[i].Block)
			}
		}
	}
	for _, p := range g.Preds(bi) {
		if !g.Reachable(p) {
			continue
		}
		pb := f.Blocks[p]
		found := false
		for _, inc := range in.Inc {
			if inc.Block == pb.Name {
				found = true
				if !visible(inc.Val, p, int32(len(pb.Instrs))) {
					return verifyErr("phi %%%d: incoming from %q not dominated by its def", in.UID, pb.Name)
				}
				break
			}
		}
		if !found {
			return verifyErr("phi %%%d in %q missing incoming for predecessor %q", in.UID, f.Blocks[bi].Name, pb.Name)
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
	g, err := f.Analyze()
	if err != nil {
		return err
	}
	for i, b := range f.Blocks {
		if !g.Reachable(int32(i)) {
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
