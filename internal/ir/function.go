package ir

import (
	"cmp"
	"fmt"
	"slices"
)

// Block is a basic block: a named, ordered list of instructions whose last
// instruction is a terminator.
type Block struct {
	Name   string
	Instrs []*Instr
}

// Terminator returns the block's final instruction, or nil if the block is
// empty or does not end in a terminator.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	if !t.Op.IsTerminator() {
		return nil
	}
	return t
}

// Clone returns a deep copy of the block.
func (b *Block) Clone() *Block {
	nb := &Block{Name: b.Name, Instrs: make([]*Instr, len(b.Instrs))}
	for i, in := range b.Instrs {
		nb.Instrs[i] = in.Clone()
	}
	return nb
}

// SharedDecl records one named shared-memory array declared by a kernel,
// mirroring CUDA __shared__ declarations. Offsets are byte offsets into the
// block's shared-memory segment.
type SharedDecl struct {
	Name   string
	Offset int
	Bytes  int
}

// Function is a GPU kernel in SSA form.
type Function struct {
	Name string
	// Params are the kernel parameter types, set at launch.
	Params []Type
	// ParamNames are human-readable names parallel to Params.
	ParamNames []string
	// SharedBytes is the per-block shared memory requirement.
	SharedBytes int
	// Shared lists the named shared arrays inside the segment.
	Shared []SharedDecl
	// Blocks holds the basic blocks; Blocks[0] is the entry block.
	Blocks []*Block
	// NextUID is the next unused instruction UID.
	NextUID int
}

// share returns a copy of the function with its own header, block headers and
// per-block instruction lists, pointing at f's instructions. See Module.Share.
func (f *Function) share() *Function {
	nf := new(Function)
	*nf = *f
	blocks := make([]Block, len(f.Blocks))
	nf.Blocks = make([]*Block, len(f.Blocks))
	instrs := make([]*Instr, 0, f.NumInstrs())
	for i, b := range f.Blocks {
		lo := len(instrs)
		instrs = append(instrs, b.Instrs...)
		// Capacity stops at the block's end, so an insertion reallocates this
		// block's list instead of running into the next block's.
		blocks[i] = Block{Name: b.Name, Instrs: instrs[lo:len(instrs):len(instrs)]}
		nf.Blocks[i] = &blocks[i]
	}
	return nf
}

// Clone returns a deep copy of the function. Instruction UIDs are preserved
// so that recorded edits remain valid on the clone.
func (f *Function) Clone() *Function {
	nf := &Function{
		Name:        f.Name,
		Params:      append([]Type(nil), f.Params...),
		ParamNames:  append([]string(nil), f.ParamNames...),
		SharedBytes: f.SharedBytes,
		Shared:      append([]SharedDecl(nil), f.Shared...),
		Blocks:      make([]*Block, len(f.Blocks)),
		NextUID:     f.NextUID,
	}
	for i, b := range f.Blocks {
		nf.Blocks[i] = b.Clone()
	}
	return nf
}

// NewUID allocates a fresh instruction UID.
func (f *Function) NewUID() int {
	uid := f.NextUID
	f.NextUID++
	return uid
}

// BlockByName returns the named block, or nil.
func (f *Function) BlockByName(name string) *Block {
	for _, b := range f.Blocks {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Pos addresses an instruction position within a function as (block name,
// index within block). Positions are computed against a concrete function
// instance; after structural edits they must be recomputed.
type Pos struct {
	Block string
	Index int
}

// Find locates the instruction with the given UID, returning its position.
// The boolean result reports whether it was found.
func (f *Function) Find(uid int) (Pos, bool) {
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.UID == uid {
				return Pos{Block: b.Name, Index: i}, true
			}
		}
	}
	return Pos{}, false
}

// InstrAt returns the instruction at the given position, or nil if the
// position is out of range.
func (f *Function) InstrAt(p Pos) *Instr {
	b := f.BlockByName(p.Block)
	if b == nil || p.Index < 0 || p.Index >= len(b.Instrs) {
		return nil
	}
	return b.Instrs[p.Index]
}

// InstrByUID returns the instruction with the given UID, or nil.
func (f *Function) InstrByUID(uid int) *Instr {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if in.UID == uid {
				return in
			}
		}
	}
	return nil
}

// RemoveAt removes and returns the instruction at the given position. It
// returns nil if the position is invalid.
func (f *Function) RemoveAt(p Pos) *Instr {
	b := f.BlockByName(p.Block)
	if b == nil || p.Index < 0 || p.Index >= len(b.Instrs) {
		return nil
	}
	in := b.Instrs[p.Index]
	b.Instrs = append(b.Instrs[:p.Index], b.Instrs[p.Index+1:]...)
	return in
}

// InsertAt inserts the instruction at the given position (it will occupy
// p.Index). It reports whether the insertion succeeded.
func (f *Function) InsertAt(p Pos, in *Instr) bool {
	b := f.BlockByName(p.Block)
	if b == nil || p.Index < 0 || p.Index > len(b.Instrs) {
		return false
	}
	b.Instrs = append(b.Instrs, nil)
	copy(b.Instrs[p.Index+1:], b.Instrs[p.Index:])
	b.Instrs[p.Index] = in
	return true
}

// Instructions returns all instructions in block order. The slice aliases the
// live instructions; callers must not retain it across edits.
func (f *Function) Instructions() []*Instr {
	var out []*Instr
	for _, b := range f.Blocks {
		out = append(out, b.Instrs...)
	}
	return out
}

// NumInstrs returns the total instruction count.
func (f *Function) NumInstrs() int {
	n := 0
	for _, b := range f.Blocks {
		n += len(b.Instrs)
	}
	return n
}

// ConstPool returns the distinct constant operands appearing in the
// function, sorted for determinism. The evolutionary operand-replacement
// operator draws replacement constants from this pool, matching GEVO's
// behaviour of only introducing constants already present in the program.
func (f *Function) ConstPool() []Operand {
	var pool []Operand
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for _, a := range in.Args {
				if a.Kind == OperConst {
					pool = append(pool, a)
				}
			}
			for _, inc := range in.Inc {
				if inc.Val.Kind == OperConst {
					pool = append(pool, inc.Val)
				}
			}
		}
	}
	slices.SortFunc(pool, func(a, b Operand) int {
		return cmp.Or(cmp.Compare(a.Typ, b.Typ), cmp.Compare(a.Const, b.Const),
			cmp.Compare(a.Ref, b.Ref), cmp.Compare(a.Index, b.Index))
	})
	return slices.Compact(pool)
}

// Module is a set of kernels compiled from one GPU program, plus the
// pseudo-source listing that instruction Locs index into (the analog of the
// paper's debug-info-instrumented Clang output).
type Module struct {
	Name   string
	Funcs  []*Function
	Source []string
}

// Share returns a copy-on-write copy of the module: the module, function and
// block headers and every block's instruction list are new, so instructions
// can be inserted, removed, reordered and replaced without touching m, but
// the *Instr values themselves (and the parameter, shared-array and source
// tables) are m's. The copy costs a few allocations however large the module
// is. A writer replaces an instruction pointer with an edited copy; it never
// writes through one (see Instr). Clone is the way to get a module whose
// instructions may be written.
func (m *Module) Share() *Module {
	nm := &Module{Name: m.Name, Funcs: make([]*Function, len(m.Funcs)), Source: m.Source}
	for i, f := range m.Funcs {
		nm.Funcs[i] = f.share()
	}
	return nm
}

// Clone returns a deep copy of the module: nothing reachable from the result
// is shared with m, so its instructions may be written in place.
func (m *Module) Clone() *Module {
	nm := &Module{
		Name:   m.Name,
		Funcs:  make([]*Function, len(m.Funcs)),
		Source: append([]string(nil), m.Source...),
	}
	for i, f := range m.Funcs {
		nm.Funcs[i] = f.Clone()
	}
	return nm
}

// Func returns the named kernel, or nil.
func (m *Module) Func(name string) *Function {
	for _, f := range m.Funcs {
		if f.Name == name {
			return f
		}
	}
	return nil
}

// NumInstrs returns the total instruction count across all kernels, the
// metric the paper reports for program sizes (e.g. ADEPT-V0's 1097 LLVM-IR
// instructions).
func (m *Module) NumInstrs() int {
	n := 0
	for _, f := range m.Funcs {
		n += f.NumInstrs()
	}
	return n
}

// SourceLine returns the 1-based pseudo-source line, or "" if out of range.
func (m *Module) SourceLine(loc int) string {
	if loc <= 0 || loc > len(m.Source) {
		return ""
	}
	return m.Source[loc-1]
}

// GlobalUID addresses an instruction across a module as (function, UID).
type GlobalUID struct {
	Func string
	UID  int
}

func (g GlobalUID) String() string { return fmt.Sprintf("%s/%%%d", g.Func, g.UID) }
