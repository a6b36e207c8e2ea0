package ir

import (
	"fmt"
	"math"
)

// Opcode enumerates every IR instruction. The set mirrors the subset of
// LLVM-IR plus NVPTX intrinsics that appear in the paper's kernels.
type Opcode uint8

const (
	OpNop Opcode = iota

	// Integer arithmetic (operands and result share the instruction type).
	OpAdd
	OpSub
	OpMul
	OpSDiv
	OpSRem
	OpAnd
	OpOr
	OpXor
	OpShl
	OpLShr
	OpAShr
	OpSMin
	OpSMax

	// Floating-point arithmetic.
	OpFAdd
	OpFSub
	OpFMul
	OpFDiv
	OpFMin
	OpFMax

	// Comparisons: result type I1, operand type from the instruction's Cmp
	// operand types (recorded in ArgType).
	OpICmp
	OpFCmp

	// OpSelect picks arg1 or arg2 based on the i1 arg0.
	OpSelect

	// Conversions.
	OpZext   // zero-extend smaller int to the result type
	OpSext   // sign-extend smaller int to the result type
	OpTrunc  // truncate larger int to the result type
	OpSIToFP // signed int -> f64
	OpFPToSI // f64 -> signed int

	// Memory. Addresses are I64 byte offsets into the instruction's Space.
	OpLoad  // load  <type> [space] (addr)
	OpStore // store <type> [space] (val, addr)

	// Atomics on global or shared memory. Result is the old value.
	OpAtomicAdd  // (addr, val)
	OpAtomicMax  // (addr, val)
	OpAtomicCAS  // (addr, expected, desired); result = old value
	OpAtomicExch // (addr, val)

	// GPU intrinsics.
	OpBarrier    // __syncthreads()
	OpShfl       // __shfl_sync(fullmask, val, srcLane): (val, lane) -> val's type
	OpBallot     // __ballot_sync(fullmask, pred): (i1) -> i32 lane mask
	OpActiveMask // __activemask(): () -> i32 lane mask

	// Terminators.
	OpBr     // unconditional branch; Succs[0]
	OpCondBr // conditional branch; arg0 i1; Succs[0]=then, Succs[1]=else
	OpRet    // return void (kernels return no value)

	// OpPhi selects a value based on the predecessor block.
	OpPhi

	numOpcodes
)

var opNames = [numOpcodes]string{
	OpNop: "nop", OpAdd: "add", OpSub: "sub", OpMul: "mul", OpSDiv: "sdiv",
	OpSRem: "srem", OpAnd: "and", OpOr: "or", OpXor: "xor", OpShl: "shl",
	OpLShr: "lshr", OpAShr: "ashr", OpSMin: "smin", OpSMax: "smax",
	OpFAdd: "fadd", OpFSub: "fsub", OpFMul: "fmul", OpFDiv: "fdiv",
	OpFMin: "fmin", OpFMax: "fmax", OpICmp: "icmp", OpFCmp: "fcmp",
	OpSelect: "select", OpZext: "zext", OpSext: "sext", OpTrunc: "trunc",
	OpSIToFP: "sitofp", OpFPToSI: "fptosi", OpLoad: "load", OpStore: "store",
	OpAtomicAdd: "atomicadd", OpAtomicMax: "atomicmax", OpAtomicCAS: "atomiccas",
	OpAtomicExch: "atomicexch", OpBarrier: "barrier", OpShfl: "shfl",
	OpBallot: "ballot", OpActiveMask: "activemask", OpBr: "br",
	OpCondBr: "condbr", OpRet: "ret", OpPhi: "phi",
}

func (o Opcode) String() string {
	if int(o) < len(opNames) && opNames[o] != "" {
		return opNames[o]
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// OpcodeByName maps the textual form back to an Opcode; used by the parser.
func OpcodeByName(s string) (Opcode, bool) {
	for op := Opcode(0); op < numOpcodes; op++ {
		if opNames[op] == s {
			return op, true
		}
	}
	return OpNop, false
}

// IsTerminator reports whether the opcode ends a basic block.
func (o Opcode) IsTerminator() bool { return o == OpBr || o == OpCondBr || o == OpRet }

// IsIntArith reports whether the opcode is two-operand integer arithmetic.
func (o Opcode) IsIntArith() bool { return o >= OpAdd && o <= OpSMax }

// IsFloatArith reports whether the opcode is two-operand float arithmetic.
func (o Opcode) IsFloatArith() bool { return o >= OpFAdd && o <= OpFMax }

// IsMemRead reports whether the opcode reads memory.
func (o Opcode) IsMemRead() bool {
	return o == OpLoad || (o >= OpAtomicAdd && o <= OpAtomicExch)
}

// IsMemWrite reports whether the opcode writes memory.
func (o Opcode) IsMemWrite() bool {
	return o == OpStore || (o >= OpAtomicAdd && o <= OpAtomicExch)
}

// HasSideEffects reports whether the instruction must not be removed or
// reordered freely: memory writes, barriers and terminators.
func (o Opcode) HasSideEffects() bool {
	return o.IsMemWrite() || o == OpBarrier || o.IsTerminator()
}

// Pred is a comparison predicate for OpICmp / OpFCmp.
type Pred uint8

const (
	PredEQ Pred = iota
	PredNE
	PredLT
	PredLE
	PredGT
	PredGE
	numPreds
)

var predNames = [numPreds]string{"eq", "ne", "lt", "le", "gt", "ge"}

func (p Pred) String() string {
	if int(p) < len(predNames) {
		return predNames[p]
	}
	return fmt.Sprintf("pred(%d)", uint8(p))
}

// PredByName maps the textual form back to a Pred; used by the parser.
func PredByName(s string) (Pred, bool) {
	for p := Pred(0); p < numPreds; p++ {
		if predNames[p] == s {
			return p, true
		}
	}
	return 0, false
}

// OperandKind distinguishes how an operand value is obtained at run time.
type OperandKind uint8

const (
	// OperConst is an immediate constant (bits stored in Const).
	OperConst OperandKind = iota
	// OperInstr references the result of the instruction with UID Ref.
	OperInstr
	// OperParam references kernel parameter Index.
	OperParam
	// OperSpecial reads the hardware special register Special(Index).
	OperSpecial
)

// Operand is a use of an SSA value.
type Operand struct {
	Kind  OperandKind
	Typ   Type
	Const uint64 // OperConst: raw bits (ints sign-extended, floats IEEE-754)
	Ref   int    // OperInstr: UID of the defining instruction
	Index int    // OperParam: parameter index; OperSpecial: Special code
}

// ConstInt builds an integer-constant operand of the given type.
func ConstInt(t Type, v int64) Operand {
	return Operand{Kind: OperConst, Typ: t, Const: uint64(v)}
}

// ConstBool builds an i1 constant operand.
func ConstBool(b bool) Operand {
	var v uint64
	if b {
		v = 1
	}
	return Operand{Kind: OperConst, Typ: I1, Const: v}
}

// ConstFloat builds an f64 constant operand.
func ConstFloat(v float64) Operand {
	return Operand{Kind: OperConst, Typ: F64, Const: math.Float64bits(v)}
}

// Param builds an operand referencing kernel parameter i.
func Param(i int, t Type) Operand {
	return Operand{Kind: OperParam, Typ: t, Index: i}
}

// SpecialReg builds an operand reading a hardware special register. All
// special registers are I32.
func SpecialReg(s Special) Operand {
	return Operand{Kind: OperSpecial, Typ: I32, Index: int(s)}
}

// Reg builds an operand referencing the result of the instruction with the
// given UID and result type.
func Reg(uid int, t Type) Operand {
	return Operand{Kind: OperInstr, Typ: t, Ref: uid}
}

// Equal reports whether two operands are identical uses.
func (o Operand) Equal(p Operand) bool { return o == p }

// Incoming is one (predecessor block, value) pair of a phi node.
type Incoming struct {
	Block string
	Val   Operand
}

// Instr is a single IR instruction. Instructions are identified by UID,
// which is stable across module clones: edits recorded by the evolutionary
// engine reference UIDs, so an edit list can be replayed on a fresh copy of
// the base program (Section II-A of the paper).
//
// An instruction is immutable once the module that holds it is constructed
// (by the builder, the parser or Clone): variants of a module share its
// *Instr values (Module.Share), concurrently, so nothing reachable from a
// workload's base module is ever written. An edit that changes an instruction
// puts an edited copy in its place. Clone the module to get instructions that
// may be written.
type Instr struct {
	// UID uniquely identifies the instruction within its function.
	UID int
	Op  Opcode
	// Typ is the result type; Void for instructions producing no value.
	Typ Type
	// Pred is the comparison predicate for OpICmp / OpFCmp.
	Pred Pred
	// Space is the address space for memory operations.
	Space MemSpace
	// Args are the value operands.
	Args []Operand
	// Succs are successor block names for terminators.
	Succs []string
	// Inc lists phi incomings for OpPhi.
	Inc []Incoming
	// Loc is a 1-based line number into the module's pseudo-source listing,
	// the analog of the paper's Clang debug-info instrumentation; 0 = none.
	Loc int
}

// Clone returns a deep copy of the instruction, preserving the UID.
func (in *Instr) Clone() *Instr {
	cp := *in
	cp.Args = append([]Operand(nil), in.Args...)
	cp.Succs = append([]string(nil), in.Succs...)
	cp.Inc = append([]Incoming(nil), in.Inc...)
	return &cp
}

// Result returns an operand referencing this instruction's result. It panics
// if the instruction produces no value.
func (in *Instr) Result() Operand {
	if in.Typ == Void {
		panic(fmt.Sprintf("ir: instruction %%%d (%s) has no result", in.UID, in.Op))
	}
	return Reg(in.UID, in.Typ)
}

// Uses returns the UIDs of instructions whose results this instruction uses,
// including phi incomings.
func (in *Instr) Uses() []int {
	var uids []int
	for _, a := range in.Args {
		if a.Kind == OperInstr {
			uids = append(uids, a.Ref)
		}
	}
	for _, inc := range in.Inc {
		if inc.Val.Kind == OperInstr {
			uids = append(uids, inc.Val.Ref)
		}
	}
	return uids
}
