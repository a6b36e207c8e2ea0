package gpu

import (
	"fmt"
	"os"
	"sort"
	"sync/atomic"

	"gevo/internal/ir"
)

// verifyCompiled gates post-compile verification inside Prepare. Off by
// default (the checks are pure overhead on a correct compiler); flipped on
// by the GEVO_VERIFY_COMPILED environment variable or SetVerifyCompiled.
// The differential backend tests and the synth fuzz corpus always enable
// it, so every program those suites touch is audited.
var verifyCompiled atomic.Bool

func init() {
	if os.Getenv("GEVO_VERIFY_COMPILED") != "" {
		verifyCompiled.Store(true)
	}
}

// SetVerifyCompiled toggles post-compile verification in Prepare and
// returns the previous setting (restore it in test cleanup).
func SetVerifyCompiled(on bool) bool { return verifyCompiled.Swap(on) }

// Compiled-program verification: a structural audit of the threaded-code
// form that Compile and its rewrite passes (operand resolution, extended
// slot assignment, copy propagation, phi-copy lowering, compare/branch
// fusion) emit. ir.Verify guarantees the *source* module is well formed;
// nothing until now checked that the compiled artifact still is after every
// rewrite. VerifyKernel re-derives the invariants each pass is supposed to
// preserve and reports the first violation, so a miscompile surfaces as a
// named structural error at compile time instead of as a wrong fitness
// value (or an out-of-bounds slice panic) deep inside a search.
//
// The checks, in order:
//
//   - register-slot bounds: every pre-resolved operand offset (uop d/s1/s2/s3,
//     cinstr ebase, phi-copy source and destination, extended-slot fills,
//     clearBases) lies inside the extended register file and on a warpSize
//     boundary;
//   - jump-table validity: every uop carries a known opcode and in-range
//     cost classes, and every control uop's successors and reconvergence
//     index name real blocks;
//   - lane-invariance marks: only a code with a lane-invariant path carries
//     uop.inv — never an escape, a charge-only copy, br, ret, a barrier or
//     a warp primitive (shfl, ballot, activemask);
//   - register homes: a marked micro-op reads every operand's word (a
//     lane-invariant slot's, or an extended slot) and writes its
//     destination's, filling that slot's lanes exactly when it has them;
//     nothing reads a slot whose home is its word alone from its lanes — no
//     micro-op that is not marked, no escape, no lane copy of a phi edge;
//   - straight-line walk: replaying runWarpU's pc arithmetic (uMulAdd64
//     advances by two, fused compare-branches terminate) proves every block
//     reaches a terminator without falling off its uop stream;
//   - def-before-use: recomputed dominance over the *compiled* CFG proves
//     every register read is dominated by its write (phi-copy destinations
//     count as defined on block entry, extended slots at launch);
//   - shfl zero-init: every shfl value operand that reads a real register
//     appears in clearBases, the set of slots the backend zeroes at block
//     start (shfl is the one instruction reading lanes outside its mask);
//   - phi-copy coherence: the lowered closure and its plan exist exactly
//     when the edge carries copies, destinations are written at
//     most once per edge, the plan moves a word for exactly the copies into a
//     lane-invariant slot and lanes for the rest, its interference flags
//     match a recomputation, and the merged memmove plan of interference-free
//     lane copies decomposes back into exactly the copies it claims to
//     realize.
//
// Unreachable blocks are compiled but never entered; the walk and bounds
// checks still run on them, the dominance check skips them (no execution
// path implies no defined-set to check against).

// VerifyProgram verifies every kernel of a compiled program, in name order
// so a multi-kernel failure is reported deterministically.
func VerifyProgram(p *Program) error {
	names := make([]string, 0, len(p.Kernels))
	for name := range p.Kernels {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := VerifyKernel(p.Kernels[name]); err != nil {
			return err
		}
	}
	return nil
}

// VerifyKernel checks the structural invariants of one compiled kernel.
func VerifyKernel(k *Kernel) error {
	v := &kernelVerifier{k: k, nb: int32(len(k.blocks))}
	checks := []func() error{
		v.checkLayout,
		v.checkExtFills,
		v.checkUops,
		v.checkWalks,
		v.checkClearBases,
		v.checkPhiEdges,
		v.checkDefUse,
	}
	for _, c := range checks {
		if err := c(); err != nil {
			return fmt.Errorf("gpu: verify %s: %w", k.Name, err)
		}
	}
	return nil
}

type kernelVerifier struct {
	k  *Kernel
	nb int32
	// succs/reach are computed by checkWalks and consumed by checkDefUse.
	succs [][]int32
	reach []bool
}

func (v *kernelVerifier) checkLayout() error {
	k := v.k
	if len(k.blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	if k.nslots < 0 || k.totalSlots < k.nslots {
		return fmt.Errorf("slot layout: %d real slots, %d total", k.nslots, k.totalSlots)
	}
	if k.regSlots*warpSize < k.totalSlots*warpSize+k.nslots+warpSize {
		return fmt.Errorf("register file of %d slots leaves no room for the scalar file", k.regSlots)
	}
	if len(k.home) != k.nslots {
		return fmt.Errorf("%d register homes for %d real slots", len(k.home), k.nslots)
	}
	for s, h := range k.home {
		if h < homeLanes || h > homeScalar {
			return fmt.Errorf("slot %d: register home %d out of range", s, h)
		}
	}
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		if len(cb.uops) != len(cb.ins) {
			return fmt.Errorf("block %s: %d instructions but %d uops",
				cb.name, len(cb.ins), len(cb.uops))
		}
		if len(cb.phiFrom) != len(k.blocks) {
			return fmt.Errorf("block %s: phiFrom covers %d predecessors, want %d",
				cb.name, len(cb.phiFrom), len(k.blocks))
		}
		if cb.ipdom < -1 || cb.ipdom >= v.nb {
			return fmt.Errorf("block %s: reconvergence index %d out of range", cb.name, cb.ipdom)
		}
		for ii := range cb.ins {
			in := &cb.ins[ii]
			if in.dst >= int32(k.nslots) {
				return fmt.Errorf("block %s[%d]: destination slot %d outside %d real slots",
					cb.name, ii, in.dst, k.nslots)
			}
			for ai := range in.args {
				if err := v.checkOffset(in.args[ai].ebase); err != nil {
					return fmt.Errorf("block %s[%d] operand %d: %w", cb.name, ii, ai, err)
				}
			}
		}
	}
	return nil
}

// checkOffset validates one extended-register-file offset: in bounds and on
// a warp-size boundary.
func (v *kernelVerifier) checkOffset(off int32) error {
	if off < 0 || off >= int32(v.k.totalSlots*warpSize) {
		return fmt.Errorf("offset %d outside extended register file of %d slots", off, v.k.totalSlots)
	}
	if off%warpSize != 0 {
		return fmt.Errorf("offset %d not on a warp boundary", off)
	}
	return nil
}

// checkWord validates an offset a lane-invariant path reads: the word of a
// lane-invariant real slot, or an extended slot.
func (v *kernelVerifier) checkWord(off int32) error {
	sb := v.k.scalarBase()
	if off < sb {
		if off < int32(v.k.nslots*warpSize) {
			return fmt.Errorf("lane-invariant path reads the lanes at %d, not a word", off)
		}
		return v.checkOffset(off)
	}
	if s := off - sb; s >= int32(v.k.nslots) || v.k.home[s] == homeLanes {
		return fmt.Errorf("word %d is no lane-invariant slot's", off)
	}
	return nil
}

// checkLaneRead rejects a read of the lanes at extended offset off when they
// belong to a slot whose home is its word alone.
func (v *kernelVerifier) checkLaneRead(off int32) error {
	if s := off / warpSize; s < int32(v.k.nslots) && v.k.home[s] == homeScalar {
		return fmt.Errorf("reads the lanes of slot %d, whose home is a scalar word", s)
	}
	return nil
}

// checkExtFills validates the extended-slot fill tables: every fill targets
// a distinct extended slot, and together they cover the extension exactly.
func (v *kernelVerifier) checkExtFills() error {
	k := v.k
	lo := int32(k.nslots * warpSize)
	seen := make(map[int32]bool)
	claim := func(base int32, what string) error {
		if err := v.checkOffset(base); err != nil {
			return fmt.Errorf("%s: %w", what, err)
		}
		if base < lo {
			return fmt.Errorf("%s: fill base %d inside the real register file", what, base)
		}
		if seen[base] {
			return fmt.Errorf("%s: extended slot at %d filled twice", what, base)
		}
		seen[base] = true
		return nil
	}
	for _, f := range k.extConst {
		if err := claim(f.base, "const fill"); err != nil {
			return err
		}
	}
	for i := range k.extParam {
		if err := claim(k.extParam[i].base, "param fill"); err != nil {
			return err
		}
		if int(k.extParam[i].idx) >= len(k.Params) || k.extParam[i].idx < 0 {
			return fmt.Errorf("param fill at %d: parameter %d out of range", k.extParam[i].base, k.extParam[i].idx)
		}
	}
	specBases := make(map[int32]bool)
	for i := range k.extSpec {
		if err := claim(k.extSpec[i].base, "special fill"); err != nil {
			return err
		}
		specBases[k.extSpec[i].base] = true
	}
	if got, want := len(seen), k.totalSlots-k.nslots; got != want {
		return fmt.Errorf("%d extended-slot fills for %d extended slots", got, want)
	}
	for _, b := range k.extBID {
		if !specBases[b] {
			return fmt.Errorf("blockIdx refill base %d is not a special-register slot", b)
		}
	}
	return nil
}

// checkUops validates every uop in isolation: known opcode, in-range cost
// classes and operand offsets, a lane-invariance mark only where the code
// has a path for it, operands read from their homes, and in-range control
// targets.
func (v *kernelVerifier) checkUops() error {
	for bi := range v.k.blocks {
		cb := &v.k.blocks[bi]
		dead := -1 // the micro-op a fused pair leaves behind it, never run
		for ii := range cb.uops {
			u := &cb.uops[ii]
			where := fmt.Sprintf("block %s uop %d", cb.name, ii)
			if u.code >= numUops {
				return fmt.Errorf("%s: opcode %d outside the jump table", where, u.code)
			}
			if u.cls >= numCostClasses || u.cls2 >= numCostClasses {
				return fmt.Errorf("%s: cost class out of range", where)
			}
			if u.inv && invariantArity(u.code) == 0 {
				return fmt.Errorf("%s: code %d marked lane-invariant, but it has no lane-invariant path", where, u.code)
			}
			if err := v.checkHomes(cb, ii, ii == dead); err != nil {
				return fmt.Errorf("%s: %w", where, err)
			}
			if u.code == uMulAdd64 || isFusedCmpBr(u.code) {
				dead = ii + 1
			}
			switch {
			case u.code == uBr:
				if u.succ0 < 0 || u.succ0 >= v.nb {
					return fmt.Errorf("%s: branch target %d out of range", where, u.succ0)
				}
			case u.code == uCondBr || isFusedCmpBr(u.code):
				if u.succ0 < 0 || u.succ0 >= v.nb || u.succ1 < 0 || u.succ1 >= v.nb {
					return fmt.Errorf("%s: branch targets %d/%d out of range", where, u.succ0, u.succ1)
				}
				if u.reconv < -1 || u.reconv >= v.nb {
					return fmt.Errorf("%s: reconvergence index %d out of range", where, u.reconv)
				}
				if want := u.succ0 != u.reconv && u.succ1 != u.reconv; u.both != want {
					return fmt.Errorf("%s: sibling flag %v inconsistent with targets and reconvergence",
						where, u.both)
				}
			}
		}
	}
	return nil
}

// checkHomes validates the operand offsets of uop ii of cb against the
// register homes: a marked micro-op reads words and writes its destination's
// word, with fill and lanes naming that slot's image and whether it is kept;
// any other reads lanes, never those of a scalar home — unless it is dead,
// the micro-op a fused pair leaves behind, which reads nothing.
func (v *kernelVerifier) checkHomes(cb *cblock, ii int, dead bool) error {
	u := &cb.uops[ii]
	ops := [3]int32{u.s1, u.s2, u.s3}
	if u.inv {
		n := invariantArity(u.code)
		for i, off := range ops[:n] {
			if err := v.checkWord(off); err != nil {
				return fmt.Errorf("operand %d: %w", i+1, err)
			}
		}
		if !writesDst(u.code) {
			return nil
		}
		sb := v.k.scalarBase()
		s := u.d - sb
		if u.d < sb || s >= int32(v.k.nslots) {
			return fmt.Errorf("destination %d is no real slot's word", u.d)
		}
		if u.fill != s*warpSize || u.lanes != (v.k.home[s] != homeScalar) {
			return fmt.Errorf("destination slot %d (home %d) filled at %d, lanes %v", s, v.k.home[s], u.fill, u.lanes)
		}
		return nil
	}
	for _, off := range [...]int32{u.d, u.s1, u.s2, u.s3} {
		if err := v.checkOffset(off); err != nil {
			return err
		}
	}
	if dead {
		return nil
	}
	if u.code == uEscape {
		for _, a := range cb.ins[ii].args {
			if err := v.checkLaneRead(a.ebase); err != nil {
				return fmt.Errorf("escape %w", err)
			}
		}
		return nil
	}
	for _, off := range ops[:uopArity(u.code)] {
		if err := v.checkLaneRead(off); err != nil {
			return fmt.Errorf("code %d (not lane-invariant) %w", u.code, err)
		}
	}
	return nil
}

// checkWalks replays runWarpU's program-counter arithmetic over every block
// and proves each walk ends at a terminator instead of falling off the uop
// stream. It records the per-block successor lists for the dominance check.
func (v *kernelVerifier) checkWalks() error {
	v.succs = make([][]int32, v.nb)
	for bi := range v.k.blocks {
		cb := &v.k.blocks[bi]
		pc := 0
	walk:
		for {
			if pc >= len(cb.uops) {
				return fmt.Errorf("block %s: falls off the uop stream at pc %d", cb.name, pc)
			}
			u := &cb.uops[pc]
			switch {
			case u.code == uRet:
				break walk
			case u.code == uBr:
				v.succs[bi] = append(v.succs[bi], u.succ0)
				break walk
			case u.code == uCondBr || isFusedCmpBr(u.code):
				v.succs[bi] = append(v.succs[bi], u.succ0, u.succ1)
				break walk
			case u.code == uMulAdd64:
				pc += 2
			default:
				// Escapes here are loads, stores, atomics and other
				// straight-line shapes: terminators always lower to uops
				// (uopFor claims every Br/CondBr/Ret), so the walk treats an
				// escape as pc++ exactly like runWarpU does.
				pc++
			}
		}
	}
	v.reach = make([]bool, v.nb)
	stack := []int32{0}
	v.reach[0] = true
	for len(stack) > 0 {
		b := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, s := range v.succs[b] {
			if !v.reach[s] {
				v.reach[s] = true
				stack = append(stack, s)
			}
		}
	}
	return nil
}

// checkClearBases validates the shfl zero-init contract: clearBases lists
// distinct, in-range register bases, and every shfl value operand that
// reads a real register is covered by it.
func (v *kernelVerifier) checkClearBases() error {
	k := v.k
	cleared := make(map[int32]bool)
	for _, b := range k.clearBases {
		if err := v.checkOffset(b); err != nil {
			return fmt.Errorf("clearBases: %w", err)
		}
		if cleared[b] {
			return fmt.Errorf("clearBases: base %d listed twice", b)
		}
		cleared[b] = true
	}
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ii := range cb.ins {
			in := &cb.ins[ii]
			if in.op == ir.OpShfl && len(in.args) > 0 && in.args[0].kind == argReg && !cleared[in.args[0].ebase] {
				return fmt.Errorf("block %s[%d]: shfl value operand at %d not in clearBases",
					cb.name, ii, in.args[0].ebase)
			}
		}
	}
	return nil
}

// checkPhiEdges validates every lowered parallel copy: the closure exists
// exactly when copies do, destinations are unique per edge, and the merged memmove plan
// of an interference-free edge decomposes back into its copies.
func (v *kernelVerifier) checkPhiEdges() error {
	k := v.k
	for bi := range k.blocks {
		cb := &k.blocks[bi]
		for ei := range cb.phiFrom {
			edge := &cb.phiFrom[ei]
			where := fmt.Sprintf("edge %s->%s", k.blocks[ei].name, cb.name)
			if (edge.apply != nil) != (len(edge.copies) > 0) || (edge.prog != nil) != (len(edge.copies) > 0) {
				return fmt.Errorf("%s: %d copies but closure present=%v, plan present=%v",
					where, len(edge.copies), edge.apply != nil, edge.prog != nil)
			}
			dsts := make(map[int32]bool, len(edge.copies))
			for ci := range edge.copies {
				cp := &edge.copies[ci]
				if cp.dst < 0 || cp.dst >= int32(k.nslots) {
					return fmt.Errorf("%s copy %d: destination slot %d out of range", where, ci, cp.dst)
				}
				if dsts[cp.dst] {
					return fmt.Errorf("%s: destination slot %d written twice", where, cp.dst)
				}
				dsts[cp.dst] = true
				if err := v.checkOffset(cp.src.ebase); err != nil {
					return fmt.Errorf("%s copy %d source: %w", where, ci, err)
				}
			}
			if err := v.checkPlan(edge, where); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkPlan matches a lowered edge's plan against the edge's copies: a word
// move for every copy into a lane-invariant slot (those that keep their lanes
// last), reading the source's word, and a lane move for every other copy,
// reading no scalar home's lanes. It decomposes the merged memmove plan back
// into unit lane copies; a snapshot edge carries no such plan, an
// interference-free one must cover its lane copies exactly.
func (v *kernelVerifier) checkPlan(edge *phiEdge, where string) error {
	p := edge.prog
	if p == nil {
		return nil
	}
	k := v.k
	lanes := make(map[regCopy]int, len(edge.copies))
	words := make(map[regCopy]int32, len(edge.copies))
	for ci := range edge.copies {
		cp := &edge.copies[ci]
		if h := k.home[cp.dst]; h == homeLanes {
			lanes[regCopy{s: cp.src.ebase, d: cp.dst * warpSize}]++
		} else {
			words[regCopy{s: k.wordOf(cp.src.ebase), d: k.wordOf(cp.dst * warpSize)}] = h
		}
	}
	if len(p.lanes)+len(p.words) != len(edge.copies) || p.fills < 0 || p.fills > len(p.words) {
		return fmt.Errorf("%s: plan of %d lane and %d word copies (%d filling) for %d copies",
			where, len(p.lanes), len(p.words), p.fills, len(edge.copies))
	}
	for i, cp := range p.words {
		h, ok := words[cp]
		if !ok {
			return fmt.Errorf("%s: word copy %d->%d not among the edge's copies into lane-invariant slots", where, cp.s, cp.d)
		}
		if want := i >= len(p.words)-p.fills; (h == homeBoth) != want {
			return fmt.Errorf("%s: word copy into %d fills lanes %v, its home is %d", where, cp.d, want, h)
		}
		if err := v.checkWord(cp.s); err != nil {
			return fmt.Errorf("%s: word copy source: %w", where, err)
		}
	}
	for _, cp := range p.lanes {
		if lanes[cp] == 0 {
			return fmt.Errorf("%s: lane copy %d->%d not among the edge's copies", where, cp.s, cp.d)
		}
		lanes[cp]--
		if err := v.checkLaneRead(cp.s); err != nil {
			return fmt.Errorf("%s: lane copy %w", where, err)
		}
	}
	if p.snap != copiesInterfere(p.lanes) || p.wordSnap != copiesInterfere(p.words) {
		return fmt.Errorf("%s: snapshot flags %v/%v contradict interference analysis", where, p.snap, p.wordSnap)
	}
	if p.snap || len(p.lanes) == 0 {
		if p.runs != nil {
			return fmt.Errorf("%s: unexpected memmove plan on a %s edge", where,
				map[bool]string{true: "snapshot", false: "laneless"}[p.snap])
		}
		return nil
	}
	want := make(map[[2]int32]int, len(p.lanes))
	for _, cp := range p.lanes {
		want[[2]int32{cp.s, cp.d}]++
	}
	total := int32(0)
	prevEnd := int32(-1)
	for ri, r := range p.runs {
		if r.n <= 0 || r.n%warpSize != 0 {
			return fmt.Errorf("%s run %d: length %d not a positive warp multiple", where, ri, r.n)
		}
		if r.d <= prevEnd {
			return fmt.Errorf("%s run %d: destinations not sorted and disjoint", where, ri)
		}
		prevEnd = r.d + r.n - 1
		for off := int32(0); off < r.n; off += warpSize {
			key := [2]int32{r.s + off, r.d + off}
			if want[key] == 0 {
				return fmt.Errorf("%s run %d: transfer %d->%d not among the edge's copies",
					where, ri, key[0], key[1])
			}
			want[key]--
		}
		total += r.n
	}
	if total != int32(len(p.lanes)*warpSize) {
		return fmt.Errorf("%s: memmove plan moves %d lanes for %d lane copies", where, total, len(p.lanes))
	}
	return nil
}

// checkDefUse proves def-before-use over the compiled CFG: every real
// register read is dominated by the instruction (or phi copy) that writes
// it. Extended slots are filled at launch and always defined. Unreachable
// blocks are skipped — they never execute, and dominance is undefined off
// the entry's reachable subgraph.
func (v *kernelVerifier) checkDefUse() error {
	k := v.k
	nb := int(v.nb)
	preds := make([][]int32, nb)
	for b := 0; b < nb; b++ {
		for _, s := range v.succs[b] {
			preds[s] = append(preds[s], int32(b))
		}
	}
	dom := v.dominators(preds)

	// entryDefs[b]: slots certainly written on every reachable edge into b
	// (the intersection of the per-edge phi-copy destination sets).
	entryDefs := make([]map[int32]bool, nb)
	for b := 0; b < nb; b++ {
		if !v.reach[b] {
			continue
		}
		first := true
		for _, p := range preds[b] {
			if !v.reach[p] {
				continue
			}
			edgeDefs := make(map[int32]bool)
			for ci := range k.blocks[b].phiFrom[p].copies {
				edgeDefs[k.blocks[b].phiFrom[p].copies[ci].dst] = true
			}
			if first {
				entryDefs[b], first = edgeDefs, false
				continue
			}
			for d := range entryDefs[b] {
				if !edgeDefs[d] {
					delete(entryDefs[b], d)
				}
			}
		}
	}

	// blockDefs[b]: slots written by b's straight-line instructions.
	blockDefs := make([]map[int32]bool, nb)
	for b := 0; b < nb; b++ {
		blockDefs[b] = make(map[int32]bool)
		for ii := range k.blocks[b].ins {
			if d := k.blocks[b].ins[ii].dst; d >= 0 {
				blockDefs[b][d] = true
			}
		}
	}

	// definedAt(b): slots defined on entry to b — everything written in any
	// strict dominator plus b's own entry copies.
	definedAt := func(b int) map[int32]bool {
		defs := make(map[int32]bool)
		for d := range entryDefs[b] {
			defs[d] = true
		}
		for _, idom := range domChain(dom, b) {
			for d := range blockDefs[idom] {
				defs[d] = true
			}
			for d := range entryDefs[idom] {
				defs[d] = true
			}
		}
		return defs
	}

	extBase := int32(k.nslots * warpSize)
	for b := 0; b < nb; b++ {
		if !v.reach[b] {
			continue
		}
		cb := &k.blocks[b]
		defs := definedAt(b)
		for ii := range cb.ins {
			in := &cb.ins[ii]
			for ai := range in.args {
				a := &in.args[ai]
				if a.kind != argReg || a.ebase >= extBase {
					continue
				}
				if !defs[a.ebase/warpSize] {
					return fmt.Errorf("block %s[%d] operand %d: slot %d read before any dominating write",
						cb.name, ii, ai, a.ebase/warpSize)
				}
			}
			if in.dst >= 0 {
				defs[in.dst] = true
			}
		}
		// Phi-copy sources on outgoing edges read at block exit.
		for _, s := range v.succs[b] {
			for ci := range k.blocks[s].phiFrom[b].copies {
				src := &k.blocks[s].phiFrom[b].copies[ci].src
				if src.kind != argReg || src.ebase >= extBase {
					continue
				}
				if !defs[src.ebase/warpSize] {
					return fmt.Errorf("edge %s->%s copy %d: slot %d read before any dominating write",
						cb.name, k.blocks[s].name, ci, src.ebase/warpSize)
				}
			}
		}
	}
	return nil
}

// dominators computes immediate dominators over the reachable subgraph by
// the standard iterative intersection (entry = block 0). idom[b] = -1 for
// the entry and for unreachable blocks.
func (v *kernelVerifier) dominators(preds [][]int32) []int32 {
	nb := int(v.nb)
	idom := make([]int32, nb)
	for i := range idom {
		idom[i] = -1
	}
	// Reverse postorder over the reachable subgraph.
	order := make([]int32, 0, nb)
	state := make([]uint8, nb)
	var dfs func(int32)
	dfs = func(b int32) {
		state[b] = 1
		for _, s := range v.succs[b] {
			if state[s] == 0 {
				dfs(s)
			}
		}
		order = append(order, b)
	}
	dfs(0)
	for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
		order[i], order[j] = order[j], order[i]
	}
	rpoIndex := make([]int32, nb)
	for i, b := range order {
		rpoIndex[b] = int32(i)
	}
	intersect := func(a, b int32) int32 {
		for a != b {
			for rpoIndex[a] > rpoIndex[b] {
				a = idom[a]
			}
			for rpoIndex[b] > rpoIndex[a] {
				b = idom[b]
			}
		}
		return a
	}
	idom[0] = 0
	for changed := true; changed; {
		changed = false
		for _, b := range order {
			if b == 0 {
				continue
			}
			var newIdom int32 = -1
			for _, p := range preds[b] {
				if !v.reach[p] || idom[p] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = p
				} else {
					newIdom = intersect(p, newIdom)
				}
			}
			if newIdom != -1 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
	idom[0] = -1
	return idom
}

// domChain yields b's strict dominators (walking idom links to the entry).
func domChain(idom []int32, b int) []int32 {
	var chain []int32
	for cur := idom[b]; cur != -1; cur = idom[cur] {
		chain = append(chain, cur)
	}
	return chain
}
