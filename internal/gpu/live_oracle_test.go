package gpu

import "gevo/internal/ir"

// Test-only oracle and hooks for the external test package: the map-based
// liveness pass the dense one in compile.go replaced, kept verbatim so
// TestPrepareMatchesOracles can require the two to agree.

// LiveOracle is the map-based liveValues: the UIDs the compiled kernel must
// execute.
func LiveOracle(f *ir.Function) map[int]bool {
	defs := make(map[int]*ir.Instr)
	live := make(map[int]bool)
	var work []*ir.Instr
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			defs[in.UID] = in
			warpPrim := in.Op == ir.OpBallot || in.Op == ir.OpActiveMask || in.Op == ir.OpShfl
			if in.Op.HasSideEffects() || in.Op.IsMemRead() || warpPrim {
				live[in.UID] = true
				work = append(work, in)
			}
		}
	}
	for len(work) > 0 {
		in := work[len(work)-1]
		work = work[:len(work)-1]
		for _, uid := range in.Uses() {
			if !live[uid] {
				live[uid] = true
				if d := defs[uid]; d != nil {
					work = append(work, d)
				}
			}
		}
	}
	return live
}

// Live reports what the compiler's liveness pass decides for each UID of f,
// and how many instructions and operands it sized the kernel's arenas for.
func Live(f *ir.Function) (live []bool, nins, nargs int, err error) {
	vals, n, err := liveValues(f)
	if err != nil {
		return nil, 0, 0, err
	}
	live = make([]bool, len(vals))
	for uid := range vals {
		live[uid] = vals[uid].live
	}
	return live, n.ins, n.args, nil
}
