package ir

// Test-only oracles: the string-keyed dominator and post-dominator passes the
// integer-indexed CFG (dom.go) replaced, kept verbatim so the tests can
// require the two to agree on every function of a mutant corpus.

// DomInfo holds the dominator tree of a function's reachable blocks.
type DomInfo struct {
	order []string       // reverse postorder of reachable blocks
	idx   map[string]int // block name -> index in order
	idom  []int          // immediate dominator (index into order); entry = 0
}

// predsByName returns the predecessor block names of each block, keyed by
// block name.
func predsByName(f *Function) map[string][]string {
	preds := make(map[string][]string, len(f.Blocks))
	for _, b := range f.Blocks {
		t := b.Terminator()
		if t == nil {
			continue
		}
		for _, s := range t.Succs {
			preds[s] = append(preds[s], b.Name)
		}
	}
	return preds
}

// ComputeDom builds dominator information for f's reachable blocks.
func ComputeDom(f *Function) *DomInfo {
	order, idx := reversePostorder(f)
	d := &DomInfo{order: order, idx: idx, idom: make([]int, len(order))}
	if len(order) == 0 {
		return d
	}
	preds := predsByName(f)
	for i := range d.idom {
		d.idom[i] = -1
	}
	d.idom[0] = 0
	for changed := true; changed; {
		changed = false
		for i := 1; i < len(order); i++ {
			newIdom := -1
			for _, p := range preds[order[i]] {
				pi, ok := idx[p]
				if !ok || d.idom[pi] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = pi
				} else {
					newIdom = d.intersect(pi, newIdom)
				}
			}
			if newIdom != -1 && d.idom[i] != newIdom {
				d.idom[i] = newIdom
				changed = true
			}
		}
	}
	return d
}

func (d *DomInfo) intersect(a, b int) int {
	for a != b {
		for a > b {
			a = d.idom[a]
		}
		for b > a {
			b = d.idom[b]
		}
	}
	return a
}

// Reachable reports whether the named block is reachable from entry.
func (d *DomInfo) Reachable(block string) bool {
	_, ok := d.idx[block]
	return ok
}

// Dominates reports whether block a dominates block b. A block dominates
// itself. Unreachable blocks dominate nothing and are dominated by nothing.
func (d *DomInfo) Dominates(a, b string) bool {
	ai, aok := d.idx[a]
	bi, bok := d.idx[b]
	if !aok || !bok {
		return false
	}
	for {
		if bi == ai {
			return true
		}
		if bi == 0 {
			return false
		}
		next := d.idom[bi]
		if next == bi || next == -1 {
			return false
		}
		bi = next
	}
}

// reversePostorder returns the reachable blocks of f in reverse postorder,
// starting at the entry block.
func reversePostorder(f *Function) ([]string, map[string]int) {
	if len(f.Blocks) == 0 {
		return nil, map[string]int{}
	}
	var post []string
	seen := make(map[string]bool, len(f.Blocks))
	var dfs func(name string)
	dfs = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		b := f.BlockByName(name)
		if b == nil {
			return
		}
		if t := b.Terminator(); t != nil {
			for _, s := range t.Succs {
				dfs(s)
			}
		}
		post = append(post, name)
	}
	dfs(f.Blocks[0].Name)
	order := make([]string, len(post))
	idx := make(map[string]int, len(post))
	for i := range post {
		order[i] = post[len(post)-1-i]
		idx[order[i]] = i
	}
	return order, idx
}

// PostDomInfo holds immediate post-dominators, computed over the reversed
// CFG with a virtual exit joining every return (and otherwise successor-less)
// block.
type PostDomInfo struct {
	order []string
	idx   map[string]int
	ipdom []int
}

// ComputePostDom builds post-dominator information for f's reachable blocks.
func ComputePostDom(f *Function) *PostDomInfo {
	reach, _ := reversePostorder(f)
	reachSet := make(map[string]bool, len(reach))
	for _, n := range reach {
		reachSet[n] = true
	}

	// Build the reversed graph over reachable blocks with a virtual exit.
	const exit = ""
	succs := make(map[string][]string) // forward successors, reachable only
	var exits []string
	for _, name := range reach {
		b := f.BlockByName(name)
		t := b.Terminator()
		isExit := true
		if t != nil {
			for _, s := range t.Succs {
				if reachSet[s] {
					succs[name] = append(succs[name], s)
					isExit = false
				}
			}
		}
		if isExit {
			exits = append(exits, name)
		}
	}

	// Reverse postorder of the reversed graph, rooted at the virtual exit.
	var post []string
	seen := map[string]bool{}
	preds := make(map[string][]string) // reversed edges: block -> its CFG successors
	for n, ss := range succs {
		for _, s := range ss {
			preds[s] = append(preds[s], n)
		}
	}
	var dfs func(name string)
	dfs = func(name string) {
		if seen[name] {
			return
		}
		seen[name] = true
		for _, p := range preds[name] {
			dfs(p)
		}
		post = append(post, name)
	}
	seen[exit] = true
	for _, e := range exits {
		dfs(e)
	}
	post = append(post, exit)

	p := &PostDomInfo{
		order: make([]string, len(post)),
		idx:   make(map[string]int, len(post)),
	}
	for i := range post {
		p.order[i] = post[len(post)-1-i]
		p.idx[p.order[i]] = i
	}
	p.ipdom = make([]int, len(p.order))
	for i := range p.ipdom {
		p.ipdom[i] = -1
	}
	p.ipdom[0] = 0

	// Predecessors in the reversed graph are forward successors; the virtual
	// exit is a reversed-predecessor of every exit block.
	revPreds := func(name string) []string {
		if name == exit {
			return nil
		}
		out := append([]string(nil), succs[name]...)
		for _, e := range exits {
			if e == name {
				out = append(out, exit)
				break
			}
		}
		return out
	}

	for changed := true; changed; {
		changed = false
		for i := 1; i < len(p.order); i++ {
			newIdom := -1
			for _, s := range revPreds(p.order[i]) {
				si, ok := p.idx[s]
				if !ok || p.ipdom[si] == -1 {
					continue
				}
				if newIdom == -1 {
					newIdom = si
				} else {
					newIdom = p.intersect(si, newIdom)
				}
			}
			if newIdom != -1 && p.ipdom[i] != newIdom {
				p.ipdom[i] = newIdom
				changed = true
			}
		}
	}
	return p
}

func (p *PostDomInfo) intersect(a, b int) int {
	for a != b {
		for a > b {
			a = p.ipdom[a]
		}
		for b > a {
			b = p.ipdom[b]
		}
	}
	return a
}

// IPdom returns the immediate post-dominator block of the named block, or ""
// (the virtual exit) if the block post-dominates everything after it or is
// unknown. Divergent branches reconverge at the IPdom of the branching block.
func (p *PostDomInfo) IPdom(block string) string {
	i, ok := p.idx[block]
	if !ok || p.ipdom[i] == -1 {
		return ""
	}
	return p.order[p.ipdom[i]]
}

// Idom returns the immediate dominator of the named block: the block itself
// for the entry, "" for an unreachable block.
func (d *DomInfo) Idom(block string) string {
	i, ok := d.idx[block]
	if !ok || d.idom[i] == -1 {
		return ""
	}
	return d.order[d.idom[i]]
}
