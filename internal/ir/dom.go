package ir

// Control-flow analysis. One integer-indexed CFG is built per function and
// shared by the verifier (dominators prove SSA well-formedness) and the GPU
// compiler (immediate post-dominators are the reconvergence points of the
// SIMT divergence stack, the mechanism behind the paper's Section VI-A
// analysis of divergence cost). Dominators and post-dominators come from one
// Cooper-Harvey-Kennedy routine, run over the graph and over its reverse.

// CFG is the control-flow graph of one function. Nodes are block indices into
// Function.Blocks; node len(Blocks) is the virtual exit every block without
// successors branches to, so the reversed graph has a single root.
type CFG struct {
	index      map[string]int32 // block name -> index; the first block of a name wins
	succ, pred adjacency
	idom       []int32 // immediate dominator; the entry's is itself, -1 = unreachable
	ipdom      []int32 // immediate post-dominator; -1 = virtual exit, or none
}

// adjacency is a graph's edge lists in compressed form: the edges of node i
// are to[off[i]:off[i+1]].
type adjacency struct{ off, to []int32 }

func (a adjacency) of(i int32) []int32 { return a.to[a.off[i]:a.off[i+1]] }

// NewCFG analyses f. It tolerates malformed functions — branches to unknown
// blocks carry no edge, a block without a terminator has no successors — so
// callers that skipped verification get an analysis of the edges that exist.
func NewCFG(f *Function) *CFG {
	n := int32(len(f.Blocks))
	g := &CFG{index: make(map[string]int32, n)}
	edges := n // one exit edge per block at most
	for i, b := range f.Blocks {
		if _, dup := g.index[b.Name]; !dup {
			g.index[b.Name] = int32(i)
		}
		if t := b.Terminator(); t != nil {
			edges += int32(len(t.Succs))
		}
	}

	// One backing array: two adjacencies over n+1 nodes, both trees, and the
	// traversal scratch (postorder, postorder numbers, DFS stack).
	nodes := n + 1
	buf := make([]int32, 2*(nodes+1)+2*edges+7*nodes)
	carve := func(k int32) []int32 {
		s := buf[:k:k]
		buf = buf[k:]
		return s
	}
	g.succ = adjacency{off: carve(nodes + 1), to: carve(edges)[:0]}
	g.pred = adjacency{off: carve(nodes + 1), to: carve(edges)}
	g.idom, g.ipdom = carve(nodes), carve(nodes)
	scratch := carve(5 * nodes)

	for i, b := range f.Blocks {
		g.succ.off[i] = int32(len(g.succ.to))
		if t := b.Terminator(); t != nil {
			for _, s := range t.Succs {
				if si, ok := g.index[s]; ok {
					g.succ.to = append(g.succ.to, si)
				}
			}
		}
		if int32(len(g.succ.to)) == g.succ.off[i] {
			g.succ.to = append(g.succ.to, n)
		}
	}
	g.succ.off[n], g.succ.off[n+1] = int32(len(g.succ.to)), int32(len(g.succ.to))
	g.pred.to = g.pred.to[:len(g.succ.to)]
	transpose(g.succ, g.pred, scratch)

	dominators(0, g.succ, g.pred, g.idom, scratch)
	dominators(n, g.pred, g.succ, g.ipdom, scratch)
	for b := range g.ipdom {
		// Unreachable blocks never execute, so they reconverge nowhere; the
		// virtual exit is reported as "no block".
		if g.ipdom[b] == n || g.idom[b] < 0 {
			g.ipdom[b] = -1
		}
	}
	return g
}

// transpose fills in with the reverse of out: each node's in-edges, ordered by
// source node (a source appears once per parallel edge).
func transpose(out, in adjacency, scratch []int32) {
	nodes := int32(len(out.off) - 1)
	count := scratch[:nodes]
	clear(count)
	for _, t := range out.to {
		count[t]++
	}
	in.off[0] = 0
	for i := int32(0); i < nodes; i++ {
		in.off[i+1] = in.off[i] + count[i]
		count[i] = in.off[i]
	}
	for src := int32(0); src < nodes; src++ {
		for _, t := range out.of(src) {
			in.to[count[t]] = src
			count[t]++
		}
	}
}

// dominators computes the immediate dominator of every node reachable from
// root along out-edges (in holds the same edges reversed) by the
// Cooper-Harvey-Kennedy iteration. idom[root] = root; unreached nodes get -1.
func dominators(root int32, out, in adjacency, idom, scratch []int32) {
	nodes := int32(len(idom))
	post, num, stack := scratch[:0:nodes], scratch[nodes:2*nodes], scratch[2*nodes:2*nodes]
	for i := range idom {
		idom[i], num[i] = -1, -1
	}

	// Postorder by depth-first search; the stack holds (node, next edge) pairs
	// and num doubles as the visited mark until a node is numbered.
	num[root] = 0
	stack = append(stack, root, 0)
	for len(stack) > 0 {
		node, next := stack[len(stack)-2], stack[len(stack)-1]
		if es := out.of(node); int(next) < len(es) {
			stack[len(stack)-1]++
			if s := es[next]; num[s] < 0 {
				num[s] = 0
				stack = append(stack, s, 0)
			}
			continue
		}
		stack = stack[:len(stack)-2]
		num[node] = int32(len(post))
		post = append(post, node)
	}

	idom[root] = root
	for changed := true; changed; {
		changed = false
		for i := len(post) - 2; i >= 0; i-- { // reverse postorder, root excluded
			b := post[i]
			newIdom := int32(-1)
			for _, p := range in.of(b) {
				switch {
				case idom[p] < 0: // unreached, or not yet processed
				case newIdom < 0:
					newIdom = p
				default:
					newIdom = intersect(idom, num, p, newIdom)
				}
			}
			if newIdom >= 0 && idom[b] != newIdom {
				idom[b] = newIdom
				changed = true
			}
		}
	}
}

// intersect walks two nodes up the tree under construction to their common
// ancestor; a node's ancestors all have higher postorder numbers.
func intersect(idom, num []int32, a, b int32) int32 {
	for a != b {
		for num[a] < num[b] {
			a = idom[a]
		}
		for num[b] < num[a] {
			b = idom[b]
		}
	}
	return a
}

// BlockIndex returns the index of the named block in Function.Blocks.
func (g *CFG) BlockIndex(name string) (int32, bool) {
	i, ok := g.index[name]
	return i, ok
}

// Reachable reports whether block b is reachable from the entry block.
func (g *CFG) Reachable(b int32) bool { return g.idom[b] >= 0 }

// Preds returns the predecessors of block b in block order, unreachable ones
// included; a predecessor appears once per edge.
func (g *CFG) Preds(b int32) []int32 { return g.pred.of(b) }

// Idom returns the immediate dominator of block b: b itself for the entry
// block, -1 for an unreachable block.
func (g *CFG) Idom(b int32) int32 { return g.idom[b] }

// Dominates reports whether block a dominates block b. A block dominates
// itself. Unreachable blocks dominate nothing and are dominated by nothing.
func (g *CFG) Dominates(a, b int32) bool {
	if g.idom[a] < 0 || g.idom[b] < 0 {
		return false
	}
	for b != a {
		if b == 0 {
			return false
		}
		b = g.idom[b]
	}
	return true
}

// IPdom returns the immediate post-dominator of block b, or -1 (the virtual
// exit) if the block post-dominates everything after it, cannot reach an
// exit, or is unreachable. Divergent branches reconverge at the IPdom of the
// branching block.
func (g *CFG) IPdom(b int32) int32 { return g.ipdom[b] }
