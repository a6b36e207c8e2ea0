// Package analysis implements the paper's Section V multi-step edit
// analysis: Algorithm 1 (weak-edit elimination under a 1% significance
// threshold), Algorithm 2 (separating independent from epistatic edits), and
// the exhaustive subset search that exposes the epistatic clusters and their
// dependency structure (Figures 7 and 8).
package analysis

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"gevo/internal/core"
)

// Evaluator measures the fitness (simulated kernel time, lower is better) of
// the base program with an edit subset applied. It returns an error when the
// variant fails verification or its test cases.
type Evaluator func(edits []core.Edit) (float64, error)

// CachedEvaluator memoizes an Evaluator by genome key; the subset search
// re-evaluates many overlapping sets.
func CachedEvaluator(eval Evaluator) Evaluator {
	type res struct {
		ms  float64
		err error
	}
	cache := map[string]res{}
	return func(edits []core.Edit) (float64, error) {
		k := core.GenomeKey(edits)
		if r, ok := cache[k]; ok {
			return r.ms, r.err
		}
		ms, err := eval(edits)
		cache[k] = res{ms, err}
		return ms, err
	}
}

func without(edits []core.Edit, drop map[int]bool) []core.Edit {
	out := make([]core.Edit, 0, len(edits))
	for i, e := range edits {
		if !drop[i] {
			out = append(out, e)
		}
	}
	return out
}

// MinimizeResult reports Algorithm 1's outcome.
type MinimizeResult struct {
	// Kept are the significant edits (indices into the input set).
	Kept []int
	// Weak are the eliminated edits.
	Weak []int
	// FullFitness and KeptFitness measure the set before and after. When
	// the run aborted, KeptFitness is the last successful measurement of
	// the kept set rather than a fresh final evaluation.
	FullFitness, KeptFitness float64
	// Aborted reports that re-evaluating the kept set failed mid-loop —
	// something only a flaky or stateful evaluator can cause, since every
	// kept set was measured clean when its last member left it. Algorithm 1
	// has no undo, so the remaining edits are classified as kept; Aborted
	// makes that early stop explicit instead of silent.
	Aborted bool
	// AbortReason records which step failed and why.
	AbortReason string
}

// Minimize implements Algorithm 1: iteratively mark edits whose removal (in
// the context of all remaining edits) changes performance by less than the
// threshold (the paper's 1%, measured with the profiler-grade simulator).
func Minimize(eval Evaluator, edits []core.Edit, threshold float64) (*MinimizeResult, error) {
	return minimize(CachedEvaluator(eval), edits, threshold)
}

// minimize is Minimize without the memoization wrapper; the caching makes
// the abort path unreachable for deterministic evaluators (tests inject
// flaky evaluators here directly).
func minimize(eval Evaluator, edits []core.Edit, threshold float64) (*MinimizeResult, error) {
	full, err := eval(edits)
	if err != nil {
		return nil, fmt.Errorf("analysis: full edit set fails: %w", err)
	}
	res := &MinimizeResult{FullFitness: full}
	lastGood := full
	weak := map[int]bool{}
	for i := range edits {
		fWith, errWith := eval(without(edits, weak))
		if errWith != nil {
			// The kept set measured clean when its last member was removed,
			// so a failure here means the evaluator changed its verdict.
			// Undo is impossible in Algorithm 1's formulation: stop, classify
			// the remainder as kept, and record the abort instead of
			// returning a misleading "minimized set fails" error.
			res.Aborted = true
			res.AbortReason = fmt.Sprintf("re-evaluating the kept set before edit %d failed: %v", i, errWith)
			break
		}
		lastGood = fWith
		weak[i] = true
		fWithout, errWithout := eval(without(edits, weak))
		if errWithout != nil {
			// Removing e_i breaks the program: e_i is load-bearing.
			delete(weak, i)
			continue
		}
		// contribution = (f(S-weaks-ei) - f(S-weaks)) / f(S-weaks-ei):
		// how much slower the program gets without e_i.
		contribution := (fWithout - fWith) / fWithout
		if contribution >= threshold {
			delete(weak, i) // significant
		}
	}
	for i := range edits {
		if weak[i] {
			res.Weak = append(res.Weak, i)
		} else {
			res.Kept = append(res.Kept, i)
		}
	}
	if res.Aborted {
		res.KeptFitness = lastGood
		return res, nil
	}
	kf, err := eval(without(edits, weak))
	if err != nil {
		return nil, fmt.Errorf("analysis: minimized set fails: %w", err)
	}
	res.KeptFitness = kf
	return res, nil
}

// SplitResult reports Algorithm 2's outcome.
type SplitResult struct {
	Independent []int
	Epistatic   []int
	// IndepGain and EpiGain are the fitness improvements (fractions of the
	// base fitness) contributed by each set, the paper's "7% and 17%".
	IndepGain, EpiGain float64
}

// Split implements Algorithm 2: an edit is independent when it is
// individually applicable and removable and its solo improvement matches its
// in-context contribution (within tol); everything else is epistatic.
func Split(eval Evaluator, edits []core.Edit, tol float64) (*SplitResult, error) {
	eval = CachedEvaluator(eval)
	base, err := eval(nil)
	if err != nil {
		return nil, fmt.Errorf("analysis: base fails: %w", err)
	}
	indep := map[int]bool{}
	for i := range edits {
		fSolo, errSolo := eval([]core.Edit{edits[i]})
		if errSolo != nil {
			continue // fails alone -> epistatic
		}
		restMinus := map[int]bool{i: true}
		for j := range indep {
			restMinus[j] = true
		}
		fCtxWithout, errCtx := eval(without(edits, restMinus))
		if errCtx != nil {
			continue
		}
		restOnly := map[int]bool{}
		for j := range indep {
			restOnly[j] = true
		}
		fCtxWith, errCtx2 := eval(without(edits, restOnly))
		if errCtx2 != nil {
			continue
		}
		perfIncr := (base - fSolo) / base
		perfDecr := (fCtxWithout - fCtxWith) / fCtxWithout
		if math.Abs(perfIncr-perfDecr) <= tol {
			indep[i] = true
		}
	}
	res := &SplitResult{}
	for i := range edits {
		if indep[i] {
			res.Independent = append(res.Independent, i)
		} else {
			res.Epistatic = append(res.Epistatic, i)
		}
	}
	// Contribution of each set alone.
	if len(res.Independent) > 0 {
		var set []core.Edit
		for _, i := range res.Independent {
			set = append(set, edits[i])
		}
		if f, err := eval(set); err == nil {
			res.IndepGain = (base - f) / base
		}
	}
	if len(res.Epistatic) > 0 {
		var set []core.Edit
		for _, i := range res.Epistatic {
			set = append(set, edits[i])
		}
		if f, err := eval(set); err == nil {
			res.EpiGain = (base - f) / base
		}
	}
	return res, nil
}

// SubsetResult is one point of the exhaustive epistatic-set search
// (Figure 7): an edit subset, whether it runs, and its improvement over the
// base program.
type SubsetResult struct {
	// Mask selects edits by bit over the analyzed set.
	Mask uint32
	// Fitness is the subset's measured fitness (NaN when invalid).
	Fitness float64
	// Improvement is (base - fitness) / base; 0 when invalid.
	Improvement float64
	// Valid reports whether the subset passed its test cases.
	Valid bool
}

// MaxSubsetEdits bounds the exhaustive search (2^n evaluations); the paper
// notes this approach "will not scale well beyond roughly twenty edits".
const MaxSubsetEdits = 16

// Subsets exhaustively evaluates every subset of the edit set.
func Subsets(eval Evaluator, edits []core.Edit) ([]SubsetResult, error) {
	if len(edits) > MaxSubsetEdits {
		return nil, fmt.Errorf("analysis: %d edits exceed exhaustive-search bound %d", len(edits), MaxSubsetEdits)
	}
	eval = CachedEvaluator(eval)
	base, err := eval(nil)
	if err != nil {
		return nil, err
	}
	n := uint32(1) << len(edits)
	out := make([]SubsetResult, 0, n)
	for mask := uint32(0); mask < n; mask++ {
		var subset []core.Edit
		for i := range edits {
			if mask&(1<<i) != 0 {
				subset = append(subset, edits[i])
			}
		}
		sr := SubsetResult{Mask: mask}
		f, err := eval(subset)
		if err == nil {
			sr.Valid = true
			sr.Fitness = f
			sr.Improvement = (base - f) / base
		} else {
			sr.Fitness = math.NaN()
		}
		out = append(out, sr)
	}
	return out, nil
}

// DepGraph captures the Figure 7 dependency structure over an edit set.
type DepGraph struct {
	// FailsAlone marks edits whose singleton subset is invalid (the orange
	// nodes of Figure 7).
	FailsAlone []bool
	// DependsOn[i] lists edits j present in every valid subset containing i
	// — i cannot function without them (the black edges of Figure 7).
	DependsOn [][]int
	// BestSubset is the valid subset with the largest improvement.
	BestSubset SubsetResult
}

// Dependencies derives the dependency graph from exhaustive subset results.
func Dependencies(subsets []SubsetResult, n int) *DepGraph {
	g := &DepGraph{
		FailsAlone: make([]bool, n),
		DependsOn:  make([][]int, n),
	}
	for i := 0; i < n; i++ {
		g.FailsAlone[i] = true
	}
	best := SubsetResult{Fitness: math.Inf(1)}
	// needed[i] starts as all-others and is intersected over valid subsets
	// containing i.
	needed := make([]uint32, n)
	for i := range needed {
		needed[i] = ^uint32(0)
	}
	for _, s := range subsets {
		if !s.Valid {
			continue
		}
		if s.Fitness < best.Fitness {
			best = s
		}
		for i := 0; i < n; i++ {
			if s.Mask&(1<<i) == 0 {
				continue
			}
			if s.Mask == 1<<i {
				g.FailsAlone[i] = false
			}
			needed[i] &= s.Mask
		}
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if j != i && needed[i]&(1<<j) != 0 && needed[i] != ^uint32(0) {
				g.DependsOn[i] = append(g.DependsOn[i], j)
			}
		}
	}
	g.BestSubset = best
	return g
}

// FormatSubsets renders the most informative subset rows (singletons, pairs
// with the anchor edits, and the best chains) as a Figure 7-style table.
func FormatSubsets(subsets []SubsetResult, names []string) string {
	var sb strings.Builder
	type row struct {
		label string
		s     SubsetResult
	}
	var rows []row
	for _, s := range subsets {
		if s.Mask == 0 {
			continue
		}
		var parts []string
		for i, nm := range names {
			if s.Mask&(1<<i) != 0 {
				parts = append(parts, nm)
			}
		}
		rows = append(rows, row{label: "{" + strings.Join(parts, ",") + "}", s: s})
	}
	sort.Slice(rows, func(i, j int) bool {
		ci := popcount(rows[i].s.Mask)
		cj := popcount(rows[j].s.Mask)
		if ci != cj {
			return ci < cj
		}
		return rows[i].s.Mask < rows[j].s.Mask
	})
	for _, r := range rows {
		if r.s.Valid {
			fmt.Fprintf(&sb, "%-40s %+6.1f%%\n", r.label, r.s.Improvement*100)
		} else {
			fmt.Fprintf(&sb, "%-40s exec failed\n", r.label)
		}
	}
	return sb.String()
}

func popcount(x uint32) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
