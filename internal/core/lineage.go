package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
)

// Breeding provenance. The engine tracks, for every individual of the
// current generation, how it was produced — the parallel prov slice filled
// by breed/Init/Inject — so that when a generation sets a new best-ever
// fitness, History gains a LineageEntry naming the operator, the mutation
// site, the parent genome hash and the fitness delta. Tracking is pure
// bookkeeping over values the search already computed: it draws no
// randomness and moves no individuals, so results are bit-identical with
// or without a sink attached.

// prov is one individual's breeding record for the current generation.
type prov struct {
	// op is the breeding path (LineageEntry.Op values).
	op string
	// parent and parent2 are short genome hashes of the contributing
	// parents ("base" for the seed population's implicit parent).
	parent  string
	parent2 string
	// parentMs is the primary parent's fitness at selection time.
	parentMs float64
	// kind and site describe the mutation's newest edit, when one exists.
	kind string
	site string
}

// hashGenome returns a short, stable content hash of a genome — the
// lineage-facing identity of an individual.
func hashGenome(genome []Edit) string {
	sum := sha256.Sum256(appendGenomeKey(genome))
	return hex.EncodeToString(sum[:6])
}

// editSite renders an edit's location as "func/%uid".
func editSite(e Edit) string { return fmt.Sprintf("%s/%%%d", e.Func, e.Target) }

// mutationDiff classifies what Mutate did by comparing genome lengths:
// an appended edit (the common case) names its own kind and site; a
// dropped edit reports "drop-<kind>" at the removed edit's site; an
// unchanged genome (RandomEdit found nothing) reports nothing.
func mutationDiff(before, after []Edit) (kind, site string) {
	switch {
	case len(after) == len(before)+1:
		e := after[len(after)-1]
		return e.Kind.String(), editSite(e)
	case len(after)+1 == len(before):
		i := 0
		for i < len(after) && after[i] == before[i] {
			i++
		}
		e := before[i]
		return "drop-" + e.Kind.String(), editSite(e)
	}
	return "", ""
}

// opName names the breeding path from the operator flags.
func opName(crossed, mutated bool) string {
	switch {
	case crossed && mutated:
		return "crossover+mutation"
	case crossed:
		return "crossover"
	case mutated:
		return "mutation"
	}
	return "clone"
}

// ensureProvs sizes the provenance slice to the population. A restored
// engine has no provenance for its checkpointed population (none is
// needed: lineage entries are only created in the Step that bred the
// improver, and the first post-restore Step rebuilds provenance in breed),
// but Inject may sort before that — zero records keep the slices aligned.
func (e *Engine) ensureProvs() {
	if len(e.provs) != len(e.pop) {
		e.provs = make([]prov, len(e.pop))
	}
}

// sortPop stable-sorts the population by fitness, carrying the provenance
// slice through the identical permutation. Sorting indices with the same
// comparator produces exactly the permutation sort.SliceStable applied to
// pop directly, so population order — and therefore every downstream
// result — is unchanged from the pre-provenance engine.
func (e *Engine) sortPop() {
	e.ensureProvs()
	perm := make([]int, len(e.pop))
	for i := range perm {
		perm[i] = i
	}
	pop0 := e.pop
	sort.SliceStable(perm, func(a, b int) bool { return pop0[perm[a]].Fitness < pop0[perm[b]].Fitness })
	pop := make([]Individual, len(e.pop))
	provs := make([]prov, len(e.provs))
	for i, p := range perm {
		pop[i] = e.pop[p]
		provs[i] = e.provs[p]
	}
	e.pop, e.provs = pop, provs
}

// lineageEntry builds the provenance record for a new best at pop index
// idx; prevBest is the best-ever fitness before this generation's record.
func (e *Engine) lineageEntry(idx int, prevBest float64) LineageEntry {
	p := e.provs[idx]
	ind := &e.pop[idx]
	return LineageEntry{
		Gen:        e.gen,
		Op:         p.op,
		Kind:       p.kind,
		Site:       p.site,
		Parent:     p.parent,
		Parent2:    p.parent2,
		ParentMs:   p.parentMs,
		BestMs:     ind.Fitness,
		PrevBestMs: prevBest,
		DeltaMs:    prevBest - ind.Fitness,
		Speedup:    e.base / ind.Fitness,
		Edits:      len(ind.Genome),
	}
}
