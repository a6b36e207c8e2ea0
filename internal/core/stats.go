package core

import (
	"math"
	"sort"
)

// GenStats is the search-health summary of one completed generation: the
// fitness distribution over valid individuals, genome-hash diversity of the
// population, plateau length, and cumulative per-operator productivity.
// It is computed unconditionally on every Step from the evaluated, sorted
// population — the sink only observes it — so search results stay
// bit-identical whether or not anyone is watching (DESIGN.md §9).
type GenStats struct {
	// Gen is the generation this snapshot describes.
	Gen int `json:"gen"`
	// ValidFrac is the fraction of the population passing all test cases.
	ValidFrac float64 `json:"valid_frac"`
	// Fitness distribution quartiles over valid individuals only (invalid
	// fitness is +Inf, which JSON cannot carry and which would swamp any
	// distributional summary). All zero when no individual is valid.
	BestMs   float64 `json:"best_ms"`
	Q1Ms     float64 `json:"q1_ms"`
	MedianMs float64 `json:"median_ms"`
	Q3Ms     float64 `json:"q3_ms"`
	WorstMs  float64 `json:"worst_ms"`
	MeanMs   float64 `json:"mean_ms"`
	// Distinct counts distinct genomes (by hash) in the population;
	// Diversity is Distinct over population size.
	Distinct  int     `json:"distinct"`
	Diversity float64 `json:"diversity"`
	// Entropy is the Shannon entropy (bits) of the genome-hash frequency
	// distribution: log2(Pop) for an all-distinct population, 0 when the
	// population has collapsed to one genome.
	Entropy float64 `json:"entropy"`
	// Plateau counts generations since the last best-ever improvement
	// (0 when this generation improved the best).
	Plateau int `json:"plateau"`
	// Ops is the cumulative per-operator productivity since the start of
	// the search, sorted by operator name.
	Ops []OpStats `json:"ops,omitempty"`
}

// OpStats is the cumulative productivity of one breeding operator: every
// individual is one attempt of the operator that produced it ("init",
// "elite", "clone", "crossover", "mutation", "crossover+mutation",
// "migrant"); Valid counts offspring passing all test cases, Improved
// counts offspring strictly fitter than their (first) parent.
type OpStats struct {
	Op       string `json:"op"`
	Attempts int64  `json:"attempts"`
	Valid    int64  `json:"valid"`
	Improved int64  `json:"improved"`
}

// updateStats recomputes e.stats from the freshly evaluated, sorted
// population and rec, the history record just written for it, and folds
// this generation's breeding outcomes into the cumulative per-operator
// counters. Called from the serial Step path; it draws no randomness and
// mutates nothing the search reads back.
func (e *Engine) updateStats(rec GenRecord) {
	s := GenStats{Gen: e.gen, ValidFrac: rec.ValidFrac, MeanMs: rec.MeanFitness}

	// The population is sorted best-first and +Inf sorts last, so the valid
	// individuals are a prefix and quartiles are direct indexing.
	valid := 0
	for i := range e.pop {
		if e.pop[i].Valid() {
			valid++
		}
	}
	if valid > 0 {
		q := func(p float64) float64 {
			return e.pop[int(math.Round(p*float64(valid-1)))].Fitness
		}
		s.BestMs, s.Q1Ms, s.MedianMs = q(0), q(0.25), q(0.5)
		s.Q3Ms, s.WorstMs = q(0.75), q(1)
	}

	// Diversity and entropy over genome hashes, accumulated in
	// first-appearance order so the float sum is deterministic.
	counts := make(map[string]int, len(e.pop))
	order := make([]string, 0, len(e.pop))
	for i := range e.pop {
		h := hashGenome(e.pop[i].Genome)
		if counts[h] == 0 {
			order = append(order, h)
		}
		counts[h]++
	}
	s.Distinct = len(order)
	if len(e.pop) > 0 {
		s.Diversity = float64(s.Distinct) / float64(len(e.pop))
		inv := 1.0 / float64(len(e.pop))
		for _, h := range order {
			p := float64(counts[h]) * inv
			s.Entropy -= p * math.Log2(p)
		}
	}

	for i := len(e.hist.Records) - 1; i >= 0; i-- {
		if e.hist.Records[i].NewBest {
			break
		}
		s.Plateau++
	}

	for i := range e.pop {
		pr := &e.provs[i]
		a := e.opAgg[pr.op]
		if a == nil {
			a = &OpStats{Op: pr.op}
			e.opAgg[pr.op] = a
		}
		a.Attempts++
		if e.pop[i].Valid() {
			a.Valid++
		}
		if e.pop[i].Fitness < pr.parentMs {
			a.Improved++
		}
	}
	s.Ops = opStatsSorted(e.opAgg)
	e.stats = s
}

// opStatsSorted flattens the cumulative operator counters into a slice
// sorted by operator name — a deterministic order independent of map
// iteration and of which operator fired first.
func opStatsSorted(m map[string]*OpStats) []OpStats {
	names := make([]string, 0, len(m))
	for op := range m {
		names = append(names, op)
	}
	sort.Strings(names)
	out := make([]OpStats, len(names))
	for i, op := range names {
		out[i] = *m[op]
	}
	return out
}

// OpContribution is one row of the per-operator table: the operator's
// productivity summed over demes, plus the best-ever improvements a lineage
// attributes to it (Discoveries) and their total fitness gain (DeltaMs).
type OpContribution struct {
	OpStats
	Discoveries int     `json:"discoveries,omitempty"`
	DeltaMs     float64 `json:"delta_ms,omitempty"`
}

// OpContributions merges per-deme operator counters (one GenStats per
// deme) with the discoveries of a best-improvement lineage into one table
// sorted by operator name.
func OpContributions(stats []GenStats, lineage []LineageEntry) []OpContribution {
	byOp := make(map[string]*OpContribution)
	var order []string
	row := func(op string) *OpContribution {
		c := byOp[op]
		if c == nil {
			c = &OpContribution{OpStats: OpStats{Op: op}}
			byOp[op] = c
			order = append(order, op)
		}
		return c
	}
	for _, s := range stats {
		for _, o := range s.Ops {
			c := row(o.Op)
			c.Attempts += o.Attempts
			c.Valid += o.Valid
			c.Improved += o.Improved
		}
	}
	for _, l := range lineage {
		c := row(l.Op)
		c.Discoveries++
		c.DeltaMs += l.DeltaMs
	}
	sort.Strings(order)
	out := make([]OpContribution, len(order))
	for i, op := range order {
		out[i] = *byOp[op]
	}
	return out
}

// Stats returns the search-health statistics of the most recently completed
// generation (the zero GenStats before the first Step).
func (e *Engine) Stats() GenStats {
	s := e.stats
	s.Ops = append([]OpStats(nil), s.Ops...)
	return s
}
