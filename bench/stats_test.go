package main

import (
	"math"
	"testing"
)

func TestTailPercentileRule(t *testing.T) {
	// The reported tail is the highest of p95/p90/p75 with at least ten
	// samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{
		{24, 0},   // p75 leaves 6 beyond: no tail is reportable
		{40, 75},  // p75 leaves exactly 10
		{120, 90}, // p95 leaves 6, p90 leaves 12
		{199, 90}, // p95 leaves 9
		{200, 95}, // p95 leaves exactly 10
		{700, 95}, // p95 leaves 35
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = p%v, want p%v", c.n, got, c.want)
		}
	}
}

func TestFullSizesReachTheirTail(t *testing.T) {
	// Each workload's fixed tail percentile must be reportable from the
	// fewest units a run can measure.
	unitsPerRound := map[string]int{
		"sim_paper":        12 * fullSizes.simPasses,
		"search_synth":     len(families()) * fullSizes.synthSeeds * fullSizes.synthGens,
		"search_adept":     len(fullSizes.adeptRings) * fullSizes.adeptGens / 2,
		"serve_small_jobs": fullSizes.jobsPerRound,
		"serve_reads":      fullSizes.readsPerRound,
	}
	for _, def := range workloadDefs {
		n := def.minRounds * unitsPerRound[def.name]
		if got := tailPercentile(n); got < def.tail {
			t.Errorf("%s: %d units in %d rounds allow p%v, workload reports p%v", def.name, n, def.minRounds, got, def.tail)
		}
	}
}

func TestPercentile(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3}
	if got := median(vs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("median of four = %v, want 2.5", got)
	}
	if got := percentile(vs, 100); got != 5 {
		t.Errorf("p100 = %v, want 5", got)
	}
	if got := percentile(vs, 75); got != 4 {
		t.Errorf("p75 = %v, want 4", got)
	}
	if vs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := geomean(math.Log(2)+math.Log(8), 2); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", got)
	}
	if got := geomean(0, 0); got != 1 {
		t.Errorf("geomean of nothing = %v, want 1", got)
	}
}
