package core

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
)

func TestGenStatsInvariants(t *testing.T) {
	eng := lineageSearch(t)
	s := eng.Stats()
	if s.Gen != eng.Generation() {
		t.Fatalf("stats gen %d, want %d", s.Gen, eng.Generation())
	}
	if s.ValidFrac <= 0 || s.ValidFrac > 1 {
		t.Fatalf("valid_frac %g out of (0,1]", s.ValidFrac)
	}
	// Quartiles must be ordered and bracketed by best/worst.
	if !(s.BestMs <= s.Q1Ms && s.Q1Ms <= s.MedianMs && s.MedianMs <= s.Q3Ms && s.Q3Ms <= s.WorstMs) {
		t.Fatalf("quartiles out of order: %+v", s)
	}
	if s.MeanMs < s.BestMs || s.MeanMs > s.WorstMs {
		t.Fatalf("mean %g outside [best %g, worst %g]", s.MeanMs, s.BestMs, s.WorstMs)
	}
	if s.BestMs != eng.Best(1)[0].Fitness {
		t.Fatalf("stats best %g, want population best %g", s.BestMs, eng.Best(1)[0].Fitness)
	}
	pop := len(eng.Population())
	if s.Distinct < 1 || s.Distinct > pop {
		t.Fatalf("distinct %d outside [1,%d]", s.Distinct, pop)
	}
	if want := float64(s.Distinct) / float64(pop); s.Diversity != want {
		t.Fatalf("diversity %g, want %g", s.Diversity, want)
	}
	if s.Entropy < 0 || s.Entropy > math.Log2(float64(pop))+1e-12 {
		t.Fatalf("entropy %g outside [0, log2(%d)]", s.Entropy, pop)
	}
	// Every individual of every generation is exactly one operator attempt.
	var attempts int64
	for _, o := range s.Ops {
		if o.Op == "" {
			t.Fatalf("unnamed operator in %+v", s.Ops)
		}
		if o.Valid > o.Attempts || o.Improved > o.Attempts {
			t.Fatalf("operator %q counters inconsistent: %+v", o.Op, o)
		}
		attempts += o.Attempts
	}
	if want := int64(pop * eng.Generation()); attempts != want {
		t.Fatalf("total attempts %d, want pop*gens = %d", attempts, want)
	}
	// Plateau is bounded by the generations run and zero only when the final
	// generation found a new best.
	if s.Plateau < 0 || s.Plateau >= eng.Generation() && !eng.History().Records[0].NewBest {
		t.Fatalf("plateau %d out of range for %d generations", s.Plateau, eng.Generation())
	}
	last := eng.History().Records[len(eng.History().Records)-1]
	if (s.Plateau == 0) != last.NewBest {
		t.Fatalf("plateau %d disagrees with final NewBest=%v", s.Plateau, last.NewBest)
	}
}

// TestStatsCheckpointRoundTrip pins that the cumulative operator counters
// survive Snapshot/Restore, so a resumed search reports the same telemetry
// as an uninterrupted one — and that legacy checkpoints without the ops key
// still load.
func TestStatsCheckpointRoundTrip(t *testing.T) {
	eng := lineageSearch(t)
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	if len(st.Ops) == 0 {
		t.Fatalf("snapshot carries no operator counters")
	}
	back, err := RestoreEngine(eng.w, eng.cfg, st)
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	got := opStatsSorted(back.opAgg)
	want := opStatsSorted(eng.opAgg)
	if len(got) != len(want) {
		t.Fatalf("restored %d operators, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("restored op %+v, want %+v", got[i], want[i])
		}
	}
	// Legacy checkpoint (no ops key): counters restart empty.
	st.Ops = nil
	legacy, err := RestoreEngine(eng.w, eng.cfg, st)
	if err != nil {
		t.Fatalf("legacy restore: %v", err)
	}
	if len(legacy.opAgg) != 0 {
		t.Fatalf("legacy checkpoint grew operator counters")
	}
}

// TestOpContributions pins the per-operator table gevo -lineage prints and
// GET /jobs/{id}/diag serves: counters summed over demes, discoveries and
// gain from the lineage, rows sorted by name, and the flat JSON row shape.
func TestOpContributions(t *testing.T) {
	stats := []GenStats{
		{Ops: []OpStats{{Op: "mutation", Attempts: 5, Valid: 2, Improved: 1}, {Op: "elite", Attempts: 4, Valid: 4}}},
		{Ops: []OpStats{{Op: "mutation", Attempts: 3, Valid: 1, Improved: 1}}},
	}
	lineage := []LineageEntry{{Op: "mutation", DeltaMs: 0.5}, {Op: "migrant", DeltaMs: 0.25}, {Op: "mutation", DeltaMs: 0.125}}
	got := OpContributions(stats, lineage)
	want := []OpContribution{
		{OpStats: OpStats{Op: "elite", Attempts: 4, Valid: 4}},
		{OpStats: OpStats{Op: "migrant"}, Discoveries: 1, DeltaMs: 0.25},
		{OpStats: OpStats{Op: "mutation", Attempts: 8, Valid: 3, Improved: 2}, Discoveries: 2, DeltaMs: 0.625},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OpContributions = %+v, want %+v", got, want)
	}
	blob, err := json.Marshal(got[2])
	if err != nil {
		t.Fatal(err)
	}
	if s := string(blob); s != `{"op":"mutation","attempts":8,"valid":3,"improved":2,"discoveries":2,"delta_ms":0.625}` {
		t.Errorf("row JSON = %s", s)
	}
	if got := OpContributions(nil, nil); len(got) != 0 {
		t.Errorf("empty input gave %+v", got)
	}
}
