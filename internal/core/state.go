package core

import (
	"encoding/json"
	"fmt"
	"math"

	"gevo/internal/rng"
	"gevo/internal/workload"
)

// EngineStateVersion is the checkpoint format version for EngineState.
// Bump on any incompatible change to the serialized layout; RestoreEngine
// rejects mismatches instead of guessing.
const EngineStateVersion = 1

// InfFloat is a float64 that survives JSON: encoding/json rejects ±Inf and
// NaN, but fitness values are legitimately +Inf for invalid variants, so
// checkpoints encode the non-finite values as strings.
type InfFloat float64

// MarshalJSON encodes non-finite values as the strings "+Inf", "-Inf",
// "NaN".
func (f InfFloat) MarshalJSON() ([]byte, error) {
	v := float64(f)
	switch {
	case math.IsInf(v, 1):
		return []byte(`"+Inf"`), nil
	case math.IsInf(v, -1):
		return []byte(`"-Inf"`), nil
	case math.IsNaN(v):
		return []byte(`"NaN"`), nil
	}
	return json.Marshal(v)
}

// UnmarshalJSON accepts plain numbers and the three non-finite strings.
func (f *InfFloat) UnmarshalJSON(b []byte) error {
	if len(b) > 0 && b[0] == '"' {
		var s string
		if err := json.Unmarshal(b, &s); err != nil {
			return err
		}
		switch s {
		case "+Inf":
			*f = InfFloat(math.Inf(1))
		case "-Inf":
			*f = InfFloat(math.Inf(-1))
		case "NaN":
			*f = InfFloat(math.NaN())
		default:
			return fmt.Errorf("core: invalid InfFloat %q", s)
		}
		return nil
	}
	var v float64
	if err := json.Unmarshal(b, &v); err != nil {
		return err
	}
	*f = InfFloat(v)
	return nil
}

// IndividualState is the serialized form of one population member.
type IndividualState struct {
	Genome  []Edit   `json:"genome,omitempty"`
	Fitness InfFloat `json:"fitness"`
}

// GenRecordState mirrors GenRecord with JSON-safe fitness fields.
type GenRecordState struct {
	Gen         int      `json:"gen"`
	BestFitness InfFloat `json:"best_fitness"`
	MeanFitness float64  `json:"mean_fitness"`
	ValidFrac   float64  `json:"valid_frac"`
	NewBest     bool     `json:"new_best,omitempty"`
	BestGenome  []Edit   `json:"best_genome,omitempty"`
}

// LineageEntryState mirrors LineageEntry with a JSON-safe parent fitness
// (an invalid parent is legitimately +Inf).
type LineageEntryState struct {
	Gen        int      `json:"gen"`
	Op         string   `json:"op"`
	Kind       string   `json:"kind,omitempty"`
	Site       string   `json:"site,omitempty"`
	Parent     string   `json:"parent,omitempty"`
	Parent2    string   `json:"parent2,omitempty"`
	ParentMs   InfFloat `json:"parent_ms"`
	BestMs     float64  `json:"best_ms"`
	PrevBestMs float64  `json:"prev_best_ms"`
	DeltaMs    float64  `json:"delta_ms"`
	Speedup    float64  `json:"speedup"`
	Edits      int      `json:"edits"`
}

// HistoryState is the serialized form of a History, including the running
// best tracked in unexported fields. Lineage is omitted when empty, so
// pre-lineage checkpoints round-trip unchanged.
type HistoryState struct {
	Base        InfFloat            `json:"base"`
	BestFitness InfFloat            `json:"best_fitness"`
	BestGenome  []Edit              `json:"best_genome,omitempty"`
	Records     []GenRecordState    `json:"records"`
	Lineage     []LineageEntryState `json:"lineage,omitempty"`
}

// State captures the history for checkpointing.
func (h *History) State() HistoryState {
	st := HistoryState{
		Base:        InfFloat(h.Base),
		BestFitness: InfFloat(h.bestFitness),
		BestGenome:  append([]Edit(nil), h.bestGenome...),
		Records:     make([]GenRecordState, len(h.Records)),
	}
	for i, r := range h.Records {
		st.Records[i] = GenRecordState{
			Gen:         r.Gen,
			BestFitness: InfFloat(r.BestFitness),
			MeanFitness: r.MeanFitness,
			ValidFrac:   r.ValidFrac,
			NewBest:     r.NewBest,
			BestGenome:  append([]Edit(nil), r.BestGenome...),
		}
	}
	for _, l := range h.Lineage {
		st.Lineage = append(st.Lineage, LineageEntryState{
			Gen: l.Gen, Op: l.Op, Kind: l.Kind, Site: l.Site,
			Parent: l.Parent, Parent2: l.Parent2,
			ParentMs: InfFloat(l.ParentMs), BestMs: l.BestMs,
			PrevBestMs: l.PrevBestMs, DeltaMs: l.DeltaMs,
			Speedup: l.Speedup, Edits: l.Edits,
		})
	}
	return st
}

// HistoryFromState reconstructs a History from its checkpointed state.
func HistoryFromState(st HistoryState) *History {
	h := &History{
		Base:        float64(st.Base),
		bestFitness: float64(st.BestFitness),
		bestGenome:  append([]Edit(nil), st.BestGenome...),
		Records:     make([]GenRecord, len(st.Records)),
	}
	for i, r := range st.Records {
		h.Records[i] = GenRecord{
			Gen:         r.Gen,
			BestFitness: float64(r.BestFitness),
			MeanFitness: r.MeanFitness,
			ValidFrac:   r.ValidFrac,
			NewBest:     r.NewBest,
			BestGenome:  append([]Edit(nil), r.BestGenome...),
		}
	}
	for _, l := range st.Lineage {
		h.Lineage = append(h.Lineage, LineageEntry{
			Gen: l.Gen, Op: l.Op, Kind: l.Kind, Site: l.Site,
			Parent: l.Parent, Parent2: l.Parent2,
			ParentMs: float64(l.ParentMs), BestMs: l.BestMs,
			PrevBestMs: l.PrevBestMs, DeltaMs: l.DeltaMs,
			Speedup: l.Speedup, Edits: l.Edits,
		})
	}
	return h
}

// EngineState is the serialized search state of one engine: everything a
// fresh process needs to continue the search bit-identically — population
// genomes with fitness, RNG stream position, generation counter and
// history. It deliberately excludes the workload and the architecture
// (supplied by the caller on restore) and the genome memo — it is
// rebuilt warm by the deterministic evaluator, so resumed fitness values
// are identical. The Evals counter carries over as total work across
// processes: because the resumed memo starts cold, genomes evaluated both
// before and after the snapshot count once per process, so a resumed
// search can report more Evaluations than an uninterrupted one even though
// its results are bit-identical.
type EngineState struct {
	Version int               `json:"version"`
	Seed    uint64            `json:"seed"`
	Gen     int               `json:"gen"`
	RNG     [4]uint64         `json:"rng"`
	Base    InfFloat          `json:"base"`
	Evals   int64             `json:"evals"`
	Pop     []IndividualState `json:"pop"`
	History HistoryState      `json:"history"`
	// Ops carries the cumulative per-operator productivity counters
	// (stats.go) so a resumed search reports the same search-health
	// telemetry as an uninterrupted one. Omitted when empty, so
	// pre-telemetry checkpoints round-trip unchanged.
	Ops []OpStats `json:"ops,omitempty"`
}

// Snapshot captures the engine's search state. The engine must be
// initialized (Init or a prior Run/Restore). Snapshot between Steps — the
// population is then evaluated and sorted, and restoring reproduces the
// remaining generations bit-identically.
func (e *Engine) Snapshot() (*EngineState, error) {
	if !e.inited {
		return nil, fmt.Errorf("core: Snapshot of uninitialized engine")
	}
	st := &EngineState{
		Version: EngineStateVersion,
		Seed:    e.cfg.Seed,
		Gen:     e.gen,
		RNG:     e.r.State(),
		Base:    InfFloat(e.base),
		Evals:   e.evals,
		Pop:     make([]IndividualState, len(e.pop)),
		History: e.hist.State(),
		Ops:     opStatsSorted(e.opAgg),
	}
	for i := range e.pop {
		st.Pop[i] = IndividualState{
			Genome:  append([]Edit(nil), e.pop[i].Genome...),
			Fitness: InfFloat(e.pop[i].Fitness),
		}
	}
	return st, nil
}

// RestoreEngine rebuilds an engine from a checkpointed state. The workload
// and Config (architecture, rates, population size) are supplied by the
// caller — the state carries only the search position. The restored engine
// continues exactly where the snapshot was taken: same RNG stream position,
// same population and ranking, same history.
func RestoreEngine(w workload.Workload, cfg Config, st *EngineState) (*Engine, error) {
	if st == nil {
		return nil, fmt.Errorf("core: nil engine state")
	}
	if st.Version != EngineStateVersion {
		return nil, fmt.Errorf("core: engine state version %d, want %d", st.Version, EngineStateVersion)
	}
	if cfg.Seed != st.Seed {
		return nil, fmt.Errorf("core: config seed %d does not match snapshot seed %d", cfg.Seed, st.Seed)
	}
	e := NewEngine(w, cfg)
	e.r = rng.FromState(st.RNG)
	e.gen = st.Gen
	e.base = float64(st.Base)
	e.evals = st.Evals
	e.hist = HistoryFromState(st.History)
	e.pop = make([]Individual, len(st.Pop))
	for i, ind := range st.Pop {
		e.pop[i] = Individual{
			Genome:  append([]Edit(nil), ind.Genome...),
			Fitness: float64(ind.Fitness),
		}
	}
	for _, o := range st.Ops {
		o := o
		e.opAgg[o.Op] = &o
	}
	e.inited = true
	return e, nil
}
