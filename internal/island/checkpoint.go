package island

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/workload"
)

// CheckpointVersion is the on-disk checkpoint format version. Bump on any
// incompatible change; Load rejects mismatches instead of guessing. The
// per-deme engine payload carries its own core.EngineStateVersion.
const CheckpointVersion = 1

// OverrideState is the serialized form of an Override (arch by name).
type OverrideState struct {
	Arch          string   `json:"arch,omitempty"`
	MutationRate  *float64 `json:"mutation_rate,omitempty"`
	CrossoverRate *float64 `json:"crossover_rate,omitempty"`
}

// ConfigState is the serialized island configuration. Architectures are
// stored by Table I name and resolved through gpu.ArchByName on restore.
type ConfigState struct {
	Demes             int             `json:"demes"`
	MigrationInterval int             `json:"migration_interval"`
	MigrationSize     int             `json:"migration_size"`
	Generations       int             `json:"generations"`
	Seed              uint64          `json:"seed"`
	Workers           int             `json:"workers"`
	Pop               int             `json:"pop"`
	Elite             int             `json:"elite"`
	CrossoverRate     float64         `json:"crossover_rate"`
	MutationRate      float64         `json:"mutation_rate"`
	TournamentK       int             `json:"tournament_k"`
	Arch              string          `json:"arch"`
	Overrides         []OverrideState `json:"overrides,omitempty"`
}

// Checkpoint is the versioned, self-describing on-disk state of an island
// search: the full configuration (so resume needs only the workload), the
// round position, and each deme's engine state.
type Checkpoint struct {
	Version    int                 `json:"version"`
	Workload   string              `json:"workload"`
	Config     ConfigState         `json:"config"`
	Gen        int                 `json:"gen"`
	Migrations int                 `json:"migrations"`
	Demes      []*core.EngineState `json:"demes"`
}

// configState serializes the runtime Config.
func configState(c Config) ConfigState {
	st := ConfigState{
		Demes:             c.Demes,
		MigrationInterval: c.MigrationInterval,
		MigrationSize:     c.MigrationSize,
		Generations:       c.Generations,
		Seed:              c.Seed,
		Workers:           c.Workers,
		Pop:               c.Base.Pop,
		Elite:             c.Base.Elite,
		CrossoverRate:     c.Base.CrossoverRate,
		MutationRate:      c.Base.MutationRate,
		TournamentK:       c.Base.TournamentK,
	}
	if c.Base.Arch != nil {
		st.Arch = c.Base.Arch.Name
	}
	for _, o := range c.Overrides {
		ov := OverrideState{MutationRate: o.MutationRate, CrossoverRate: o.CrossoverRate}
		if o.Arch != nil {
			ov.Arch = o.Arch.Name
		}
		st.Overrides = append(st.Overrides, ov)
	}
	return st
}

// configFromState rebuilds the runtime Config, resolving arch names.
func configFromState(st ConfigState) (Config, error) {
	c := Config{
		Demes:             st.Demes,
		MigrationInterval: st.MigrationInterval,
		MigrationSize:     st.MigrationSize,
		Generations:       st.Generations,
		Seed:              st.Seed,
		Workers:           st.Workers,
		Base: core.Config{
			Pop:           st.Pop,
			Elite:         st.Elite,
			CrossoverRate: st.CrossoverRate,
			MutationRate:  st.MutationRate,
			TournamentK:   st.TournamentK,
		},
	}
	if st.Arch != "" {
		c.Base.Arch = gpu.ArchByName(st.Arch)
		if c.Base.Arch == nil {
			return Config{}, fmt.Errorf("island: unknown arch %q in checkpoint", st.Arch)
		}
	}
	for _, o := range st.Overrides {
		ov := Override{MutationRate: o.MutationRate, CrossoverRate: o.CrossoverRate}
		if o.Arch != "" {
			ov.Arch = gpu.ArchByName(o.Arch)
			if ov.Arch == nil {
				return Config{}, fmt.Errorf("island: unknown override arch %q in checkpoint", o.Arch)
			}
		}
		c.Overrides = append(c.Overrides, ov)
	}
	return c, nil
}

// Snapshot captures the search state. Take it between rounds (StepRound
// leaves every deme evaluated, sorted, and migrated), so a restored search
// reproduces the remaining rounds bit-identically.
func (s *Search) Snapshot() (*Checkpoint, error) {
	cp := &Checkpoint{
		Version:    CheckpointVersion,
		Workload:   s.w.Name(),
		Config:     configState(s.cfg),
		Gen:        s.gen,
		Migrations: s.migrations,
		Demes:      make([]*core.EngineState, len(s.demes)),
	}
	for i, d := range s.demes {
		st, err := d.Snapshot()
		if err != nil {
			return nil, fmt.Errorf("island: deme %d: %w", i, err)
		}
		cp.Demes[i] = st
	}
	return cp, nil
}

// Restore rebuilds a search from a checkpoint over a caller-supplied
// workload, which must be constructed identically to the original (same
// name, same options) for the resumed search to be meaningful; the name is
// verified, the options are the caller's responsibility.
func Restore(w workload.Workload, cp *Checkpoint) (*Search, error) {
	return RestoreWithPool(w, cp, nil)
}

// RestoreWithPool is Restore with the demes attached to a caller-supplied
// evaluation pool (nil gives the ring a private pool sized by the
// checkpoint's Workers) — the resume path of an orchestrator whose searches
// all share one machine-wide pool. The pool never affects results, only
// scheduling and cross-search deduplication.
func RestoreWithPool(w workload.Workload, cp *Checkpoint, pool *core.EvalPool) (*Search, error) {
	if cp == nil {
		return nil, fmt.Errorf("island: nil checkpoint")
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("island: checkpoint version %d, want %d", cp.Version, CheckpointVersion)
	}
	if cp.Workload != w.Name() {
		return nil, fmt.Errorf("island: checkpoint is for workload %q, got %q", cp.Workload, w.Name())
	}
	cfg, err := configFromState(cp.Config)
	if err != nil {
		return nil, err
	}
	cfg.Pool = pool
	cfg.fill()
	if len(cp.Demes) != cfg.Demes {
		return nil, fmt.Errorf("island: checkpoint has %d demes, config %d", len(cp.Demes), cfg.Demes)
	}
	s := &Search{cfg: cfg, w: w, demes: make([]*core.Engine, cfg.Demes), gen: cp.Gen, migrations: cp.Migrations}
	seeds := demeSeeds(cfg.Seed, cfg.Demes)
	if pool == nil {
		pool = core.NewEvalPool(cfg.Workers)
	}
	for i, st := range cp.Demes {
		d, err := core.RestoreEngine(w, cfg.demeConfig(i, seeds[i], pool), st)
		if err != nil {
			return nil, fmt.Errorf("island: deme %d: %w", i, err)
		}
		s.demes[i] = d
	}
	return s, nil
}

// Save writes the checkpoint as JSON, atomically: a temp file in the target
// directory is renamed into place, so a crash mid-write never corrupts an
// existing checkpoint. The temp file is removed only if the write fails.
func (cp *Checkpoint) Save(path string) (err error) {
	blob, err := json.MarshalIndent(cp, "", " ")
	if err != nil {
		return fmt.Errorf("island: marshal checkpoint: %w", err)
	}
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(dir, ".checkpoint-*.json")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	if _, err := tmp.Write(blob); err != nil {
		tmp.Close()
		return err
	}
	// Sync before rename: on many filesystems the rename can otherwise be
	// persisted before the data blocks, and a power loss would leave a
	// truncated file where the previous good checkpoint was.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// Load reads a checkpoint written by Save.
func Load(path string) (*Checkpoint, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var cp Checkpoint
	if err := json.Unmarshal(blob, &cp); err != nil {
		return nil, fmt.Errorf("island: parse checkpoint %s: %w", path, err)
	}
	if cp.Version != CheckpointVersion {
		return nil, fmt.Errorf("island: checkpoint %s version %d, want %d", path, cp.Version, CheckpointVersion)
	}
	return &cp, nil
}
