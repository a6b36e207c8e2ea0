// Package serve is the search-as-a-service subsystem: a JobManager runs
// many concurrent optimization searches in one process, scheduling
// fair-share slices of island rounds over one shared evaluation pool, with
// content-addressed job deduplication, retained finished jobs, and crash-safe
// durable state (a versioned job ledger plus the island checkpoint format),
// so a killed server resumes every in-flight job bit-identically on
// restart. server.go exposes the manager over REST with SSE progress
// streaming and Prometheus /metrics; client/ is the typed API used by
// cmd/gevo-submit. A job is the search cmd/gevo runs from the command line:
// the same island ring, the same arch-cycling rule (island.ArchRing).
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/island"
	"gevo/internal/workload"
)

// JobSpec describes one optimization search: the workload, the island
// topology and architectures, the operator rates, the seed and the budget.
// It is the unit of content addressing — two specs that normalize to the
// same document are the same job (single-flight while running, answered
// by the retained record once done). Every field therefore participates in the canonical key;
// zero fields mean the documented defaults and are filled by Normalize so
// an explicit default and an omitted field address the same job.
type JobSpec struct {
	// Workload is a registered workload name (workload.Names); jobs use the
	// registry's standard dataset configuration so identical names mean
	// identical searches.
	Workload string `json:"workload"`
	// Archs is the GPU list cycled across demes (default ["P100"]); a
	// single name is a homogeneous ring.
	Archs []string `json:"archs"`
	// Demes is the island count (default 2).
	Demes int `json:"demes"`
	// Pop is the per-deme population size (default 8).
	Pop int `json:"pop"`
	// Generations is the per-deme generation budget (default 12).
	Generations int `json:"generations"`
	// MigrationInterval is generations between migrations (default 4).
	MigrationInterval int `json:"migration_interval"`
	// MigrationSize is elites migrated per migration (default 1).
	MigrationSize int `json:"migration_size"`
	// MutationRate is the per-offspring mutation probability (nil = 0.5;
	// explicit 0 disables mutation).
	MutationRate *float64 `json:"mutation_rate"`
	// CrossoverRate is the per-offspring crossover probability (nil = 0.8;
	// explicit 0 disables crossover).
	CrossoverRate *float64 `json:"crossover_rate"`
	// Seed is the master search seed (default 1).
	Seed uint64 `json:"seed"`
}

func f64(v float64) *float64 { return &v }

// Normalize fills defaults in place so that specs differing only in
// explicitness of defaults content-address identically. The workload name
// is canonicalized the same way: equivalent synth: spellings (omitted
// defaults, reordered keys) must coalesce into one job.
func (s *JobSpec) Normalize() {
	s.Workload = workload.Canonical(strings.TrimSpace(s.Workload))
	if len(s.Archs) == 0 {
		s.Archs = []string{"P100"}
	}
	for i, a := range s.Archs {
		s.Archs[i] = strings.TrimSpace(a)
	}
	if s.Demes <= 0 {
		s.Demes = 2
	}
	if s.Pop <= 0 {
		s.Pop = 8
	}
	if s.Generations <= 0 {
		s.Generations = 12
	}
	if s.MigrationInterval <= 0 {
		s.MigrationInterval = 4
	}
	if s.MigrationSize <= 0 {
		s.MigrationSize = 1
	}
	if s.MutationRate == nil {
		s.MutationRate = f64(0.5)
	}
	if s.CrossoverRate == nil {
		s.CrossoverRate = f64(0.8)
	}
	if s.Seed == 0 {
		s.Seed = 1
	}
}

// Validate checks a normalized spec against the workload and architecture
// registries and basic bounds, returning descriptive errors that list the
// known names — the service's trust boundary.
func (s *JobSpec) Validate() error {
	// Resolve validates both registry names and parameterized synth: specs
	// without generating any datasets.
	if err := workload.Resolve(s.Workload); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	for _, a := range s.Archs {
		if _, err := gpu.ResolveArch(a); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}
	if s.Demes > 64 {
		return fmt.Errorf("serve: %d demes exceeds the per-job limit of 64", s.Demes)
	}
	if s.Pop > 4096 {
		return fmt.Errorf("serve: population %d exceeds the per-job limit of 4096", s.Pop)
	}
	if s.Generations > 100000 {
		return fmt.Errorf("serve: %d generations exceeds the per-job limit of 100000", s.Generations)
	}
	// A fixed-order slice, not a map: with both rates invalid, which error
	// a caller sees must not depend on map iteration order (the error text
	// is part of the API surface and of golden tests).
	rates := []struct {
		name string
		r    *float64
	}{{"mutation_rate", s.MutationRate}, {"crossover_rate", s.CrossoverRate}}
	for _, c := range rates {
		if c.r != nil && (*c.r < 0 || *c.r > 1) {
			return fmt.Errorf("serve: %s %v outside [0,1]", c.name, *c.r)
		}
	}
	return nil
}

// Key is the spec's content address: the SHA-256 of its canonical JSON
// document. Normalize first — Key panics on a marshal failure, which cannot
// happen for this struct.
func (s *JobSpec) Key() string {
	blob, err := json.Marshal(s)
	if err != nil {
		panic("serve: marshal JobSpec: " + err.Error())
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:])
}

// jobID derives the externally visible job identifier from a spec key.
// Identical specs get identical IDs, which is what makes submission
// idempotent end to end.
func jobID(key string) string { return "j" + key[:16] }

// islandConfig maps a normalized, validated spec onto the island search
// configuration, cycling Archs across the ring by island.ArchRing, the rule
// cmd/gevo applies to its -archs list. The pool is the manager's shared
// evaluation pool.
func (s *JobSpec) islandConfig(pool *core.EvalPool) (island.Config, error) {
	arch, overrides, err := island.ArchRing(s.Archs, s.Demes)
	if err != nil {
		return island.Config{}, fmt.Errorf("serve: %w", err)
	}
	return island.Config{
		Demes:             s.Demes,
		MigrationInterval: s.MigrationInterval,
		MigrationSize:     s.MigrationSize,
		Generations:       s.Generations,
		Seed:              s.Seed,
		Pool:              pool,
		Overrides:         overrides,
		Base: core.Config{
			Pop:           s.Pop,
			Arch:          arch,
			MutationRate:  *s.MutationRate,
			CrossoverRate: *s.CrossoverRate,
		},
	}, nil
}
