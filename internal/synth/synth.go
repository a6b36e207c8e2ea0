// Package synth is the scenario-generation subsystem: a deterministic,
// seed-driven generator of GPU kernel families that manufactures unbounded
// optimizable workloads for the same engine, island and serve stacks that
// run the paper's two applications. Each generated scenario is a verified
// ir.Module plus a generator-derived oracle: the host-side reference
// implementation (mirroring the kernel's operation order bit for bit) is
// cross-checked at construction time against the reference interpreter
// running the base program, and every variant evaluated during search must
// reproduce those golden output bytes exactly.
//
// Scenarios are addressed by parseable names — synth:FAMILY[:seed=S][:n=N]
// — registered behind workload.ByNameWith, so all search tools and the
// serve job API reach them with no new plumbing. The same spec always
// yields byte-identical IR and byte-identical datasets, which makes
// fixed-seed search results bit-identical and makes the generated corpus
// usable for differential testing of the execution backends (families
// deliberately span timing-uniform shapes, which exercise the
// uniform-launch memoization, and data-dependent shapes, which must never
// qualify for it). See DESIGN.md §7.
package synth

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"gevo/internal/rng"
)

// Prefix starts every synthetic workload name.
const Prefix = "synth:"

// Spec addresses one generated scenario: the kernel family, the generator
// seed (driving both the kernel's structural parameters and the dataset
// contents), and the problem size. The canonical rendering (Name) fully
// determines the scenario.
type Spec struct {
	// Family is a registered family name (Families lists them).
	Family string
	// Seed drives structure and data generation (default 1).
	Seed uint64
	// N is the problem size; its unit is family-specific (elements for the
	// 1-D families, cells for stencil2d, the matrix side for matmul).
	// Zero picks the family default.
	N int
}

// familyDef describes one kernel family: size bounds, the expected
// timing-uniformity of its generated kernels, and the generator.
type familyDef struct {
	name             string
	defN, minN, maxN int
	// uniform is the family's documented timing shape: true families must
	// compile timing-oblivious (and so exercise the uniform-launch memo),
	// false families must not (their timing depends on loaded data).
	uniform bool
	// checkN enforces family-specific size constraints beyond the range.
	checkN func(n int) error
	// build generates the scenario for a validated spec.
	build func(sp Spec, shape *rng.R) *scenario
}

// families is the fixed-order family table; order is part of the public
// listing (and of the fuzz corpus encoding).
var families = []familyDef{
	{name: "stencil1d", defN: 1024, minN: 32, maxN: 1 << 20, uniform: true, build: buildStencil1D},
	{name: "stencil2d", defN: 1024, minN: 64, maxN: 1 << 18, uniform: true, checkN: checkSquare, build: buildStencil2D},
	{name: "reduce", defN: 4096, minN: 64, maxN: 1 << 20, uniform: true, build: buildReduce},
	{name: "scan", defN: 2048, minN: 64, maxN: 1 << 18, uniform: true, build: buildScan},
	{name: "histogram", defN: 4096, minN: 64, maxN: 1 << 20, uniform: false, build: buildHistogram},
	{name: "matmul", defN: 16, minN: 8, maxN: 128, uniform: true, checkN: checkMul8, build: buildMatmul},
	{name: "branchy", defN: 2048, minN: 32, maxN: 1 << 18, uniform: false, build: buildBranchy},
}

func familyByName(name string) *familyDef {
	for i := range families {
		if families[i].name == name {
			return &families[i]
		}
	}
	return nil
}

// Families lists the family names in table order.
func Families() []string {
	out := make([]string, len(families))
	for i, f := range families {
		out[i] = f.name
	}
	return out
}

// FamilyNames is the comma-separated family listing, for error messages and
// flag help.
var FamilyNames = strings.Join(Families(), ", ")

// TimingUniform reports the documented timing shape of a family: whether its
// generated kernels are expected to prove timing-oblivious under the
// uniform-launch taint analysis. The second result reports whether the
// family exists.
func TimingUniform(family string) (bool, bool) {
	f := familyByName(family)
	if f == nil {
		return false, false
	}
	return f.uniform, true
}

func checkSquare(n int) error {
	s := isqrt(n)
	if s*s != n {
		return fmt.Errorf("n=%d is not a perfect square (stencil2d runs an s×s grid)", n)
	}
	return nil
}

func checkMul8(n int) error {
	if n%8 != 0 {
		return fmt.Errorf("n=%d is not a multiple of 8 (matmul tiles divide the matrix side)", n)
	}
	return nil
}

func isqrt(n int) int {
	s := 0
	for (s+1)*(s+1) <= n {
		s++
	}
	return s
}

// Parse decodes a synthetic workload name. Accepted forms:
//
//	synth:FAMILY
//	synth:FAMILY:seed=S
//	synth:FAMILY:seed=S:n=N    (keys in any order)
//
// Omitted keys take defaults (seed 1, the family's default size). Errors are
// descriptive: unknown families list the registry, malformed and
// out-of-range values report the accepted form.
func Parse(name string) (Spec, error) {
	if !strings.HasPrefix(name, Prefix) {
		return Spec{}, fmt.Errorf("synth: %q does not start with %q", name, Prefix)
	}
	parts := strings.Split(name[len(Prefix):], ":")
	if parts[0] == "" {
		return Spec{}, fmt.Errorf("synth: %q names no family (known: %s)", name, FamilyNames)
	}
	sp := Spec{Family: parts[0], Seed: 1}
	f := familyByName(sp.Family)
	if f == nil {
		return Spec{}, fmt.Errorf("synth: unknown family %q (known: %s)", sp.Family, FamilyNames)
	}
	sp.N = f.defN
	seen := map[string]bool{}
	for _, kv := range parts[1:] {
		key, val, ok := strings.Cut(kv, "=")
		if !ok || val == "" {
			return Spec{}, fmt.Errorf("synth: malformed option %q in %q (want key=value)", kv, name)
		}
		if seen[key] {
			return Spec{}, fmt.Errorf("synth: duplicate option %q in %q", key, name)
		}
		seen[key] = true
		switch key {
		case "seed":
			s, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return Spec{}, fmt.Errorf("synth: bad seed %q in %q: want an unsigned integer", val, name)
			}
			sp.Seed = s
		case "n":
			v, err := strconv.Atoi(val)
			if err != nil {
				return Spec{}, fmt.Errorf("synth: bad size %q in %q: want an integer", val, name)
			}
			sp.N = v
		default:
			return Spec{}, fmt.Errorf("synth: unknown option %q in %q (known: seed, n)", key, name)
		}
	}
	if err := sp.validate(f); err != nil {
		return Spec{}, err
	}
	return sp, nil
}

func (sp Spec) validate(f *familyDef) error {
	if sp.N < f.minN || sp.N > f.maxN {
		return fmt.Errorf("synth: %s size n=%d outside [%d, %d]", f.name, sp.N, f.minN, f.maxN)
	}
	if f.checkN != nil {
		if err := f.checkN(sp.N); err != nil {
			return fmt.Errorf("synth: %s: %w", f.name, err)
		}
	}
	return nil
}

// Name renders the canonical form of the spec: every field explicit, fixed
// key order. Parse(sp.Name()) round-trips, and the canonical name is what
// Workload.Name reports (so serve job specs and fitness-cache keys address
// the exact scenario).
func (sp Spec) Name() string {
	return fmt.Sprintf("%sseed=%d:n=%d", sp.namePrefix(), sp.Seed, sp.N)
}

func (sp Spec) namePrefix() string { return Prefix + sp.Family + ":" }

// DefaultSuite returns one default-configuration spec per family (seed 1,
// default size), in family-table order — the corpus the suite gauntlet and
// the per-family search tests run.
func DefaultSuite() []Spec {
	out := make([]Spec, len(families))
	for i, f := range families {
		out[i] = Spec{Family: f.name, Seed: 1, N: f.defN}
	}
	return out
}

// SeedSuite returns the default suite re-seeded; used to sample search
// behaviour across scenario instances.
func SeedSuite(seed uint64) []Spec {
	out := DefaultSuite()
	for i := range out {
		out[i].Seed = seed
	}
	return out
}

// shapeRng returns the structural parameter stream of a spec. It is
// decoupled from the data stream (dataRng) so the kernel's shape depends
// only on (family, seed, n) and datasets cannot skew structure.
func (sp Spec) shapeRng() *rng.R {
	return rng.New(sp.Seed ^ hashString("shape/"+sp.Family))
}

// dataRng returns the dataset stream: sel 0 is the fitness set, sel 1 the
// held-out set.
func (sp Spec) dataRng(sel uint64) *rng.R {
	return rng.New(sp.Seed ^ hashString("data/"+sp.Family) ^ (sel * 0x9E3779B97F4A7C15))
}

// hashString is FNV-1a, inlined to keep the name→stream mapping frozen (a
// dependency change must never re-key every generated scenario).
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// sortedSpecs is a determinism helper for callers that aggregate suites.
func sortedSpecs(specs []Spec) []Spec {
	out := append([]Spec(nil), specs...)
	sort.Slice(out, func(i, j int) bool { return out[i].Name() < out[j].Name() })
	return out
}
