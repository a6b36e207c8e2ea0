package island

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/kernels"
	"gevo/internal/rng"
	"gevo/internal/workload"
)

func smallADEPT(t *testing.T) *workload.ADEPT {
	t.Helper()
	a, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func ringConfig(workers int) Config {
	return Config{
		Demes: 4, MigrationInterval: 2, MigrationSize: 1, Generations: 6,
		Seed: 42, Workers: workers,
		Base: core.Config{
			Pop: 6, Elite: 1, TournamentK: 3, Arch: gpu.P100,
			CrossoverRate: 0.8, MutationRate: 0.5,
		},
	}
}

// sameResults asserts bit-identical search outcomes: best genome and
// fitness, and every deme's full per-generation history.
func sameResults(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if core.GenomeKey(a.Best.Genome) != core.GenomeKey(b.Best.Genome) {
		t.Errorf("%s: best genome differs:\n  %v\n  %v", label, a.Best.Genome, b.Best.Genome)
	}
	if a.Best.Fitness != b.Best.Fitness || a.BestDeme != b.BestDeme || a.Speedup != b.Speedup {
		t.Errorf("%s: best differs: deme %d %.6f (%.3fx) vs deme %d %.6f (%.3fx)", label,
			a.BestDeme, a.Best.Fitness, a.Speedup, b.BestDeme, b.Best.Fitness, b.Speedup)
	}
	if len(a.Demes) != len(b.Demes) {
		t.Fatalf("%s: deme count differs: %d vs %d", label, len(a.Demes), len(b.Demes))
	}
	for i := range a.Demes {
		ra, rb := a.Demes[i].Result, b.Demes[i].Result
		if !reflect.DeepEqual(ra.History.Records, rb.History.Records) {
			t.Errorf("%s: deme %d history differs", label, i)
		}
		if core.GenomeKey(ra.Best.Genome) != core.GenomeKey(rb.Best.Genome) {
			t.Errorf("%s: deme %d best genome differs", label, i)
		}
	}
}

// searchDigest hashes what a finished ring leaves behind: every deme's
// serialized engine state (population, RNG position, history with lineage,
// Evals, operator counters) and its last GenStats.
func searchDigest(t *testing.T, s *Search) string {
	t.Helper()
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		Demes []*core.EngineState
		Stats []core.GenStats
	}{cp.Demes, s.DemeStats()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:12])
}

// ringGolden is searchDigest of ringConfig's search as the commit before
// content-addressed evaluation produced it (PR 12, bdca9b1), on any worker
// count: keying the shared pool by program instead of by genome moved no
// deme's Evaluations, History, GenStats or snapshot by a byte.
const ringGolden = "2909b074980e153b8b229db9"

// TestIslandsDeterministic is the subsystem's acceptance test: a 4-deme
// ring with a fixed seed produces bit-identical best genome and history
// whether evaluations run on 1 worker or 8, and a mid-search checkpoint
// restored into a fresh search (fresh workload, fresh caches — a new
// process in all but the exec) finishes with the identical result.
func TestIslandsDeterministic(t *testing.T) {
	run := func(workers int) *Result {
		s, err := New(smallADEPT(t), ringConfig(workers))
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		if got := searchDigest(t, s); got != ringGolden {
			t.Errorf("%d workers: end-state digest = %s, want %s", workers, got, ringGolden)
		}
		return res
	}
	r1 := run(1)
	r8 := run(8)
	sameResults(t, "workers 1 vs 8", r1, r8)

	// Mid-search checkpoint/resume: two rounds, snapshot through the JSON
	// wire format, restore over a fresh workload instance, finish.
	s, err := New(smallADEPT(t), ringConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	s.StepRound()
	s.StepRound()
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cp.json")
	if err := cp.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := Restore(smallADEPT(t), loaded)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.Generation() != s.Generation() || resumed.Migrations() != s.Migrations() {
		t.Fatalf("restored position gen=%d mig=%d, want gen=%d mig=%d",
			resumed.Generation(), resumed.Migrations(), s.Generation(), s.Migrations())
	}
	got, err := resumed.Run()
	if err != nil {
		t.Fatal(err)
	}
	sameResults(t, "resumed vs uninterrupted", r1, got)
}

// TestHeterogeneousOverrides checks that per-deme arch and rate overrides
// take effect and survive the checkpoint round trip.
func TestHeterogeneousOverrides(t *testing.T) {
	hot := 0.9
	cfg := ringConfig(4)
	cfg.Demes = 3
	cfg.Generations = 2
	cfg.Overrides = []Override{
		{},
		{Arch: gpu.V100, MutationRate: &hot},
		{Arch: gpu.GTX1080Ti},
	}
	s, err := New(smallADEPT(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	wantArchs := []string{"P100", "V100", "1080Ti"}
	for i, d := range res.Demes {
		if d.Arch != wantArchs[i] {
			t.Errorf("deme %d arch = %q, want %q", i, d.Arch, wantArchs[i])
		}
	}
	// Base fitness must differ across architectures — the heterogeneity is
	// real, not cosmetic.
	if res.Demes[0].Result.BaseFitness == res.Demes[1].Result.BaseFitness {
		t.Error("P100 and V100 demes report identical base fitness")
	}

	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(cp)
	if err != nil {
		t.Fatal(err)
	}
	var rt Checkpoint
	if err := json.Unmarshal(blob, &rt); err != nil {
		t.Fatal(err)
	}
	restored, err := Restore(smallADEPT(t), &rt)
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range wantArchs {
		if got := restored.demes[i].Arch().Name; got != want {
			t.Errorf("restored deme %d arch = %q, want %q", i, got, want)
		}
	}
}

// TestMigrationSpreadsElites checks the ring actually carries genomes: after
// a migration, each deme's population contains its predecessor's pre-round
// best genome (re-evaluated locally).
func TestMigrationSpreadsElites(t *testing.T) {
	cfg := ringConfig(4)
	cfg.Generations = 4 // two rounds; first round migrates
	s, err := New(smallADEPT(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.each(func(_ int, d *core.Engine) { d.Step(cfg.MigrationInterval) })
	s.gen += cfg.MigrationInterval
	bests := make([]string, len(s.demes))
	for i, d := range s.demes {
		bests[i] = core.GenomeKey(d.Best(1)[0].Genome)
	}
	s.migrate()
	if s.Migrations() != 1 {
		t.Fatalf("migrations = %d, want 1", s.Migrations())
	}
	n := len(s.demes)
	for i, d := range s.demes {
		want := bests[(i-1+n)%n]
		found := false
		for _, ind := range d.Population() {
			if core.GenomeKey(ind.Genome) == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("deme %d lacks its predecessor's best genome after migration", i)
		}
	}
}

// TestRestoreRejects pins checkpoint validation: nil, wrong version, wrong
// workload, deme count mismatch, unknown arch.
func TestRestoreRejects(t *testing.T) {
	w := smallADEPT(t)
	if _, err := Restore(w, nil); err == nil {
		t.Error("nil checkpoint accepted")
	}
	if _, err := Restore(w, &Checkpoint{Version: 99, Workload: w.Name()}); err == nil {
		t.Error("wrong version accepted")
	}
	if _, err := Restore(w, &Checkpoint{Version: CheckpointVersion, Workload: "other"}); err == nil {
		t.Error("wrong workload accepted")
	}
	cfg := ringConfig(1)
	cfg.Generations = 1
	s, err := New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bad := *cp
	bad.Demes = bad.Demes[:2]
	if _, err := Restore(w, &bad); err == nil {
		t.Error("deme count mismatch accepted")
	}
	bad = *cp
	bad.Config.Arch = "TPUv9"
	if _, err := Restore(w, &bad); err == nil {
		t.Error("unknown arch accepted")
	}
	if len(cfg.Overrides) != 0 {
		t.Fatal("test setup drift")
	}
	if _, err := New(w, Config{Demes: 3, Overrides: make([]Override, 2)}); err == nil {
		t.Error("override length mismatch accepted")
	}
}

// TestArchRing pins the one rule that turns an arch list into a ring: the
// first arch is the base, a list of two or more is cycled over the demes as
// per-deme overrides, blanks are skipped and unknown names are refused.
func TestArchRing(t *testing.T) {
	archName := func(a *gpu.Arch) string {
		if a == nil {
			return "-"
		}
		return a.Name
	}
	for _, tc := range []struct {
		names     []string
		demes     int
		base      string
		overrides []string // per-deme arch names; nil = homogeneous ring
		err       string
	}{
		{names: []string{"V100"}, demes: 4, base: "V100"},
		{names: []string{"P100", "V100"}, demes: 5, base: "P100", overrides: []string{"P100", "V100", "P100", "V100", "P100"}},
		{names: []string{"P100", "V100", "1080Ti"}, demes: 2, base: "P100", overrides: []string{"P100", "V100"}},
		{names: []string{" P100", "", "  ", "V100 "}, demes: 3, base: "P100", overrides: []string{"P100", "V100", "P100"}},
		{names: []string{" 1080Ti ", ""}, demes: 3, base: "1080Ti"},
		{names: []string{"", " "}, demes: 2, err: "no architectures"},
		{names: nil, demes: 2, err: "no architectures"},
		{names: []string{"P100", "TPUv9"}, demes: 2, err: `unknown arch "TPUv9" (known: P100, 1080Ti, V100)`},
	} {
		base, ov, err := ArchRing(tc.names, tc.demes)
		if tc.err != "" {
			if err == nil || !strings.Contains(err.Error(), tc.err) {
				t.Errorf("ArchRing(%q, %d): err = %v, want %q", tc.names, tc.demes, err, tc.err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ArchRing(%q, %d): %v", tc.names, tc.demes, err)
			continue
		}
		var got []string
		for _, o := range ov {
			got = append(got, archName(o.Arch))
		}
		if archName(base) != tc.base || !reflect.DeepEqual(got, tc.overrides) {
			t.Errorf("ArchRing(%q, %d) = %s %v, want %s %v", tc.names, tc.demes, archName(base), got, tc.base, tc.overrides)
		}
	}
}

// TestSingleDemeIsEngine pins what `gevo -demes 1` rests on: a one-deme
// ring never migrates, so it is exactly one core.Engine seeded with the
// ring's first derived seed, run for the same generations — same best
// genome and fitness bits, evaluation count, history and lineage.
func TestSingleDemeIsEngine(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    func() workload.Workload
	}{
		{"synth", func() workload.Workload {
			w, err := workload.ByName("synth:stencil1d:seed=1:n=32")
			if err != nil {
				t.Fatal(err)
			}
			return w
		}},
		{"adept-v0", func() workload.Workload { return smallADEPT(t) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := ringConfig(2)
			cfg.Demes = 1
			cfg.Generations = 7 // rounds of 2, 2, 2 and 1 generations
			s, err := New(tc.w(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			ring, err := s.Run()
			if err != nil {
				t.Fatal(err)
			}
			got := ring.Demes[0].Result

			ecfg := cfg.Base
			ecfg.Seed = rng.New(cfg.Seed).Uint64()
			ecfg.Generations = cfg.Generations
			want, err := core.NewEngine(tc.w(), ecfg).Run()
			if err != nil {
				t.Fatal(err)
			}

			if ring.Migrations != 0 {
				t.Errorf("one-deme ring migrated %d times", ring.Migrations)
			}
			if core.GenomeKey(got.Best.Genome) != core.GenomeKey(want.Best.Genome) ||
				math.Float64bits(got.Best.Fitness) != math.Float64bits(want.Best.Fitness) {
				t.Errorf("best: ring %v %v, engine %v %v", got.Best.Genome, got.Best.Fitness, want.Best.Genome, want.Best.Fitness)
			}
			if got.Evaluations != want.Evaluations {
				t.Errorf("evaluations: ring %d, engine %d", got.Evaluations, want.Evaluations)
			}
			if !reflect.DeepEqual(got.History.Records, want.History.Records) {
				t.Errorf("history records differ:\n ring   %+v\n engine %+v", got.History.Records, want.History.Records)
			}
			if !reflect.DeepEqual(got.History.Lineage, want.History.Lineage) {
				t.Errorf("lineage differs:\n ring   %+v\n engine %+v", got.History.Lineage, want.History.Lineage)
			}
			if len(want.History.Records) != cfg.Generations {
				t.Errorf("engine ran %d generations, want %d", len(want.History.Records), cfg.Generations)
			}
		})
	}
}
