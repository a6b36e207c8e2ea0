package serve

import (
	"strings"
	"testing"
)

// TestSpecNormalizeKey pins content addressing: an empty spec and a spec
// with every default spelled out address the same job; any substantive
// field change addresses a different one.
func TestSpecNormalizeKey(t *testing.T) {
	a := JobSpec{Workload: "adept-v0"}
	a.Normalize()
	b := JobSpec{
		Workload: "adept-v0", Archs: []string{"P100"}, Demes: 2, Pop: 8,
		Generations: 12, MigrationInterval: 4, MigrationSize: 1,
		MutationRate: f64(0.5), CrossoverRate: f64(0.8), Seed: 1,
	}
	b.Normalize()
	if a.Key() != b.Key() {
		t.Errorf("defaulted and explicit specs key differently:\n%+v\n%+v", a, b)
	}
	if jobID(a.Key()) != jobID(b.Key()) {
		t.Error("job IDs differ for identical keys")
	}

	variants := []func(*JobSpec){
		func(s *JobSpec) { s.Workload = "adept-v1" },
		func(s *JobSpec) { s.Archs = []string{"V100"} },
		func(s *JobSpec) { s.Archs = []string{"P100", "V100"} },
		func(s *JobSpec) { s.Demes = 3 },
		func(s *JobSpec) { s.Pop = 16 },
		func(s *JobSpec) { s.Generations = 20 },
		func(s *JobSpec) { s.MigrationInterval = 2 },
		func(s *JobSpec) { s.MigrationSize = 2 },
		func(s *JobSpec) { s.MutationRate = f64(0.9) },
		func(s *JobSpec) { s.CrossoverRate = f64(0.1) },
		func(s *JobSpec) { s.Seed = 7 },
	}
	seen := map[string]int{a.Key(): -1}
	for i, mutate := range variants {
		s := JobSpec{Workload: "adept-v0"}
		s.Normalize()
		mutate(&s)
		s.Normalize()
		if prev, dup := seen[s.Key()]; dup {
			t.Errorf("variant %d collides with variant %d", i, prev)
		}
		seen[s.Key()] = i
	}
}

// TestSpecNormalizeSynthNames pins workload-name canonicalization:
// equivalent spellings of the same generated scenario — omitted defaults,
// reordered keys — must content-address to one job, and distinct scenarios
// must not collide.
func TestSpecNormalizeSynthNames(t *testing.T) {
	keys := make(map[string]string)
	for _, name := range []string{
		"synth:stencil2d",
		"synth:stencil2d:seed=1",
		"synth:stencil2d:seed=1:n=1024",
		"synth:stencil2d:n=1024:seed=1",
		" synth:stencil2d ",
	} {
		s := JobSpec{Workload: name}
		s.Normalize()
		if s.Workload != "synth:stencil2d:seed=1:n=1024" {
			t.Errorf("Normalize(%q) workload = %q", name, s.Workload)
		}
		keys[s.Key()] = name
	}
	if len(keys) != 1 {
		t.Errorf("equivalent synth spellings produced %d distinct keys: %v", len(keys), keys)
	}
	other := JobSpec{Workload: "synth:stencil2d:seed=2"}
	other.Normalize()
	if _, dup := keys[other.Key()]; dup {
		t.Error("different scenario seed collided with the default spelling")
	}
}

// TestSpecValidate pins the trust-boundary errors: unknown names must list
// the registries, bounds must hold.
func TestSpecValidate(t *testing.T) {
	ok := JobSpec{Workload: "simcov"}
	ok.Normalize()
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}

	cases := []struct {
		name    string
		mutate  func(*JobSpec)
		wantSub string
	}{
		{"unknown workload", func(s *JobSpec) { s.Workload = "nope" }, "known: adept-v0, adept-v1, simcov"},
		{"unknown arch", func(s *JobSpec) { s.Archs = []string{"TPUv9"} }, "known: P100, 1080Ti, V100"},
		{"deme bound", func(s *JobSpec) { s.Demes = 65 }, "demes"},
		{"pop bound", func(s *JobSpec) { s.Pop = 5000 }, "population"},
		{"generation bound", func(s *JobSpec) { s.Generations = 1000000 }, "generations"},
		{"mutation range", func(s *JobSpec) { s.MutationRate = f64(1.5) }, "mutation_rate"},
		{"crossover range", func(s *JobSpec) { s.CrossoverRate = f64(-0.5) }, "crossover_rate"},
	}
	for _, tc := range cases {
		s := JobSpec{Workload: "adept-v0"}
		s.Normalize()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("%s: error %q lacks %q", tc.name, err, tc.wantSub)
		}
	}
}
