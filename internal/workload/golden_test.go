package workload_test

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the simulated-time golden file")

// TestSimulatedTimeGolden pins simulated time itself, not only agreement
// between backends: the fitness bits of the three paper applications, base
// and canonical edit set, on every architecture, under both backends. A
// change meant to make the simulator faster must leave every line as it is;
// a change to the cost model regenerates the file with -update and says so.
func TestSimulatedTimeGolden(t *testing.T) {
	defer func(b gpu.Backend) { gpu.DefaultBackend = b }(gpu.DefaultBackend)
	defer gpu.SetVerifyCompiled(gpu.SetVerifyCompiled(true))

	v0, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{Seed: 11, FitPairs: 2, HoldoutPairs: 2, RefLen: 48, QueryLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	v1, err := workload.NewADEPT(kernels.ADEPTV1, workload.ADEPTOptions{Seed: 11, FitPairs: 2, HoldoutPairs: 2, RefLen: 48, QueryLen: 32})
	if err != nil {
		t.Fatal(err)
	}
	cov, err := workload.NewSIMCoV(workload.SIMCoVOptions{Seed: 3, W: 16, H: 12, Steps: 6})
	if err != nil {
		t.Fatal(err)
	}
	v0Edits, err := core.CanonicalADEPTV0(v0.Base())
	if err != nil {
		t.Fatal(err)
	}
	_, v1Edits, err := core.CanonicalADEPTV1(v1.Base(), true)
	if err != nil {
		t.Fatal(err)
	}
	covEdits, err := core.CanonicalSIMCoV(cov.Base())
	if err != nil {
		t.Fatal(err)
	}
	programs := []struct {
		name string
		w    workload.Workload
		m    *ir.Module
	}{
		{"adept-v0/base", v0, v0.Base()},
		{"adept-v0/canonical", v0, core.Variant(v0.Base(), v0Edits)},
		{"adept-v1/base", v1, v1.Base()},
		{"adept-v1/canonical", v1, core.Variant(v1.Base(), v1Edits)},
		{"simcov/base", cov, cov.Base()},
		{"simcov/canonical", cov, core.Variant(cov.Base(), covEdits)},
	}
	backends := []struct {
		name string
		b    gpu.Backend
	}{{"interp", gpu.BackendInterp}, {"threaded", gpu.BackendThreaded}}

	var sb strings.Builder
	for _, p := range programs {
		for _, arch := range gpu.Architectures {
			for _, be := range backends {
				gpu.DefaultBackend = be.b
				ms, err := p.w.Evaluate(p.m, arch)
				if err != nil {
					t.Fatalf("%s on %s (%s): %v", p.name, arch.Name, be.name, err)
				}
				fmt.Fprintf(&sb, "%s %s %s %016x\n", p.name, arch.Name, be.name, math.Float64bits(ms))
			}
		}
	}
	got := sb.String()

	golden := filepath.Join("testdata", "simulated_time.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if got != string(want) {
		wantLines := strings.Split(string(want), "\n")
		for i, line := range strings.Split(got, "\n") {
			switch {
			case i >= len(wantLines):
				t.Errorf("line %d: %q is not in the golden file", i+1, line)
			case line != wantLines[i]:
				t.Errorf("line %d: got %q, the golden file has %q", i+1, line, wantLines[i])
			}
		}
	}
}
