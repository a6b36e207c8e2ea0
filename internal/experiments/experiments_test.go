package experiments

import (
	"strings"
	"testing"
)

// The experiment harness is what regenerates every figure; these tests pin
// its result shapes at Quick scale so regressions in any layer (IR,
// simulator, kernels, engine, analysis) surface here.

func TestTable1(t *testing.T) {
	out := Table1()
	for _, want := range []string{"P100", "1080Ti", "V100", "Pascal", "Volta", "3584", "5120", "1386 Mhz"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q:\n%s", want, out)
		}
	}
}

func TestFig4Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy")
	}
	rows, rep, err := Fig4(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(rows))
	}
	for _, r := range rows {
		if r.V0GevoX < 10 || r.V0GevoX > 60 {
			t.Errorf("%s: V0-GEVO %.1fx outside the paper's ballpark (18-33x)", r.Arch, r.V0GevoX)
		}
		if r.V1X < 10 || r.V1X > 60 {
			t.Errorf("%s: V1 %.1fx outside 20-35x ballpark", r.Arch, r.V1X)
		}
		if r.V1GevoLocal < 1.10 || r.V1GevoLocal > 1.50 {
			t.Errorf("%s: V1-GEVO/V1 %.2fx outside the paper's 1.17-1.31x ballpark", r.Arch, r.V1GevoLocal)
		}
		// The optimized V1 must end up fastest, V0 slowest (Fig 4 ordering).
		if !(r.V1GevoX > r.V1X) {
			t.Errorf("%s: V1-GEVO (%.1fx) should beat V1 (%.1fx)", r.Arch, r.V1GevoX, r.V1X)
		}
	}
	if !strings.Contains(rep, "FIG 4") {
		t.Error("report header missing")
	}
}

func TestFig5Shapes(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy")
	}
	rows, _, err := Fig5(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.GevoX < 1.05 || r.GevoX > 1.6 {
			t.Errorf("%s: SIMCoV-GEVO %.2fx outside the paper's 1.16-1.43x ballpark", r.Arch, r.GevoX)
		}
	}
}

func TestSIMCoVStepsTable(t *testing.T) {
	rep, err := SIMCoVSteps(Quick)
	if err != nil {
		t.Fatal(err)
	}
	// Every fourth step from the first, then the last (Quick runs 16).
	for _, want := range []string{"32x24 x 16 steps on P100", "chemokine", "\n    1 ", "\n   13 ", "\n   16 "} {
		if !strings.Contains(rep, want) {
			t.Errorf("SIMCoV table missing %q:\n%s", want, rep)
		}
	}
}

func TestFig7Report(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy")
	}
	rep, err := Fig7(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"exec failed", "{6,8,10,5}", "edit 8", "-> {6}"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Fig7 report missing %q:\n%s", want, rep)
		}
	}
}

func TestFig8Staircase(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy")
	}
	rep, err := Fig8(Quick, false)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "{5,6,8,10}") {
		t.Errorf("staircase missing final step:\n%s", rep)
	}
}

func TestBallotArchDependence(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy")
	}
	rep, err := Ballot(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "V100") {
		t.Errorf("ballot report malformed:\n%s", rep)
	}
}

func TestFig10Report(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy")
	}
	rep, err := Fig10(Quick)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"boundary logic share", "fault", "zero-padded"} {
		if !strings.Contains(rep, want) {
			t.Errorf("Fig10 report missing %q:\n%s", want, rep)
		}
	}
}

func TestGeneralityReport(t *testing.T) {
	if testing.Short() {
		t.Skip("simulator-heavy")
	}
	rep, err := Generality(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rep, "% of native gain") {
		t.Errorf("generality report malformed:\n%s", rep)
	}
}
