package kernels

import (
	"testing"

	"gevo/internal/gpu"
	"gevo/internal/ir"
)

// TestADEPTModulesVerifyAndCompile checks both ADEPT versions build valid,
// compilable modules with the expected kernels.
func TestADEPTModulesVerifyAndCompile(t *testing.T) {
	for _, v := range []ADEPTVersion{ADEPTV0, ADEPTV1} {
		m := ADEPTModule(v)
		if err := m.Verify(); err != nil {
			t.Fatalf("%v: %v", v, err)
		}
		if _, err := gpu.NewProgramCache().Prepare(m); err != nil {
			t.Fatalf("%v compile: %v", v, err)
		}
	}
	if ADEPTModule(ADEPTV0).Func("sw_forward") == nil {
		t.Error("V0 missing sw_forward")
	}
	m1 := ADEPTModule(ADEPTV1)
	if m1.Func("sw_forward") == nil || m1.Func("sw_reverse") == nil {
		t.Error("V1 missing a kernel")
	}
}

// TestSIMCoVModulesVerifyAndCompile checks both layouts build all eight
// kernels.
func TestSIMCoVModulesVerifyAndCompile(t *testing.T) {
	for _, padded := range []bool{false, true} {
		m := SIMCoVModule(padded)
		if err := m.Verify(); err != nil {
			t.Fatalf("padded=%v: %v", padded, err)
		}
		if _, err := gpu.NewProgramCache().Prepare(m); err != nil {
			t.Fatalf("padded=%v compile: %v", padded, err)
		}
		if len(m.Funcs) != 8 {
			t.Fatalf("padded=%v: %d kernels, want 8 (paper Section III-B)", padded, len(m.Funcs))
		}
	}
}

// TestProgramSizes reports the paper's size metric (Section III-B: V0 has
// 1097 LLVM-IR instructions from one kernel, V1 1707 from two, SIMCoV 1712
// from eight) and checks ours are the same order of magnitude with the same
// ordering.
func TestProgramSizes(t *testing.T) {
	v0 := ADEPTModule(ADEPTV0).NumInstrs()
	v1 := ADEPTModule(ADEPTV1).NumInstrs()
	cov := SIMCoVModule(false).NumInstrs()
	t.Logf("instructions: V0 %d, V1 %d, SIMCoV %d (paper: 1097, 1707, 1712)", v0, v1, cov)
	if v1 <= v0 {
		t.Errorf("V1 (%d) should be larger than V0 (%d), as in the paper", v1, v0)
	}
	if v0 < 100 || cov < 300 {
		t.Errorf("kernels suspiciously small: V0 %d, SIMCoV %d", v0, cov)
	}
}

// TestEditSitesPresent checks every canonical edit site resolves in both V1
// kernels.
func TestEditSitesPresent(t *testing.T) {
	m := ADEPTModule(ADEPTV1)
	for _, name := range []string{"sw_forward", "sw_reverse"} {
		sites := EditSiteUIDs(m.Func(name))
		for _, key := range []string{"lane31cmp", "tailStoreBr", "eExchBr", "hExchBr", "tidLtQ", "guard", "ballot", "activemask", "defensiveStore", "deadLoad"} {
			if _, ok := sites[key]; !ok {
				t.Errorf("%s: site %q missing", name, key)
			}
		}
		// The replacement values must verify: guard and tidLtQ are i1.
		f := m.Func(name)
		for _, key := range []string{"tidLtQ", "guard"} {
			in := f.InstrByUID(sites[key])
			if in == nil || in.Typ != ir.I1 {
				t.Errorf("%s: site %q should be an i1 value, got %v", name, key, in)
			}
		}
	}
}

// TestV0EditSites checks the Section VI-C sites resolve.
func TestV0EditSites(t *testing.T) {
	sites := V0EditSiteUIDs(ADEPTModule(ADEPTV0).Func("sw_forward"))
	if _, ok := sites["memsetBr"]; !ok {
		t.Error("memsetBr missing")
	}
	if _, ok := sites["memsetSync"]; !ok {
		t.Error("memsetSync missing")
	}
}

// TestDiffuseEditSitesOrder checks the eight boundary branches are found in
// neighbour order in both diffusion kernels.
func TestDiffuseEditSitesOrder(t *testing.T) {
	m := SIMCoVModule(false)
	for _, name := range []string{"cov_vdiffuse", "cov_cdiffuse"} {
		sites := DiffuseEditSites(m.Func(name))
		if len(sites) != 8 {
			t.Fatalf("%s: %d sites, want 8", name, len(sites))
		}
		for i := 1; i < len(sites); i++ {
			if sites[i] <= sites[i-1] {
				t.Errorf("%s: sites not in emission order: %v", name, sites)
			}
		}
	}
	// The padded layout has no boundary branches.
	mp := SIMCoVModule(true)
	if n := len(DiffuseEditSites(mp.Func("cov_vdiffuse"))); n != 0 {
		t.Errorf("padded diffusion has %d boundary branches, want 0", n)
	}
}

// TestSourceListings checks edit sites map to non-empty pseudo-source lines.
func TestSourceListings(t *testing.T) {
	m := ADEPTModule(ADEPTV1)
	f := m.Func("sw_forward")
	sites := EditSiteUIDs(f)
	for _, key := range []string{"lane31cmp", "tailStoreBr", "eExchBr", "hExchBr"} {
		in := f.InstrByUID(sites[key])
		if line := m.SourceLine(in.Loc); line == "" {
			t.Errorf("site %q (loc %d) has no source line", key, in.Loc)
		}
	}
}

// TestBlockForQuery checks launch geometry helpers.
func TestBlockForQuery(t *testing.T) {
	for _, tc := range []struct {
		q, want int
		ok      bool
	}{{1, 32, true}, {32, 32, true}, {33, 64, true}, {64, 64, true}, {128, 128, true}, {0, 0, false}, {129, 0, false}} {
		got, err := BlockForQuery(tc.q)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("BlockForQuery(%d) = %d, %v; want %d ok=%v", tc.q, got, err, tc.want, tc.ok)
		}
	}
	if NumWarps(65) != 3 {
		t.Errorf("NumWarps(65) = %d", NumWarps(65))
	}
}

// TestIRTextRoundTripKernels round-trips the real kernels through the text
// format — the PTX dump/reload analog.
func TestIRTextRoundTripKernels(t *testing.T) {
	for _, m := range []*ir.Module{ADEPTModule(ADEPTV0), ADEPTModule(ADEPTV1), SIMCoVModule(false)} {
		text := m.String()
		m2, err := ir.Parse(text)
		if err != nil {
			t.Fatalf("%s: parse: %v", m.Name, err)
		}
		if m2.String() != text {
			t.Errorf("%s: round trip differs", m.Name)
		}
		if err := m2.Verify(); err != nil {
			t.Errorf("%s: parsed module invalid: %v", m.Name, err)
		}
	}
}
