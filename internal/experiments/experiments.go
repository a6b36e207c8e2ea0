// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections IV-VI) on the simulated GPUs. Each function returns a
// formatted report; cmd/experiments prints them and the root benchmarks
// drive them. Headline replays (Figs 4, 5, 7) apply the canonical
// GEVO-discovered edit sets; the stochastic figures (6, 8) run real scaled
// searches.
package experiments

import (
	"fmt"
	"math"
	"strings"

	"gevo/internal/analysis"
	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/kernels"
	"gevo/internal/rng"
	"gevo/internal/workload"
)

// Scale selects experiment sizes. Quick keeps everything inside a benchmark
// iteration; Full is for cmd/experiments.
type Scale struct {
	ADEPTPairs  int
	SearchPop   int
	SearchGens  int
	SearchRuns  int
	SIMCoVSteps int
}

// Quick is the benchmark-friendly scale.
var Quick = Scale{ADEPTPairs: 3, SearchPop: 10, SearchGens: 8, SearchRuns: 3, SIMCoVSteps: 16}

// Full is the cmd/experiments scale.
var Full = Scale{ADEPTPairs: 6, SearchPop: 20, SearchGens: 30, SearchRuns: 10, SIMCoVSteps: 40}

func newADEPT(v kernels.ADEPTVersion, pairs int) (*workload.ADEPT, error) {
	return workload.NewADEPT(v, workload.ADEPTOptions{
		Seed: 11, FitPairs: pairs, HoldoutPairs: 2 * pairs, RefLen: 96, QueryLen: 64,
	})
}

func newSIMCoV(steps int, padded bool) (*workload.SIMCoV, error) {
	return workload.NewSIMCoV(workload.SIMCoVOptions{
		Seed: 3, W: 32, H: 24, Steps: steps, LargeW: 96, LargeH: 96, Padded: padded,
	})
}

// Table1 renders the Table I architecture characteristics.
func Table1() string {
	var sb strings.Builder
	sb.WriteString("TABLE I: ARCHITECTURAL CHARACTERISTICS OF THE GPUS\n")
	fmt.Fprintf(&sb, "%-22s %-12s %-12s %-12s\n", "GPU", "P100", "1080Ti", "V100")
	row := func(label string, f func(a *gpu.Arch) string) {
		fmt.Fprintf(&sb, "%-22s %-12s %-12s %-12s\n", label,
			f(gpu.P100), f(gpu.GTX1080Ti), f(gpu.V100))
	}
	row("Architecture Family", func(a *gpu.Arch) string { return a.Family })
	row("CUDA cores", func(a *gpu.Arch) string { return fmt.Sprint(a.CUDACores) })
	row("Core Frequency", func(a *gpu.Arch) string { return fmt.Sprintf("%d Mhz", a.CoreMHz) })
	row("Memory Size", func(a *gpu.Arch) string { return a.MemSize })
	row("SMs (model)", func(a *gpu.Arch) string { return fmt.Sprint(a.SMs) })
	row("Indep. thread sched.", func(a *gpu.Arch) string { return fmt.Sprint(a.IndependentThreadSched) })
	return sb.String()
}

// Fig4Row is one architecture's ADEPT result.
type Fig4Row struct {
	Arch        string
	V0MS        float64
	V0GevoX     float64 // speedup of the V0 GEVO replay over V0
	V1X         float64 // V1 speedup over V0
	V1GevoX     float64 // V1-GEVO replay speedup over V0
	V1GevoLocal float64 // V1-GEVO over V1 (the 1.28x/1.31x/1.17x numbers)
}

// Fig4 replays the canonical ADEPT edit sets on all three GPUs: the paper's
// Figure 4 bars (speedups normalized to ADEPT-V0 within each GPU).
func Fig4(sc Scale) ([]Fig4Row, string, error) {
	v0, err := newADEPT(kernels.ADEPTV0, sc.ADEPTPairs)
	if err != nil {
		return nil, "", err
	}
	v1, err := newADEPT(kernels.ADEPTV1, sc.ADEPTPairs)
	if err != nil {
		return nil, "", err
	}
	v0edits, err := core.CanonicalADEPTV0(v0.Base())
	if err != nil {
		return nil, "", err
	}

	var rows []Fig4Row
	for _, arch := range gpu.Architectures {
		msV0, err := v0.Evaluate(v0.Base(), arch)
		if err != nil {
			return nil, "", fmt.Errorf("%s V0: %w", arch.Name, err)
		}
		msV0g, err := v0.Evaluate(core.Variant(v0.Base(), v0edits), arch)
		if err != nil {
			return nil, "", fmt.Errorf("%s V0-GEVO: %w", arch.Name, err)
		}
		msV1, err := v1.Evaluate(v1.Base(), arch)
		if err != nil {
			return nil, "", fmt.Errorf("%s V1: %w", arch.Name, err)
		}
		// The V100 run's edit set includes the ballot_sync removal
		// (Section VI-B); the Pascal runs' sets do not (it is weak there).
		_, v1edits, err := core.CanonicalADEPTV1(v1.Base(), arch.IndependentThreadSched)
		if err != nil {
			return nil, "", err
		}
		msV1g, err := v1.Evaluate(core.Variant(v1.Base(), v1edits), arch)
		if err != nil {
			return nil, "", fmt.Errorf("%s V1-GEVO: %w", arch.Name, err)
		}
		rows = append(rows, Fig4Row{
			Arch: arch.Name, V0MS: msV0,
			V0GevoX: msV0 / msV0g, V1X: msV0 / msV1, V1GevoX: msV0 / msV1g,
			V1GevoLocal: msV1 / msV1g,
		})
	}
	var sb strings.Builder
	sb.WriteString("FIG 4: ADEPT speedups (normalized to ADEPT-V0 within each GPU)\n")
	fmt.Fprintf(&sb, "%-8s %-12s %-12s %-10s %-12s %-14s\n",
		"GPU", "V0 (ms)", "V0-GEVO", "V1", "V1-GEVO", "V1-GEVO/V1")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s (%8.3f)  %8.1fx  %7.1fx  %8.1fx  %10.2fx\n",
			r.Arch, r.V0MS, r.V0GevoX, r.V1X, r.V1GevoX, r.V1GevoLocal)
	}
	sb.WriteString("paper:   V0-GEVO 32.8/32/18.4x; V1 ~20-30x; V1-GEVO/V1 1.28/1.31/1.17x\n")
	return rows, sb.String(), nil
}

// Fig5Row is one architecture's SIMCoV result.
type Fig5Row struct {
	Arch   string
	BaseMS float64
	GevoX  float64
}

// Fig5 replays the canonical SIMCoV boundary-check-removal set on all three
// GPUs: the paper's Figure 5 (1.29x / 1.43x / 1.17x).
func Fig5(sc Scale) ([]Fig5Row, string, error) {
	s, err := newSIMCoV(sc.SIMCoVSteps, false)
	if err != nil {
		return nil, "", err
	}
	edits, err := core.CanonicalSIMCoV(s.Base())
	if err != nil {
		return nil, "", err
	}
	var rows []Fig5Row
	for _, arch := range gpu.Architectures {
		base, err := s.Evaluate(s.Base(), arch)
		if err != nil {
			return nil, "", fmt.Errorf("%s base: %w", arch.Name, err)
		}
		opt, err := s.Evaluate(core.Variant(s.Base(), edits), arch)
		if err != nil {
			return nil, "", fmt.Errorf("%s gevo: %w", arch.Name, err)
		}
		rows = append(rows, Fig5Row{Arch: arch.Name, BaseMS: base, GevoX: base / opt})
	}
	var sb strings.Builder
	sb.WriteString("FIG 5: SIMCoV speedups (normalized within each GPU)\n")
	fmt.Fprintf(&sb, "%-8s %-12s %-10s\n", "GPU", "base (ms)", "SIMCoV-GEVO")
	for _, r := range rows {
		fmt.Fprintf(&sb, "%-8s (%8.3f)  %8.2fx\n", r.Arch, r.BaseMS, r.GevoX)
	}
	sb.WriteString("paper:   1.29x / 1.43x / 1.17x\n")
	return rows, sb.String(), nil
}

// SIMCoVSteps runs the unmodified SIMCoV on P100 and tabulates the model's
// per-step epidemiological state (every fourth step and the last) — the
// simulation output the fitness tolerance bands are drawn around.
func SIMCoVSteps(sc Scale) (string, error) {
	s, err := newSIMCoV(sc.SIMCoVSteps, false)
	if err != nil {
		return "", err
	}
	ms, stats, err := s.RunStats(s.Base(), gpu.P100)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "SIMCoV %dx%d x %d steps on %s: %.4f simulated ms of kernel time\n",
		s.Params.W, s.Params.H, s.Params.Steps, gpu.P100.Name, ms)
	fmt.Fprintf(&sb, "%5s %8s %8s %8s %8s %8s %8s %10s %10s\n",
		"step", "healthy", "incub", "express", "apopt", "dead", "tcells", "virions", "chemokine")
	for i, st := range stats {
		if i%4 != 0 && i != len(stats)-1 {
			continue
		}
		v := st.Values()
		fmt.Fprintf(&sb, "%5d %8.0f %8.0f %8.0f %8.0f %8.0f %8.0f %10.1f %10.1f\n",
			i+1, v[0], v[1], v[2], v[3], v[4], v[5], v[6], v[7])
	}
	return sb.String(), nil
}

// Fig6Run is one independent search run's outcome.
type Fig6Run struct {
	Seed       uint64
	Speedup    float64
	Trajectory []float64
}

// Fig6 runs independent scaled searches with different seeds on ADEPT-V1 and
// SIMCoV (P100), the paper's Figure 6 distribution study. Budgets are scaled
// from the paper's pop-256 x 300-generation runs; see EXPERIMENTS.md.
func Fig6(sc Scale, simcov bool) ([]Fig6Run, string, error) {
	var w workload.Workload
	var err error
	name := "ADEPT-V1"
	if simcov {
		name = "SIMCoV"
		w, err = newSIMCoV(sc.SIMCoVSteps/2, false)
	} else {
		w, err = newADEPT(kernels.ADEPTV1, 2)
	}
	if err != nil {
		return nil, "", err
	}
	var runs []Fig6Run
	for r := 0; r < sc.SearchRuns; r++ {
		eng := core.NewEngine(w, core.Config{
			Pop: sc.SearchPop, Elite: 2, Generations: sc.SearchGens,
			CrossoverRate: 0.8, MutationRate: 0.9, Seed: uint64(100 + r), Arch: gpu.P100,
		})
		res, err := eng.Run()
		if err != nil {
			return nil, "", err
		}
		runs = append(runs, Fig6Run{Seed: uint64(100 + r), Speedup: res.Speedup, Trajectory: res.History.Speedups()})
	}
	lo, hi, sum := math.Inf(1), 0.0, 0.0
	for _, r := range runs {
		lo = math.Min(lo, r.Speedup)
		hi = math.Max(hi, r.Speedup)
		sum += r.Speedup
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "FIG 6 (%s on P100): %d independent runs, pop %d x %d generations\n",
		name, sc.SearchRuns, sc.SearchPop, sc.SearchGens)
	for _, r := range runs {
		fmt.Fprintf(&sb, "  seed %3d: final %.3fx  trajectory ", r.Seed, r.Speedup)
		for i, s := range r.Trajectory {
			if i%max(1, len(r.Trajectory)/8) == 0 {
				fmt.Fprintf(&sb, "%.2f ", s)
			}
		}
		sb.WriteString("\n")
	}
	fmt.Fprintf(&sb, "  min %.3fx  mean %.3fx  max %.3fx\n", lo, sum/float64(len(runs)), hi)
	if simcov {
		sb.WriteString("paper (full budget): min 1.18x mean 1.28x max 1.35x\n")
	} else {
		sb.WriteString("paper (full budget): min 1.10x mean 1.20x max 1.33x\n")
	}
	return runs, sb.String(), nil
}

// clusterUnits builds the Figure 7 analysis units over the canonical V1
// epistatic cluster plus the dead-load/defensive-store pair (the {0,11}
// analog). Each unit applies to both kernels.
func clusterUnits(a *workload.ADEPT) (names []string, units [][]core.Edit, err error) {
	named, _, err := core.CanonicalADEPTV1(a.Base(), false)
	if err != nil {
		return nil, nil, err
	}
	names = []string{"6", "8", "10", "5"}
	units = [][]core.Edit{
		{named["edit6/fwd"], named["edit6/rev"]},
		{named["edit8/fwd"], named["edit8/rev"]},
		{named["edit10/fwd"], named["edit10/rev"]},
		{named["edit5/fwd"], named["edit5/rev"]},
	}
	return names, units, nil
}

// Fig7 exhaustively evaluates the canonical epistatic cluster's subsets and
// derives the dependency graph, the paper's Figure 7.
func Fig7(sc Scale) (string, error) {
	a, err := newADEPT(kernels.ADEPTV1, sc.ADEPTPairs)
	if err != nil {
		return "", err
	}
	names, units, err := clusterUnits(a)
	if err != nil {
		return "", err
	}
	pseudo := make([]core.Edit, len(units))
	for i := range units {
		pseudo[i] = core.Edit{Kind: core.EditDelete, Func: "unit", Target: i}
	}
	eval := func(subset []core.Edit) (float64, error) {
		var edits []core.Edit
		for _, u := range subset {
			edits = append(edits, units[u.Target]...)
		}
		return a.Evaluate(core.Variant(a.Base(), edits), gpu.P100)
	}
	subsets, err := analysis.Subsets(eval, pseudo)
	if err != nil {
		return "", err
	}
	g := analysis.Dependencies(subsets, len(units))
	var sb strings.Builder
	sb.WriteString("FIG 7: epistatic cluster subsets (ADEPT-V1 on P100)\n")
	sb.WriteString(analysis.FormatSubsets(subsets, names))
	sb.WriteString("dependencies (edit -> requires):\n")
	for i, deps := range g.DependsOn {
		if len(deps) == 0 {
			fmt.Fprintf(&sb, "  edit %-3s -> (none; runs alone)\n", names[i])
			continue
		}
		var dn []string
		for _, d := range deps {
			dn = append(dn, names[d])
		}
		fmt.Fprintf(&sb, "  edit %-3s -> {%s}\n", names[i], strings.Join(dn, ","))
	}
	sb.WriteString("paper: 8,10 depend on 6; 5 depends on 6,8,10; {5,6,8,10} = 15% of the 17% total\n")
	return sb.String(), nil
}

// Fig8 reconstructs the discovery staircase: the cluster's edits applied
// cumulatively in the order the paper's reported run found them
// (6 -> +8 -> +10 -> +5), plus a live scaled search's own discovery
// sequence.
func Fig8(sc Scale, liveSearch bool) (string, error) {
	a, err := newADEPT(kernels.ADEPTV1, sc.ADEPTPairs)
	if err != nil {
		return "", err
	}
	_, units, err := clusterUnits(a)
	if err != nil {
		return "", err
	}
	base, err := a.Evaluate(a.Base(), gpu.P100)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("FIG 8: assembly of the epistatic cluster (ADEPT-V1 on P100)\n")
	// Paper order: 6 (first), 6+8 (gen 47), 6+8+10 (gen 213), +5 (gen 221).
	steps := []struct {
		label string
		idx   []int
	}{
		{"{6}", []int{0}},
		{"{6,8}", []int{0, 1}},
		{"{6,8,10}", []int{0, 1, 2}},
		{"{5,6,8,10}", []int{0, 1, 2, 3}},
	}
	for _, st := range steps {
		var edits []core.Edit
		for _, i := range st.idx {
			edits = append(edits, units[i]...)
		}
		ms, err := a.Evaluate(core.Variant(a.Base(), edits), gpu.P100)
		if err != nil {
			fmt.Fprintf(&sb, "  %-12s exec failed\n", st.label)
			continue
		}
		fmt.Fprintf(&sb, "  %-12s %.3fx\n", st.label, base/ms)
	}
	sb.WriteString("paper run discovered: 6 first, +8 at gen 47, +10 at gen 213, +5 at gen 221\n")

	if liveSearch {
		eng := core.NewEngine(a, core.Config{
			Pop: sc.SearchPop, Elite: 2, Generations: sc.SearchGens,
			CrossoverRate: 0.8, MutationRate: 0.9, Seed: 777, Arch: gpu.P100,
		})
		res, err := eng.Run()
		if err != nil {
			return "", err
		}
		sb.WriteString("live scaled search discovery sequence:\n")
		for _, d := range res.History.Discoveries() {
			fmt.Fprintf(&sb, "  gen %3d: %.3fx  (+%d new edits, genome %d)\n",
				d.Gen, d.Speedup, len(d.NewEdits), len(d.Genome))
		}
	}
	return sb.String(), nil
}

// Ballot measures the Section VI-B ballot_sync removal on every GPU.
func Ballot(sc Scale) (string, error) {
	a, err := newADEPT(kernels.ADEPTV1, sc.ADEPTPairs)
	if err != nil {
		return "", err
	}
	named, _, err := core.CanonicalADEPTV1(a.Base(), true)
	if err != nil {
		return "", err
	}
	edits := []core.Edit{named["ballot/fwd"], named["ballot/rev"]}
	var sb strings.Builder
	sb.WriteString("SEC VI-B: removing ballot_sync before the register exchange\n")
	for _, arch := range gpu.Architectures {
		base, err := a.Evaluate(a.Base(), arch)
		if err != nil {
			return "", err
		}
		opt, err := a.Evaluate(core.Variant(a.Base(), edits), arch)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&sb, "  %-8s %+5.1f%%\n", arch.Name, 100*(base-opt)/base)
	}
	sb.WriteString("paper: +4% on V100 (independent thread scheduling), none on P100\n")
	return sb.String(), nil
}

// Fig10 runs the Section VI-D boundary-check study: removal gain and
// instruction mix on the fitness grid, the large-grid fault, and the padded
// fix.
func Fig10(sc Scale) (string, error) {
	s, err := newSIMCoV(sc.SIMCoVSteps, false)
	if err != nil {
		return "", err
	}
	base, err := s.Evaluate(s.Base(), gpu.P100)
	if err != nil {
		return "", err
	}
	edits, err := core.CanonicalSIMCoV(s.Base())
	if err != nil {
		return "", err
	}
	removed := core.Variant(s.Base(), edits)
	opt, err := s.Evaluate(removed, gpu.P100)
	if err != nil {
		return "", fmt.Errorf("boundary removal failed fitness: %w", err)
	}

	// Instruction-mix share of boundary logic in the diffusion kernels
	// (the paper's "31% of the kernel instructions").
	_, profs, err := s.EvaluateProfiled(s.Base(), gpu.P100)
	if err != nil {
		return "", err
	}
	var boundary, total float64
	for _, name := range []string{"cov_vdiffuse", "cov_cdiffuse"} {
		p := profs[name]
		f := s.Base().Func(name)
		for _, in := range f.Instructions() {
			c := p.Cycles(in.UID)
			total += c
			if in.Loc == 5 { // srcCovBoundary
				boundary += c
			}
		}
	}

	faultErr := s.Validate(removed, gpu.P100)

	sp, err := newSIMCoV(sc.SIMCoVSteps, true)
	if err != nil {
		return "", err
	}
	padded, err := sp.Evaluate(sp.Base(), gpu.P100)
	if err != nil {
		return "", err
	}
	padViol := sp.Validate(sp.Base(), gpu.P100)

	var sb strings.Builder
	sb.WriteString("FIG 10 / SEC VI-D: SIMCoV boundary checks (P100)\n")
	fmt.Fprintf(&sb, "  boundary logic share of diffusion kernels: %.0f%%  (paper: 31%%)\n", 100*boundary/total)
	fmt.Fprintf(&sb, "  (a) checked base:            %.4f ms\n", base)
	fmt.Fprintf(&sb, "  (b) checks removed:          %.4f ms  (%+.1f%%, passes small grid)\n", opt, 100*(base-opt)/base)
	fmt.Fprintf(&sb, "      near-capacity grid:      %v\n", faultErr)
	fmt.Fprintf(&sb, "  (c) zero-padded fix:         %.4f ms  (%+.1f%%, validates: %v)\n",
		padded, 100*(base-padded)/base, padViol == nil)
	sb.WriteString("paper: removal +20% but segfaults at 2500x2500; padding +14% and safe\n")
	return sb.String(), nil
}

// Generality cross-applies edit sets across architectures (Section IV):
// an edit set evolved for the P100 retains almost all of its gain on the
// V100 and 1080Ti.
func Generality(sc Scale) (string, error) {
	a, err := newADEPT(kernels.ADEPTV1, sc.ADEPTPairs)
	if err != nil {
		return "", err
	}
	_, p100Set, err := core.CanonicalADEPTV1(a.Base(), false) // P100 run: no ballot edit
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("SEC IV GENERALITY: P100-evolved ADEPT-V1 edits on other GPUs\n")
	for _, arch := range gpu.Architectures {
		base, err := a.Evaluate(a.Base(), arch)
		if err != nil {
			return "", err
		}
		cross, err := a.Evaluate(core.Variant(a.Base(), p100Set), arch)
		if err != nil {
			return "", err
		}
		_, nativeSet, err := core.CanonicalADEPTV1(a.Base(), arch.IndependentThreadSched)
		if err != nil {
			return "", err
		}
		native, err := a.Evaluate(core.Variant(a.Base(), nativeSet), arch)
		if err != nil {
			return "", err
		}
		crossGain := base - cross
		nativeGain := base - native
		frac := 100.0
		if nativeGain > 0 {
			frac = 100 * crossGain / nativeGain
		}
		fmt.Fprintf(&sb, "  %-8s native %.3fx, cross %.3fx -> %.0f%% of native gain\n",
			arch.Name, base/native, base/cross, frac)
	}
	sb.WriteString("paper: cross-applied sets reach ~99% of native gains (ADEPT-V0)\n")
	return sb.String(), nil
}

// MinimizeDemo runs Algorithm 1 + Algorithm 2 on the canonical V1 set
// bloated with neutral random edits, the Section V pipeline
// (1394 -> 17 -> 5 independent + 12 epistatic in the paper; scaled here).
func MinimizeDemo(sc Scale, junk int) (string, error) {
	a, err := newADEPT(kernels.ADEPTV1, sc.ADEPTPairs)
	if err != nil {
		return "", err
	}
	_, canonical, err := core.CanonicalADEPTV1(a.Base(), false)
	if err != nil {
		return "", err
	}
	// Bloat with neutral edits the way a real best-of-run genome is bloated
	// (the paper found 1394 edits of which 17 mattered).
	edits := append([]core.Edit(nil), canonical...)
	r := rng.New(12345)
	for len(edits) < len(canonical)+junk {
		m := core.Variant(a.Base(), edits)
		e, ok := core.RandomEdit(m, r)
		if !ok {
			break
		}
		trial := append(append([]core.Edit(nil), edits...), e)
		if ms, err := a.Evaluate(core.Variant(a.Base(), trial), gpu.P100); err == nil && !math.IsInf(ms, 1) {
			edits = trial
		}
	}
	eval := func(subset []core.Edit) (float64, error) {
		return a.Evaluate(core.Variant(a.Base(), subset), gpu.P100)
	}
	minRes, err := analysis.Minimize(eval, edits, 0.01)
	if err != nil {
		return "", err
	}
	var kept []core.Edit
	for _, i := range minRes.Kept {
		kept = append(kept, edits[i])
	}
	split, err := analysis.Split(eval, kept, 0.01)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	sb.WriteString("SEC V: edit minimization and epistasis split (ADEPT-V1 on P100)\n")
	fmt.Fprintf(&sb, "  Algorithm 1: %d edits -> %d significant (%d weak dropped)\n",
		len(edits), len(minRes.Kept), len(minRes.Weak))
	fmt.Fprintf(&sb, "  fitness: full %.4f ms, minimized %.4f ms (%.1f%% retained)\n",
		minRes.FullFitness, minRes.KeptFitness, 100*minRes.FullFitness/minRes.KeptFitness)
	fmt.Fprintf(&sb, "  Algorithm 2: %d independent (%.1f%% gain) + %d epistatic (%.1f%% gain)\n",
		len(split.Independent), 100*split.IndepGain, len(split.Epistatic), 100*split.EpiGain)
	sb.WriteString("paper: 1394 -> 17 edits; 5 independent (7%) + 12 epistatic (17%)\n")
	return sb.String(), nil
}
