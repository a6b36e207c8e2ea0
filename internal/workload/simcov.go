package workload

import (
	"fmt"
	"sync"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/simcov"
)

// SIMCoV is the coronavirus-simulation workload. Fitness runs a small grid
// for a few steps (the paper's 100×100 × 2500-step budget, scaled); held-out
// validation re-runs longer and additionally runs a larger grid on a device
// whose memory is nearly full — the Figure 10 configuration in which
// boundary-check-removal variants fault.
type SIMCoV struct {
	Params simcov.Params
	// Padded selects the zero-padded kernel layout (Fig 10c).
	Padded bool

	base     *ir.Module
	baseProg *gpu.Program // compiled base (Base() callers clone before editing)
	// initFit and initLarge are the precomputed initial device images (RNG
	// streams, virion point sources) of the two grid geometries.
	initFit   *covInit
	bands     *simcov.Bands // fitness-length tolerance bands
	longSteps int
	largeP    simcov.Params
	budget    int64

	// heldOut builds what only Validate reads on its first call, so a
	// caller that never validates never pays for it.
	heldOut    sync.Once
	initLarge  *covInit
	longBands  *simcov.Bands // held-out longer-run bands
	largeBands *simcov.Bands // held-out large-grid bands
}

// SIMCoVOptions configures the workload scale.
type SIMCoVOptions struct {
	// Seed drives the simulation and band replicas.
	Seed uint64
	// W, H and Steps define the fitness run (defaults 24×24 × 40 steps).
	W, H, Steps int
	// LargeW, LargeH define the held-out large grid (defaults 96×96 × 6
	// steps on a near-full device).
	LargeW, LargeH int
	// Budget bounds dynamic instructions per launch.
	Budget int64
	// Padded builds the zero-padded variant.
	Padded bool
}

func (o *SIMCoVOptions) fill() {
	if o.W == 0 {
		o.W = 32
	}
	if o.H == 0 {
		o.H = 24
	}
	if o.Steps == 0 {
		o.Steps = 40
	}
	if o.LargeW == 0 {
		o.LargeW = 96
	}
	if o.LargeH == 0 {
		o.LargeH = 96
	}
	if o.Budget == 0 {
		o.Budget = gpu.DefaultDynInstrBudget
	}
}

// Band tolerances: ±6σ over the seed ensemble, with a 15% relative floor and
// a small absolute floor — wide enough for benign edge noise (in-arena
// out-of-bounds reads), tight enough to reject broken dynamics.
const (
	bandSigma = 6.0
	bandFloor = 0.15
	bandMin   = 3.0
	bandReps  = 5
)

// NewSIMCoV builds the workload: base module and the fitness run's
// ground-truth tolerance bands. The held-out runs' bands and large-grid
// image are built by the first Validate.
func NewSIMCoV(opt SIMCoVOptions) (*SIMCoV, error) {
	opt.fill()
	p := simcov.DefaultParams(opt.W, opt.H)
	p.Seed = opt.Seed + 7
	p.Steps = opt.Steps
	s := &SIMCoV{
		Params:    p,
		Padded:    opt.Padded,
		base:      kernels.SIMCoVModule(opt.Padded),
		longSteps: opt.Steps * 2,
		budget:    opt.Budget,
	}
	s.largeP = simcov.DefaultParams(opt.LargeW, opt.LargeH)
	s.largeP.Seed = p.Seed
	s.largeP.Steps = 6
	s.largeP.InitialInfections = 8

	s.bands = simcov.ComputeBands(p, p.Steps, bandReps, bandSigma, bandFloor, bandMin)
	s.initFit = buildCovInit(p, s.Padded)
	if prog, err := gpu.Prepare(s.base); err == nil {
		s.baseProg = prog
	}
	return s, nil
}

// prepare returns the compiled program for a variant, short-circuiting the
// content hash for the immutable base module.
func (s *SIMCoV) prepare(m *ir.Module, st *gpu.EvalStats) (*gpu.Program, error) {
	if m == s.base && s.baseProg != nil {
		if st != nil {
			st.ProgramHits++
		}
		return s.baseProg, nil
	}
	return gpu.PrepareStats(m, st)
}

// covInit is the initial device state of one grid geometry, marshalled once
// at workload construction: per-cell RNG streams and the virion sources.
type covInit struct {
	rng     []byte
	virions []float64
}

func buildCovInit(p simcov.Params, padded bool) *covInit {
	n := p.W * p.H
	ci := &covInit{rng: make([]byte, 8*n)}
	for i := 0; i < n; i++ {
		v := simcov.SeedCell(p.Seed, i)
		for b := 0; b < 8; b++ {
			ci.rng[8*i+b] = byte(v >> (8 * b))
		}
	}
	v0 := simcov.InitialVirions(p)
	if padded {
		pv := make([]float64, (p.W+2)*(p.H+2))
		for y := 0; y < p.H; y++ {
			for x := 0; x < p.W; x++ {
				pv[(y+1)*(p.W+2)+(x+1)] = v0[y*p.W+x]
			}
		}
		v0 = pv
	}
	ci.virions = v0
	return ci
}

// Name implements Workload.
func (s *SIMCoV) Name() string { return s.base.Name }

// Base implements Workload.
func (s *SIMCoV) Base() *ir.Module { return s.base }

// Evaluate implements Workload: the fitness run.
func (s *SIMCoV) Evaluate(m *ir.Module, arch *gpu.Arch) (float64, error) {
	return s.EvaluateCosted(m, arch, nil)
}

// EvaluateCosted implements Costed: Evaluate with a per-evaluation stats
// handle threaded through the launch path and the program cache.
func (s *SIMCoV) EvaluateCosted(m *ir.Module, arch *gpu.Arch, st *gpu.EvalStats) (float64, error) {
	ms, _, err := s.simulate(m, arch, s.Params, s.initFit, s.Params.Steps, s.bands, 0, nil, st)
	return ms, err
}

// EvaluateProfiled implements Profiler.
func (s *SIMCoV) EvaluateProfiled(m *ir.Module, arch *gpu.Arch) (float64, map[string]*gpu.Profile, error) {
	profs := map[string]*gpu.Profile{}
	ms, _, err := s.simulate(m, arch, s.Params, s.initFit, s.Params.Steps, s.bands, 0, profs, nil)
	return ms, profs, err
}

// Validate implements Workload: the longer run plus the near-capacity large
// grid of Figure 10b.
func (s *SIMCoV) Validate(m *ir.Module, arch *gpu.Arch) error {
	s.heldOut.Do(func() {
		s.longBands = simcov.ComputeBands(s.Params, s.longSteps, bandReps, bandSigma, bandFloor, bandMin)
		s.largeBands = simcov.ComputeBands(s.largeP, s.largeP.Steps, bandReps, bandSigma, bandFloor, bandMin)
		s.initLarge = buildCovInit(s.largeP, s.Padded)
	})
	pp := s.Params
	pp.Steps = s.longSteps
	if _, _, err := s.simulate(m, arch, pp, s.initFit, s.longSteps, s.longBands, 0, nil, nil); err != nil {
		return fmt.Errorf("long run: %w", err)
	}
	if _, _, err := s.simulate(m, arch, s.largeP, s.initLarge, s.largeP.Steps, s.largeBands, s.largeArena(), nil, nil); err != nil {
		return fmt.Errorf("large grid: %w", err)
	}
	return nil
}

// RunStats executes the variant and returns its stats trajectory without
// band checking (used by analysis tools and tests).
func (s *SIMCoV) RunStats(m *ir.Module, arch *gpu.Arch) (float64, []simcov.Stats, error) {
	ms, stats, err := s.simulate(m, arch, s.Params, s.initFit, s.Params.Steps, nil, 0, nil, nil)
	return ms, stats, err
}

// largeArena returns a device capacity that leaves less than one grid row of
// slack after the allocations — the Figure 10b "grid fills device memory"
// configuration.
func (s *SIMCoV) largeArena() int {
	return covFootprint(s.largeP, s.Padded) + 128
}

// covFootprint computes the byte footprint of the host allocations,
// including the 256-byte alignment of each.
func covFootprint(p simcov.Params, padded bool) int {
	n := p.W * p.H
	pn := n
	if padded {
		pn = (p.W + 2) * (p.H + 2)
	}
	align := func(x int) int { return (x + 255) &^ 255 }
	total := 0
	for _, sz := range covAllocSizes(n, pn) {
		total = align(total) + sz
	}
	return total
}

func covAllocSizes(n, pn int) []int {
	return []int{
		n,      // epistate i8
		4 * n,  // epitimer i32
		4 * n,  // tcellA i32
		4 * n,  // tcellB i32
		8 * n,  // rng i64
		8 * pn, // vnext f64
		8 * pn, // cnext f64
		8 * pn, // virions f64
		8 * pn, // chem f64
		8 * kernels.NumStats,
	}
}

// covDevice holds the device-side simulation state.
type covDevice struct {
	d                           *gpu.Device
	epistate, epitimer          int64
	tcellA, tcellB              int64
	rng                         int64
	vnext, cnext, virions, chem int64
	stats                       int64
	n, pn                       int
	swapped                     bool
	ks                          map[string]*gpu.Kernel
	gridBlocks, block           int
	budget                      int64
	profs                       map[string]*gpu.Profile
}

// setupCov allocates and initializes device state. Allocation order is
// load-bearing for the Figure 10 experiments: the diffusion source grids
// (virions, chem) sit between other float grids so in-arena out-of-bounds
// reads see plausible small values, and the final small stats buffer leaves
// the forward overrun of the last grid pointing at free arena (silent) or
// past the arena end (fault) depending on capacity.
func setupCov(d *gpu.Device, prog *gpu.Program, p simcov.Params, padded bool, init *covInit, budget int64, profs map[string]*gpu.Profile) (*covDevice, error) {
	n := p.W * p.H
	pn := n
	if padded {
		pn = (p.W + 2) * (p.H + 2)
	}
	cd := &covDevice{d: d, n: n, pn: pn, budget: budget, profs: profs}
	sizes := covAllocSizes(n, pn)
	ptrs := []*int64{
		&cd.epistate, &cd.epitimer, &cd.tcellA, &cd.tcellB, &cd.rng,
		&cd.vnext, &cd.cnext, &cd.virions, &cd.chem, &cd.stats,
	}
	for i, sz := range sizes {
		base, err := d.Alloc(sz)
		if err != nil {
			return nil, err
		}
		*ptrs[i] = base
	}

	// Initial state: RNG streams and virion point sources (precomputed by
	// buildCovInit; uploaded per evaluation).
	if err := d.WriteBytes(cd.rng, init.rng); err != nil {
		return nil, err
	}
	if err := d.WriteF64s(cd.virions, init.virions); err != nil {
		return nil, err
	}

	ks := prog.Kernels
	for _, name := range []string{"cov_spawn", "cov_move", "cov_epi", "cov_vdiffuse", "cov_cdiffuse", "cov_vupdate", "cov_cupdate", "cov_stats"} {
		if ks[name] == nil {
			return nil, fmt.Errorf("simcov: module lacks kernel %s", name)
		}
	}
	cd.ks = ks
	cd.block = kernels.CovBlock
	cd.gridBlocks = (n + cd.block - 1) / cd.block
	if profs != nil {
		for name, k := range ks {
			profs[name] = gpu.NewProfile(k)
		}
	}
	return cd, nil
}

func (cd *covDevice) tcellCur() int64 {
	if cd.swapped {
		return cd.tcellB
	}
	return cd.tcellA
}

func (cd *covDevice) tcellNext() int64 {
	if cd.swapped {
		return cd.tcellA
	}
	return cd.tcellB
}

func (cd *covDevice) launch(name string, grid, block int, args []uint64) (float64, error) {
	cfg := gpu.LaunchConfig{Grid: grid, Block: block, Args: args, MaxDynInstr: cd.budget}
	if cd.profs != nil {
		cfg.Profile = cd.profs[name]
	}
	res, err := cd.d.Launch(cd.ks[name], cfg)
	if err != nil {
		return 0, err
	}
	return res.TimeMS, nil
}

// step runs one simulation iteration (eight kernels) and returns the kernel
// time plus the step's stats.
func (cd *covDevice) step(p simcov.Params) (float64, simcov.Stats, error) {
	w, h := int64(p.W), int64(p.H)
	var total float64
	add := func(ms float64, err error) error {
		total += ms
		return err
	}
	// cudaMemset of the claim grid and the stats counters (host side; not
	// kernel time).
	if err := cd.d.Memset(cd.tcellNext(), 0, 4*cd.n); err != nil {
		return 0, simcov.Stats{}, err
	}
	if err := cd.d.Memset(cd.stats, 0, 8*kernels.NumStats); err != nil {
		return 0, simcov.Stats{}, err
	}

	if err := add(cd.launch("cov_spawn", cd.gridBlocks, cd.block, gpu.PackArgs(
		uint64(cd.chem), uint64(cd.tcellCur()), uint64(cd.rng), w, h,
		p.MinChemokine, p.TCellRate, int64(p.TCellLife)))); err != nil {
		return 0, simcov.Stats{}, err
	}
	if err := add(cd.launch("cov_move", cd.gridBlocks, cd.block, gpu.PackArgs(
		uint64(cd.tcellCur()), uint64(cd.tcellNext()), uint64(cd.rng), w, h))); err != nil {
		return 0, simcov.Stats{}, err
	}
	cd.swapped = !cd.swapped
	if err := add(cd.launch("cov_epi", cd.gridBlocks, cd.block, gpu.PackArgs(
		uint64(cd.epistate), uint64(cd.epitimer), uint64(cd.virions), uint64(cd.tcellCur()), uint64(cd.rng),
		w, h, p.Infectivity, int64(p.IncubationPeriod), int64(p.ExpressingPeriod), int64(p.ApoptosisPeriod)))); err != nil {
		return 0, simcov.Stats{}, err
	}
	if err := add(cd.launch("cov_vdiffuse", cd.gridBlocks, cd.block, gpu.PackArgs(
		uint64(cd.virions), uint64(cd.vnext), w, h, p.VirionDiffusion))); err != nil {
		return 0, simcov.Stats{}, err
	}
	if err := add(cd.launch("cov_cdiffuse", cd.gridBlocks, cd.block, gpu.PackArgs(
		uint64(cd.chem), uint64(cd.cnext), w, h, p.ChemokineDiffusion))); err != nil {
		return 0, simcov.Stats{}, err
	}
	if err := add(cd.launch("cov_vupdate", cd.gridBlocks, cd.block, gpu.PackArgs(
		uint64(cd.virions), uint64(cd.vnext), uint64(cd.epistate), w, h,
		p.VirionDecay, p.VirionProduction))); err != nil {
		return 0, simcov.Stats{}, err
	}
	if err := add(cd.launch("cov_cupdate", cd.gridBlocks, cd.block, gpu.PackArgs(
		uint64(cd.chem), uint64(cd.cnext), uint64(cd.epistate), w, h,
		p.ChemokineDecay, p.ChemokineProduction))); err != nil {
		return 0, simcov.Stats{}, err
	}
	if err := add(cd.launch("cov_stats", 1, kernels.CovStatsBlock, gpu.PackArgs(
		uint64(cd.epistate), uint64(cd.tcellCur()), uint64(cd.virions), uint64(cd.chem),
		w, h, uint64(cd.stats)))); err != nil {
		return 0, simcov.Stats{}, err
	}

	raw, err := cd.d.ReadBytes(cd.stats, 8*kernels.NumStats)
	if err != nil {
		return 0, simcov.Stats{}, err
	}
	var vals [kernels.NumStats]int64
	for k := range vals {
		var u uint64
		for b := 0; b < 8; b++ {
			u |= uint64(raw[8*k+b]) << (8 * b)
		}
		vals[k] = int64(u)
	}
	st := simcov.Stats{
		Healthy: vals[0], Incubating: vals[1], Expressing: vals[2],
		Apoptotic: vals[3], Dead: vals[4], TCells: vals[5],
		Virions: vals[6], Chemokine: vals[7],
	}
	return total, st, nil
}

// simulate runs `steps` iterations on a fresh device, checking each step's
// stats against the bands when provided. arenaBytes overrides the device
// capacity (0 = the architecture default).
func (s *SIMCoV) simulate(m *ir.Module, arch *gpu.Arch, p simcov.Params, init *covInit, steps int, bands *simcov.Bands, arenaBytes int, profs map[string]*gpu.Profile, st *gpu.EvalStats) (float64, []simcov.Stats, error) {
	prog, err := s.prepare(m, st)
	if err != nil {
		return 0, nil, err
	}
	var d *gpu.Device
	if arenaBytes > 0 {
		d = gpu.AcquireDeviceWithMem(arch, arenaBytes)
	} else {
		d = gpu.AcquireDevice(arch)
	}
	defer d.Release()
	d.Stats = st
	cd, err := setupCov(d, prog, p, s.Padded, init, s.budget, profs)
	if err != nil {
		return 0, nil, err
	}
	var total float64
	series := make([]simcov.Stats, 0, steps)
	for t := 0; t < steps; t++ {
		ms, st, err := cd.step(p)
		if err != nil {
			return 0, nil, err
		}
		total += ms
		series = append(series, st)
	}
	if bands != nil {
		if step, v, got, want, slack, ok := bands.Check(series); !ok {
			return 0, nil, &MismatchError{
				Workload: s.Name(), Pair: step,
				Field: fmt.Sprintf("step %d %s (%.1f not within %.1f±%.1f)", step, simcov.StatNames[v], got, want, slack),
				Got:   int32(got), Want: int32(want),
			}
		}
	}
	return total, series, nil
}
