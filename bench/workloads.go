package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"time"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/island"
	"gevo/internal/kernels"
	"gevo/internal/rng"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// sizes holds every workload's size constants. The command always runs
// fullSizes — there is no size flag: a benchmark whose work can be resized
// from the command line is not one benchmark — and only the tests pass
// smaller ones. fullSizes is chosen so a round takes 0.5-2.5 s at P=2.
// Everything the benchmark does not need to shrink (launch budget, operator
// rates, validation, cache sizes, checkpoint cadence) is left at the
// program's default, so a later change to a default shows up.
//
// Search seeds and synthetic scenario seeds are constants too. A search's
// cost depends on its trajectory (one runaway mutant burning its launch
// budget costs more than the rest of its search), so seeds that moved the
// trajectories would move every metric by far more than any bound. -seed
// therefore drives the inputs that leave trajectories alone: the paper
// applications' datasets where no search runs on them, and the order in
// which searches, jobs and requests are issued.
type sizes struct {
	// simPasses is how many times a sim_paper round evaluates each program.
	simPasses int
	// synthSeeds scenarios per family (scenario seeds 1..synthSeeds), each
	// searched with population synthPop for synthGens generations.
	synthSeeds, synthPop, synthGens int
	// adeptRings are the master seeds of the rings of one search_adept
	// round; each ring is two demes of adeptPop for adeptGens generations.
	adeptRings          []uint64
	adeptPop, adeptGens int
	// jobsPerRound jobs per serve_small_jobs round, jobsWarm in its warm-up.
	jobsPerRound, jobsWarm int
	// readsJobs finished jobs populate serve_reads; a round issues
	// readsPerRound requests, the warm-up readsWarm.
	readsJobs, readsPerRound, readsWarm int
}

// adeptRingSeeds are picked from the first 24 so that a search_adept round
// holds the cases the paper's search meets and still fits in ~2.5 s at P=2:
// a winner that overfits the fitness pairs and fails held-out validation
// (2), the 24x memset-loop find that passes it (9), an ordinary validated
// gain (10), and a ring that finds nothing while a runaway mutant burns a
// large part of its 64M-instruction launch budget (11).
var adeptRingSeeds = []uint64{2, 9, 10, 11}

var fullSizes = sizes{
	simPasses:  5,
	synthSeeds: 4, synthPop: 32, synthGens: 20,
	adeptRings: adeptRingSeeds, adeptPop: 8, adeptGens: 10,
	jobsPerRound: 40, jobsWarm: 8,
	readsJobs: 48, readsPerRound: 1500, readsWarm: 100,
}

var workloadDefs = []*workloadDef{
	{
		name: "sim_paper", unit: "workload.Evaluate", minRounds: 5, sameRounds: true, tail: 95,
		serial: true, build: buildSimPaper,
	},
	{
		name: "search_synth", unit: "Engine.Step(1)", minRounds: 5, sameRounds: true, tail: 95, build: buildSearchSynth,
	},
	{
		name: "search_adept", unit: "island.Search.StepRound", minRounds: 5, sameRounds: true, tail: 90, build: buildSearchAdept,
	},
	{
		name: "serve_small_jobs", unit: "job: Submit+WaitDone+Result", minRounds: 24, maxRounds: 24, sameRounds: false, tail: 95, build: buildServeSmallJobs,
	},
	{
		name: "serve_reads", unit: "read request", minRounds: 5, sameRounds: true, tail: 95, build: buildServeReads,
	},
}

func workloadByName(name string) *workloadDef {
	for _, d := range workloadDefs {
		if d.name == name {
			return d
		}
	}
	return nil
}

func workloadNames() string {
	names := make([]string, len(workloadDefs))
	for i, d := range workloadDefs {
		names[i] = d.name
	}
	return strings.Join(names, ", ")
}

// families lists the synthetic kernel families the workloads use: all of
// them but histogram. The program has a defect the benchmark must stay
// clear of: a pooled gpu.Device can come back from sync.Pool with stale
// bytes above its dirty mark after certain mutants of the scan family ran
// on it, and histogram — the one family whose kernel accumulates into its
// output buffer instead of overwriting it — then fails its oracle or flips
// a variant's fitness (about one synth.New in 40 000 beside scan mutants;
// one serve_small_jobs run in 40 lost a job to it). A benchmark whose
// operations fail at random cannot gate anything, so histogram returns
// when the device recycling is fixed.
func families() []string {
	var out []string
	for _, f := range synth.Families() {
		if f != "histogram" {
			out = append(out, f)
		}
	}
	return out
}

// freshProgramCache replaces the process-wide compiled-program cache. The
// search workloads call it when a pass ends (the warm-up included), so every
// round starts from an empty cache and does the same compiles whatever ran
// before it, and the retained heap is read in that same state.
func freshProgramCache() { gpu.DefaultProgramCache = gpu.NewProgramCache() }

// ---------------------------------------------------------------- sim_paper

// simProgram is one fixed program of the sim_paper round.
type simProgram struct {
	name string
	w    workload.Workload
	m    *ir.Module
	arch *gpu.Arch
	// want is the fitness the first evaluation produced; every later one
	// must reproduce it bit for bit.
	want    float64
	hasWant bool
}

// inProcess is embedded by the workloads that call the program directly:
// they hold nothing to release and add no per-layer metrics of their own.
type inProcess struct{}

func (inProcess) layer(map[string]float64, []span) {}
func (inProcess) close()                           {}

type simPaper struct {
	inProcess
	e     *env
	bare  []workload.Workload
	progs []*simProgram
	// pairs indexes progs as (base, canonical variant) per app and arch,
	// the Fig. 4/5 ratios best_speedup is the geometric mean of.
	pairs [][2]int
}

// buildSimPaper builds the three paper applications at reduced dataset
// sizes from the seed, and the 12 programs: each application's base module
// and its core.Canonical* edit set, on P100 and V100.
func buildSimPaper(e *env) (instance, error) {
	v1, err := workload.NewADEPT(kernels.ADEPTV1, workload.ADEPTOptions{Seed: 11 + e.seed, FitPairs: 4, HoldoutPairs: 4})
	if err != nil {
		return nil, err
	}
	v0, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{Seed: 11 + e.seed, FitPairs: 2, HoldoutPairs: 2, RefLen: 48, QueryLen: 32})
	if err != nil {
		return nil, err
	}
	cov, err := workload.NewSIMCoV(workload.SIMCoVOptions{Seed: 3 + e.seed, W: 32, H: 24, Steps: 20})
	if err != nil {
		return nil, err
	}
	_, v1Edits, err := core.CanonicalADEPTV1(v1.Base(), true)
	if err != nil {
		return nil, err
	}
	v0Edits, err := core.CanonicalADEPTV0(v0.Base())
	if err != nil {
		return nil, err
	}
	covEdits, err := core.CanonicalSIMCoV(cov.Base())
	if err != nil {
		return nil, err
	}
	s := &simPaper{e: e, bare: []workload.Workload{v1, v0, cov}}
	apps := []struct {
		w     workload.Workload
		edits []core.Edit
	}{{v1, v1Edits}, {v0, v0Edits}, {cov, covEdits}}
	for _, arch := range []*gpu.Arch{gpu.P100, gpu.V100} {
		for _, a := range apps {
			w := e.wrap(a.w)
			n := len(s.progs)
			s.progs = append(s.progs,
				&simProgram{name: a.w.Name() + "/base/" + arch.Name, w: w, m: a.w.Base(), arch: arch},
				&simProgram{name: a.w.Name() + "/canonical/" + arch.Name, w: w, m: core.Variant(a.w.Base(), a.edits), arch: arch})
			s.pairs = append(s.pairs, [2]int{n, n + 1})
		}
	}
	return s, nil
}

func (s *simPaper) pass(t *tally) {
	for _, p := range s.progs {
		id := s.e.tr.beginUnit("workload.evaluate", s.e.tr.current(), true)
		prev := s.e.tr.setCurrent(id)
		t0 := time.Now()
		ms, err := p.w.Evaluate(p.m, p.arch)
		t.unit(time.Since(t0))
		s.e.tr.setCurrent(prev)
		s.e.tr.end(id)
		// Every program here is known good: an error is an oracle failure.
		if err == nil && p.hasWant && math.Float64bits(ms) != math.Float64bits(p.want) {
			err = fmt.Errorf("fitness %v, first evaluation gave %v", ms, p.want)
		}
		t.op("evaluate "+p.name, err)
		if err == nil && !p.hasWant {
			p.want, p.hasWant = ms, true
		}
	}
}

func (s *simPaper) warm(t *tally) { s.pass(t) }

func (s *simPaper) round(_ int, t *tally) {
	for i := 0; i < s.e.z.simPasses; i++ {
		s.pass(t)
	}
	for i, pr := range s.pairs {
		base, opt := s.progs[pr[0]], s.progs[pr[1]]
		t.search(i, base.want/opt.want, true,
			fmt.Sprintf("%s %x %x", opt.name, math.Float64bits(base.want), math.Float64bits(opt.want)))
	}
}

func (s *simPaper) targets() []workload.Workload { return s.bare }

// ------------------------------------------------------------- search_synth

type searchSynth struct {
	inProcess
	e    *env
	bare []workload.Workload
	ws   []workload.Workload
	// order is the seeded order the searches run in.
	order []int
}

// buildSearchSynth generates the scenarios (6 families x 4 scenario seeds
// at full size). Evaluations on them cost 0.1-0.4 ms, the same order as
// compiling them, so this is the workload on which variant construction,
// hashing, verify+compile and engine bookkeeping weigh as much as launches.
func buildSearchSynth(e *env) (instance, error) {
	s := &searchSynth{e: e}
	for _, fam := range families() {
		for k := 1; k <= e.z.synthSeeds; k++ {
			w, err := synth.New(synth.Spec{Family: fam, Seed: uint64(k)})
			if err != nil {
				return nil, err
			}
			s.bare = append(s.bare, w)
			s.ws = append(s.ws, e.wrap(w))
		}
	}
	s.order = rng.New(e.seed).Perm(len(s.ws))
	return s, nil
}

// runSearches runs one fixed-seed core.Engine search per listed scenario
// over a fresh pool and an empty program cache, so every call does the same
// work whatever ran before it.
func (s *searchSynth) runSearches(which []int, t *tally) {
	defer freshProgramCache()
	pool := core.NewEvalPool(s.e.p)
	tr := s.e.tr
	round := tr.current()
	for _, i := range which {
		w := s.ws[i]
		eng := core.NewEngine(w, core.Config{
			Pop: s.e.z.synthPop, Elite: 4, CrossoverRate: 0.8, MutationRate: 0.3, TournamentK: 3,
			Generations: s.e.z.synthGens, Seed: uint64(i) + 1, Arch: gpu.P100, Pool: pool,
		})
		id := tr.begin("core.init", round, true)
		tr.setCurrent(id)
		err := eng.Init()
		tr.end(id)
		t.op("init "+w.Name(), err)
		if err != nil {
			continue
		}
		for g := 0; g < s.e.z.synthGens; g++ {
			id := tr.beginUnit("core.step", round, true)
			tr.setCurrent(id)
			t0 := time.Now()
			eng.Step(1)
			t.unit(time.Since(t0))
			tr.end(id)
			t.op("step", nil)
		}
		res := eng.Result()
		id = tr.begin("core.validate", round, true)
		tr.setCurrent(id)
		valid := res.Best.Valid() && eng.Validate(res.Best.Genome) == nil
		tr.end(id)
		tr.setCurrent(round)
		t.search(i, res.Speedup, valid, fmt.Sprintf("%s %x %x %s",
			w.Name(), math.Float64bits(res.BaseFitness), math.Float64bits(res.Best.Fitness), core.GenomeKey(res.Best.Genome)))
		t.count(int64(res.Evaluations), 0, 0)
	}
	t.count(0, pool.Stats().CacheHits, 0)
}

// warm searches one scenario per family.
func (s *searchSynth) warm(t *tally) {
	var which []int
	for i := 0; i < len(s.ws); i += s.e.z.synthSeeds {
		which = append(which, i)
	}
	s.runSearches(which, t)
}

func (s *searchSynth) round(_ int, t *tally) { s.runSearches(s.order, t) }

func (s *searchSynth) targets() []workload.Workload {
	// One scenario per family.
	var out []workload.Workload
	for i := 0; i < len(s.bare); i += s.e.z.synthSeeds {
		out = append(out, s.bare[i])
	}
	return out
}

// ------------------------------------------------------------- search_adept

type searchAdept struct {
	inProcess
	e     *env
	bare  workload.Workload
	w     workload.Workload
	order []int
}

// buildSearchAdept builds ADEPT-V0 at 48x32 with two fitness pairs and eight
// held-out pairs. The dataset seed is the registry's: the validated speedup
// of a winner depends on which held-out pairs it meets, and best_speedup
// has to repeat.
func buildSearchAdept(e *env) (instance, error) {
	w, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 2, HoldoutPairs: 8, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		return nil, err
	}
	return &searchAdept{e: e, bare: w, w: e.wrap(w), order: rng.New(e.seed).Perm(len(e.z.adeptRings))}, nil
}

// runRings runs one heterogeneous two-deme ring (P100 + V100) per listed
// seed, checkpointing after every StepRound as the serve executor does.
func (s *searchAdept) runRings(which []int, t *tally) {
	defer freshProgramCache()
	tr := s.e.tr
	round := tr.current()
	for _, k := range which {
		pool := core.NewEvalPool(s.e.p)
		cfg := island.Config{
			Demes: 2, MigrationInterval: 2, MigrationSize: 1, Generations: s.e.z.adeptGens,
			Seed: s.e.z.adeptRings[k], Pool: pool,
			Base:      core.Config{Pop: s.e.z.adeptPop, Elite: 2, CrossoverRate: 0.8, MutationRate: 0.5, TournamentK: 3, Arch: gpu.P100},
			Overrides: []island.Override{{Arch: gpu.P100}, {Arch: gpu.V100}},
		}
		id := tr.begin("island.new", round, true)
		tr.setCurrent(id)
		ring, err := island.New(s.w, cfg)
		tr.end(id)
		t.op("island.New", err)
		if err != nil {
			continue
		}
		path := filepath.Join(s.e.dir, fmt.Sprintf("ring%d.json", k))
		for !ring.Done() {
			unit := tr.beginUnit("island.unit", round, true)
			t0 := time.Now()
			id := tr.begin("island.step_round", unit, true)
			tr.setCurrent(id)
			ring.StepRound()
			tr.end(id)
			id = tr.begin("island.snapshot", unit, true)
			cp, err := ring.Snapshot()
			tr.end(id)
			if err == nil {
				id = tr.begin("island.save", unit, true)
				err = cp.Save(path)
				tr.end(id)
			}
			t.unit(time.Since(t0))
			tr.end(unit)
			t.op("checkpoint", err)
			if fi, serr := os.Stat(path); serr == nil {
				t.count(0, 0, fi.Size())
			}
		}
		res := ring.Result()
		arch := gpu.ArchByName(res.Demes[res.BestDeme].Arch)
		id = tr.begin("core.validate", round, true)
		tr.setCurrent(id)
		valid := res.Best.Valid() && s.w.Validate(core.Variant(s.w.Base(), res.Best.Genome), arch) == nil
		tr.end(id)
		tr.setCurrent(round)
		t.search(k, res.Speedup, valid, fmt.Sprintf("ring %d %x %x %s",
			s.e.z.adeptRings[k], math.Float64bits(res.BaseFitness), math.Float64bits(res.Best.Fitness), core.GenomeKey(res.Best.Genome)))
		t.count(int64(res.Evaluations), pool.Stats().CacheHits, 0)
	}
}

// warm runs one ring.
func (s *searchAdept) warm(t *tally) { s.runRings([]int{len(s.e.z.adeptRings) / 2}, t) }

func (s *searchAdept) round(_ int, t *tally) { s.runRings(s.order, t) }

func (s *searchAdept) targets() []workload.Workload     { return []workload.Workload{s.bare} }
func (s *searchAdept) layer(map[string]float64, []span) {}
func (s *searchAdept) close()                           {}
