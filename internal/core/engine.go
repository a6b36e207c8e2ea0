package core

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"gevo/internal/gpu"
	"gevo/internal/obs"
	"gevo/internal/rng"
	"gevo/internal/workload"
)

// Config holds the evolutionary search parameters. Use DefaultConfig for the
// paper's Section III-E settings (population 256, four elites, 80% crossover,
// 30% mutation). Zero rates are legal and disable the operator; only
// structural fields (population, elites, generations, tournament size) are
// defaulted when left zero.
type Config struct {
	// Pop is the population size.
	Pop int
	// Elite is the number of best individuals copied unchanged into the
	// next generation.
	Elite int
	// CrossoverRate is the per-offspring crossover probability. Zero disables
	// crossover; it is never silently defaulted (see DefaultConfig).
	CrossoverRate float64
	// MutationRate is the per-offspring mutation probability. Zero disables
	// mutation; it is never silently defaulted (see DefaultConfig).
	MutationRate float64
	// Generations is the search budget (the paper's 7-day ADEPT budget ran
	// ~300 generations; the 2-day SIMCoV budget ~130).
	Generations int
	// TournamentK is the tournament-selection size.
	TournamentK int
	// Seed drives the whole search deterministically.
	Seed uint64
	// Arch selects the simulated GPU fitness is measured on.
	Arch *gpu.Arch
	// Workers bounds parallel fitness evaluations (0 = GOMAXPROCS). Ignored
	// when Pool is set: the pool's own budget governs.
	Workers int
	// Pool, when non-nil, is a shared evaluation pool: several engines (the
	// demes of an island search) submit genome evaluations to one global
	// worker budget with cross-engine deduplication. Nil gives the engine a
	// private pool of Workers workers.
	Pool *EvalPool `json:"-"`
	// Sink receives trace events (engine.gen per generation, engine.best on
	// each best-ever improvement). Nil disables tracing. Payloads are
	// deterministic in (workload, seed, arch); the sink only observes, so
	// search results are bit-identical with or without one (DESIGN.md §9).
	Sink obs.Sink `json:"-"`
	// SinkID tags this engine's events (island searches label each deme);
	// empty is fine for solo engines.
	SinkID string `json:"-"`
	// Cost, when non-nil, is the account the pool charges for this engine's
	// evaluations (per-job cost attribution; island searches hand every deme
	// the job's account). Nil charges the pool's unattributed account. The
	// account only observes, so results are identical with or without one.
	Cost *Cost `json:"-"`
}

// DefaultConfig returns the paper's search parameters (Section III-E).
func DefaultConfig(arch *gpu.Arch) Config {
	return Config{
		Pop: 256, Elite: 4, CrossoverRate: 0.8, MutationRate: 0.3,
		Generations: 300, TournamentK: 3, Seed: 1, Arch: arch,
	}
}

// fill normalizes structural fields whose zero value is meaningless. The
// rates are taken as given — zero legally disables the operator — with
// negative values clamped to zero; the paper's defaults come from
// DefaultConfig only.
func (c *Config) fill() {
	if c.Pop <= 0 {
		c.Pop = 256
	}
	if c.Elite <= 0 {
		c.Elite = 4
	}
	// Elitism must leave room for offspring: at Elite >= Pop (possible with
	// the default Elite of 4 and a tiny population) breeding would only copy
	// elites and the search would freeze after one generation.
	if c.Elite >= c.Pop {
		c.Elite = c.Pop / 2
	}
	if c.CrossoverRate < 0 {
		c.CrossoverRate = 0
	}
	if c.MutationRate < 0 {
		c.MutationRate = 0
	}
	if c.Generations <= 0 {
		c.Generations = 100
	}
	if c.TournamentK <= 0 {
		c.TournamentK = 3
	}
	if c.Arch == nil {
		c.Arch = gpu.P100
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Pool == nil {
		c.Pool = NewEvalPool(c.Workers)
	}
}

// Individual is one population member: a genome and its measured fitness
// (simulated kernel milliseconds; +Inf for invalid variants).
type Individual struct {
	Genome  []Edit
	Fitness float64
}

// Valid reports whether the individual passed all test cases.
func (ind *Individual) Valid() bool { return !math.IsInf(ind.Fitness, 1) }

// Result summarizes a finished search.
type Result struct {
	// Best is the best-ever individual.
	Best Individual
	// BaseFitness is the unmodified program's fitness.
	BaseFitness float64
	// Speedup is BaseFitness / Best.Fitness.
	Speedup float64
	// History records the per-generation trajectory.
	History *History
	// Evaluations counts the distinct genomes the engine had evaluated.
	Evaluations int
}

// Engine runs the GEVO search over one workload. Beyond the one-shot Run,
// it exposes a steppable API — Init, Step, Population/Best/Inject — so an
// orchestrator (internal/island) can interleave search with migration, and
// a serializable state (Snapshot/RestoreEngine in state.go) so a search can
// be checkpointed and resumed bit-identically.
type Engine struct {
	w   workload.Workload
	cfg Config
	r   *rng.R
	// seen is the genome -> fitness memo: "have I bred this genome". It is
	// read and written only from the serial parts of evaluateAll, so it needs
	// no lock; what the pool is asked is always a genome new to this engine.
	seen map[string]float64
	// evals counts the distinct genomes this engine requested (plus the
	// count carried over by a restore, whose memo starts cold).
	evals int64

	// Steppable search state. pop is unevaluated right after Init and
	// evaluated+sorted after every Step. provs parallels pop with breeding
	// provenance (lineage.go) and is permuted identically on every sort.
	inited bool
	gen    int
	base   float64
	pop    []Individual
	provs  []prov
	hist   *History

	// Search-health telemetry (stats.go): stats is the last completed
	// generation's snapshot, opAgg the cumulative per-operator counters
	// feeding it. Maintained unconditionally so engine state is identical
	// with or without a sink.
	stats GenStats
	opAgg map[string]*OpStats
}

// NewEngine creates a search engine for the workload.
func NewEngine(w workload.Workload, cfg Config) *Engine {
	cfg.fill()
	e := &Engine{
		w:     w,
		cfg:   cfg,
		r:     rng.New(cfg.Seed),
		seen:  make(map[string]float64),
		opAgg: make(map[string]*OpStats),
	}
	return e
}

// fitness evaluates one genome (the base program, a test probe) the way
// evaluateAll evaluates a population.
func (e *Engine) fitness(genome []Edit) float64 {
	ind := []Individual{{Genome: genome}}
	e.evaluateAll(ind)
	return ind[0].Fitness
}

// evaluateAll fills in fitness for the population. Genomes this engine has
// bred before — crossover and elitism make repeats common — are answered
// from its memo; each new distinct genome is sent to the shared pool once,
// in parallel, and counts one evaluation whether the pool simulated it or
// already knew its program, so Evaluations keeps a deterministic per-engine
// meaning under cross-deme sharing. The memo is touched only before dispatch
// and after the wait.
func (e *Engine) evaluateAll(pop []Individual) {
	keys := make([]string, len(pop))
	var fresh []int // first index of each genome new to this engine
	for i := range pop {
		keys[i] = GenomeKey(pop[i].Genome)
		if _, ok := e.seen[keys[i]]; !ok {
			e.seen[keys[i]] = math.NaN() // claimed; measured below
			fresh = append(fresh, i)
		}
	}
	var wg sync.WaitGroup
	for _, i := range fresh {
		wg.Add(1)
		go func(ind *Individual) {
			defer wg.Done()
			ind.Fitness = e.cfg.Pool.evaluateGenome(e.w, e.cfg.Arch, ind.Genome, e.cfg.Cost)
		}(&pop[i])
	}
	wg.Wait()
	for _, i := range fresh {
		e.seen[keys[i]] = pop[i].Fitness
	}
	e.evals += int64(len(fresh))
	for i := range pop {
		pop[i].Fitness = e.seen[keys[i]]
	}
}

// tournament picks the best of K random individuals.
func (e *Engine) tournament(pop []Individual) *Individual {
	best := &pop[e.r.Intn(len(pop))]
	for i := 1; i < e.cfg.TournamentK; i++ {
		c := &pop[e.r.Intn(len(pop))]
		if c.Fitness < best.Fitness {
			best = c
		}
	}
	return best
}

// Init prepares the steppable search: it evaluates the base program and
// seeds the initial population (single random edits against the base). It
// is a no-op when the engine was already initialized or restored.
func (e *Engine) Init() error {
	if e.inited {
		return nil
	}
	base := e.fitness(nil)
	if math.IsInf(base, 1) {
		return fmt.Errorf("core: base program fails its own test suite")
	}
	e.base = base
	e.hist = NewHistory(base)
	e.pop = make([]Individual, e.cfg.Pop)
	e.provs = make([]prov, e.cfg.Pop)
	for i := range e.pop {
		if ed, ok := RandomEdit(e.w.Base(), e.r); ok {
			e.pop[i].Genome = []Edit{ed}
		}
		e.provs[i] = prov{op: "init", parent: "base", parentMs: base}
	}
	e.gen = 0
	e.inited = true
	return nil
}

// breed produces the next generation from the current evaluated, sorted
// population: elitism, then tournament selection with crossover and
// mutation. All randomness draws from the engine's single RNG stream, so
// the sequence is deterministic in the seed. Alongside each offspring it
// records breeding provenance (parents, operator, mutation site) — pure
// bookkeeping with no RNG draws of its own.
func (e *Engine) breed() ([]Individual, []prov) {
	next := make([]Individual, 0, e.cfg.Pop)
	provs := make([]prov, 0, e.cfg.Pop)
	// Elitism: the paper retains the four best individuals.
	for i := 0; i < e.cfg.Elite && i < len(e.pop); i++ {
		next = append(next, Individual{Genome: append([]Edit(nil), e.pop[i].Genome...)})
		provs = append(provs, prov{op: "elite", parent: hashGenome(e.pop[i].Genome), parentMs: e.pop[i].Fitness})
	}
	for len(next) < e.cfg.Pop {
		p1 := e.tournament(e.pop)
		genome := append([]Edit(nil), p1.Genome...)
		pr := prov{parent: hashGenome(p1.Genome), parentMs: p1.Fitness}
		crossed := false
		if e.r.Float64() < e.cfg.CrossoverRate {
			p2 := e.tournament(e.pop)
			genome = Crossover(p1.Genome, p2.Genome, e.r)
			pr.parent2 = hashGenome(p2.Genome)
			crossed = true
		}
		mutated := false
		if e.r.Float64() < e.cfg.MutationRate {
			pre := genome
			genome = Mutate(e.w.Base(), genome, e.r)
			pr.kind, pr.site = mutationDiff(pre, genome)
			mutated = true
		}
		pr.op = opName(crossed, mutated)
		next = append(next, Individual{Genome: genome})
		provs = append(provs, pr)
	}
	return next, provs
}

// Step advances the search by gens generations. Each generation breeds from
// the previous population (except the first, which evaluates the initial
// population as-is), evaluates in parallel, sorts by fitness and records
// history. After Step returns the population is evaluated and sorted, so
// Best and Inject operate on a consistent snapshot. Init must have been
// called.
func (e *Engine) Step(gens int) {
	if !e.inited {
		panic("core: Step before Init")
	}
	for i := 0; i < gens; i++ {
		if e.gen > 0 {
			e.pop, e.provs = e.breed()
		}
		e.gen++
		e.evaluateAll(e.pop)
		e.sortPop()
		prevBest := e.hist.bestFitness
		idx := e.hist.Record(e.gen, e.pop)
		if idx >= 0 {
			entry := e.lineageEntry(idx, prevBest)
			e.hist.AddLineage(entry)
			e.emitBest(entry)
		}
		e.updateStats(e.hist.Records[len(e.hist.Records)-1])
		e.emitGen()
	}
}

// emit sends one trace event when a sink is configured, tagging it with
// the engine's identity.
func (e *Engine) emit(typ string, attrs []obs.Attr) {
	if e.cfg.Sink == nil {
		return
	}
	if e.cfg.SinkID != "" {
		attrs = append([]obs.Attr{obs.A("id", e.cfg.SinkID)}, attrs...)
	}
	e.cfg.Sink.Emit(obs.Event{Type: typ, Attrs: attrs})
}

// emitGen reports the generation just completed — its history record and
// search-health snapshot (GenStats) — as one engine.gen event. Emitted from
// the serial Step path, so one engine's event sequence is deterministic.
func (e *Engine) emitGen() {
	if e.cfg.Sink == nil {
		return
	}
	rec, s := e.hist.Records[len(e.hist.Records)-1], e.stats
	attrs := []obs.Attr{
		obs.AI("gen", int64(rec.Gen)),
		obs.AF("best_ms", rec.BestFitness),
		obs.AF("mean_ms", rec.MeanFitness),
		obs.AF("valid_frac", rec.ValidFrac),
		obs.AF("speedup", speedupOf(e.base, e.hist.BestEver())),
		obs.AI("evals", e.evals),
		obs.AF("q1_ms", s.Q1Ms),
		obs.AF("median_ms", s.MedianMs),
		obs.AF("q3_ms", s.Q3Ms),
		obs.AF("worst_ms", s.WorstMs),
		obs.AI("distinct", int64(s.Distinct)),
		obs.AF("diversity", s.Diversity),
		obs.AF("entropy", s.Entropy),
		obs.AI("plateau", int64(s.Plateau)),
	}
	for _, o := range s.Ops {
		attrs = append(attrs,
			obs.AI("op_"+o.Op+"_attempts", o.Attempts),
			obs.AI("op_"+o.Op+"_valid", o.Valid),
			obs.AI("op_"+o.Op+"_improved", o.Improved),
		)
	}
	e.emit("engine.gen", attrs)
}

// emitBest reports a best-ever improvement with its lineage.
func (e *Engine) emitBest(l LineageEntry) {
	e.emit("engine.best", []obs.Attr{
		obs.AI("gen", int64(l.Gen)),
		obs.AF("best_ms", l.BestMs),
		obs.AF("speedup", l.Speedup),
		obs.AF("delta_ms", l.DeltaMs),
		obs.A("op", l.Op),
		obs.A("kind", l.Kind),
		obs.A("site", l.Site),
		obs.A("parent", l.Parent),
		obs.AF("parent_ms", l.ParentMs),
		obs.AI("edits", int64(l.Edits)),
	})
}

// SetSink installs (or clears) the trace sink on a live engine — the
// restore path, where the checkpoint cannot carry one. The sink only
// observes, so attaching it never perturbs the resumed search.
func (e *Engine) SetSink(s obs.Sink, id string) {
	e.cfg.Sink, e.cfg.SinkID = s, id
}

// SetCost installs (or clears) the engine's cost account — the restore
// path, where the checkpoint cannot carry one. Like the sink, the account
// only observes.
func (e *Engine) SetCost(c *Cost) { e.cfg.Cost = c }

// Generation returns the number of generations completed.
func (e *Engine) Generation() int { return e.gen }

// BaseFitness returns the unmodified program's fitness (valid after Init).
func (e *Engine) BaseFitness() float64 { return e.base }

// History returns the live search history (valid after Init).
func (e *Engine) History() *History { return e.hist }

// Evaluations returns the number of distinct-genome fitness evaluations so
// far.
func (e *Engine) Evaluations() int { return int(e.evals) }

// Arch returns the architecture the engine evaluates fitness on.
func (e *Engine) Arch() *gpu.Arch { return e.cfg.Arch }

// Population returns a deep copy of the current population. After a Step it
// is evaluated and sorted best-first.
func (e *Engine) Population() []Individual {
	out := make([]Individual, len(e.pop))
	for i := range e.pop {
		out[i] = Individual{
			Genome:  append([]Edit(nil), e.pop[i].Genome...),
			Fitness: e.pop[i].Fitness,
		}
	}
	return out
}

// Best returns deep copies of the k best individuals of the current
// population (fewer when the population is smaller). It must follow a Step,
// which leaves the population evaluated and sorted.
func (e *Engine) Best(k int) []Individual {
	if k > len(e.pop) {
		k = len(e.pop)
	}
	out := make([]Individual, k)
	for i := 0; i < k; i++ {
		out[i] = Individual{
			Genome:  append([]Edit(nil), e.pop[i].Genome...),
			Fitness: e.pop[i].Fitness,
		}
	}
	return out
}

// Inject replaces the worst len(migrants) individuals with copies of the
// migrants — the island-model immigration primitive. Migrant fitness is
// re-evaluated on this engine's workload and architecture (their recorded
// fitness may come from a different deme), then the population is re-sorted
// so elitism and tournament selection see a consistent ranking. Before the
// first Step the population is unevaluated, so migrants simply overwrite
// the tail and are evaluated by the next Step like everyone else.
func (e *Engine) Inject(migrants []Individual) {
	if !e.inited {
		panic("core: Inject before Init")
	}
	n := len(migrants)
	if n > len(e.pop) {
		n = len(e.pop)
	}
	e.ensureProvs()
	tail := e.pop[len(e.pop)-n:]
	provTail := e.provs[len(e.provs)-n:]
	for i := 0; i < n; i++ {
		tail[i] = Individual{Genome: append([]Edit(nil), migrants[i].Genome...)}
		provTail[i] = prov{op: "migrant", parent: hashGenome(migrants[i].Genome), parentMs: migrants[i].Fitness}
	}
	if e.gen == 0 {
		return
	}
	e.evaluateAll(tail)
	e.sortPop()
}

// Result summarizes the search so far (valid after Init).
func (e *Engine) Result() *Result {
	best := e.hist.BestEver()
	return &Result{
		Best:        best,
		BaseFitness: e.base,
		Speedup:     speedupOf(e.base, best),
		History:     e.hist,
		Evaluations: int(e.evals),
	}
}

// Run executes the whole search and returns the result. The search is
// deterministic in Config.Seed. Run is Init + Step(Generations) + Result —
// an engine driven manually through the steppable API with the same budget
// produces bit-identical results.
func (e *Engine) Run() (*Result, error) {
	if err := e.Init(); err != nil {
		return nil, err
	}
	e.Step(e.cfg.Generations)
	return e.Result(), nil
}

// speedupOf guards the headline ratio: an all-invalid population leaves
// best.Fitness at +Inf, which must report 0 rather than a meaningless
// quotient.
func speedupOf(base float64, best Individual) float64 {
	if !best.Valid() {
		return 0
	}
	return base / best.Fitness
}

// Validate runs the workload's held-out validation on a genome, mirroring
// the paper's final validation of the optimized program.
func (e *Engine) Validate(genome []Edit) error {
	m := Variant(e.w.Base(), genome)
	return e.w.Validate(m, e.cfg.Arch)
}
