// Package island implements an island-model (multi-deme) evolutionary
// search on top of the steppable core engine: N concurrent demes, each a
// core.Engine with its own derived RNG stream and optionally its own
// architecture or operator rates, exchange their best individuals around a
// ring every few generations. This is how GEVO-class systems scale beyond a
// single panmictic population — demes explore independently between
// migrations (diversity), while migration spreads building blocks
// (exploitation) — and it parallelizes trivially because demes only touch
// each other at migration barriers.
//
// Determinism: for a fixed Config (topology, seed, per-deme overrides) the
// search result is bit-identical regardless of Workers and of how deme
// steps are scheduled. Each deme owns an isolated RNG stream derived from
// the master seed, evaluation is deterministic (the simulator is), and
// migration happens at a full barrier in a fixed ring order after all
// emigrants are selected — so no ordering of concurrent work can leak into
// the results.
package island

import (
	"fmt"
	"runtime"
	"strings"
	"sync"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/obs"
	"gevo/internal/rng"
	"gevo/internal/workload"
)

// Override adjusts one deme away from the base configuration, the lever for
// heterogeneous rings (e.g. demes evaluating on different architectures, or
// exploring with hotter mutation). Nil fields inherit from Config.Base.
type Override struct {
	// Arch evaluates this deme's fitness on a different GPU.
	Arch *gpu.Arch
	// MutationRate overrides the per-offspring mutation probability.
	MutationRate *float64
	// CrossoverRate overrides the per-offspring crossover probability.
	CrossoverRate *float64
}

// ArchRing turns an architecture list into a ring's base arch and per-deme
// overrides, cycling the list across the demes. Blank entries are skipped;
// a single name is a homogeneous ring and needs no overrides.
func ArchRing(names []string, demes int) (*gpu.Arch, []Override, error) {
	var archs []*gpu.Arch
	for _, n := range names {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		a, err := gpu.ResolveArch(n)
		if err != nil {
			return nil, nil, err
		}
		archs = append(archs, a)
	}
	if len(archs) == 0 {
		return nil, nil, fmt.Errorf("no architectures in %q", strings.Join(names, ","))
	}
	if len(archs) == 1 {
		return archs[0], nil, nil
	}
	ov := make([]Override, demes)
	for i := range ov {
		ov[i].Arch = archs[i%len(archs)]
	}
	return archs[0], ov, nil
}

// Config describes the island topology and per-deme search parameters.
type Config struct {
	// Demes is the number of islands in the ring (default 4).
	Demes int
	// MigrationInterval is the number of generations each deme runs between
	// migrations (default 10).
	MigrationInterval int
	// MigrationSize is how many of a deme's best individuals migrate to its
	// ring successor at each migration (default 2).
	MigrationSize int
	// Generations is the per-deme generation budget (default Base.Generations).
	Generations int
	// Seed is the master seed; each deme draws its own seed from it.
	Seed uint64
	// Base is the per-deme engine configuration template. Base.Seed,
	// Base.Generations and Base.Pool are ignored (managed here).
	Base core.Config
	// Overrides optionally customizes individual demes; its length must be
	// zero or Demes.
	Overrides []Override
	// Workers caps concurrent fitness evaluations across the whole ring
	// (0 = GOMAXPROCS). All demes submit to one shared core.EvalPool, so a
	// deme that finishes its generation early frees its workers to the
	// demes still evaluating, and heterogeneous rings no longer
	// oversubscribe GOMAXPROCS with per-deme worker shares.
	Workers int
	// Pool, when non-nil, is the evaluation pool every deme submits to
	// instead of a ring-private one — the lever that lets an orchestrator
	// (internal/serve) run many island searches against one machine-wide
	// worker budget with cross-search single-flight. Workers is ignored
	// when Pool is set; the pool's own budget governs.
	Pool *core.EvalPool `json:"-"`
	// Sink receives trace events: each deme's engine events tagged with
	// its ring position ("deme0"…), plus island.migrate at every
	// migration barrier. Nil disables tracing; the sink only observes, so
	// results are bit-identical either way. Events from different demes
	// interleave scheduling-dependently; each deme's own subsequence is
	// deterministic (DESIGN.md §9).
	Sink obs.Sink `json:"-"`
	// Cost, when non-nil, is the cost account every deme charges its
	// evaluations to — one account per job, shared by the whole ring
	// (DESIGN.md §12). Nil charges the pool's unattributed account.
	Cost *core.Cost `json:"-"`
}

// fill normalizes the configuration, mirroring core.Config.fill.
func (c *Config) fill() {
	if c.Demes <= 0 {
		c.Demes = 4
	}
	if c.MigrationInterval <= 0 {
		c.MigrationInterval = 10
	}
	if c.MigrationSize <= 0 {
		c.MigrationSize = 2
	}
	if c.Generations <= 0 {
		if c.Base.Generations > 0 {
			c.Generations = c.Base.Generations
		} else {
			c.Generations = 100
		}
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// demeConfig materializes deme i's engine configuration: the base template,
// a seed derived from the master stream, the ring's shared evaluation pool,
// and any per-deme overrides.
func (c *Config) demeConfig(i int, seed uint64, pool *core.EvalPool) core.Config {
	cfg := c.Base
	cfg.Seed = seed
	cfg.Generations = c.Generations
	cfg.Pool = pool
	cfg.Sink = c.Sink
	cfg.SinkID = demeID(i)
	cfg.Cost = c.Cost
	if i < len(c.Overrides) {
		o := c.Overrides[i]
		if o.Arch != nil {
			cfg.Arch = o.Arch
		}
		if o.MutationRate != nil {
			cfg.MutationRate = *o.MutationRate
		}
		if o.CrossoverRate != nil {
			cfg.CrossoverRate = *o.CrossoverRate
		}
	}
	return cfg
}

// demeID labels deme i's trace events.
func demeID(i int) string { return fmt.Sprintf("deme%d", i) }

// demeSeeds derives one independent seed per deme from the master seed.
func demeSeeds(master uint64, n int) []uint64 {
	r := rng.New(master)
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = r.Uint64()
	}
	return seeds
}

// DemeResult pairs a deme's index and architecture with its search result.
type DemeResult struct {
	// Deme is the ring position.
	Deme int
	// Arch names the architecture the deme evaluated on.
	Arch string
	// Result is the deme's own search summary.
	Result *core.Result
}

// Result summarizes a finished island search.
type Result struct {
	// Best is the globally best individual, chosen by speedup on its home
	// deme (fitness values are not comparable across architectures in a
	// heterogeneous ring; speedup is).
	Best core.Individual
	// BestDeme is the ring position Best was found on.
	BestDeme int
	// BaseFitness is the base program's fitness on the best deme's arch.
	BaseFitness float64
	// Speedup is the best deme's BaseFitness over Best.Fitness.
	Speedup float64
	// Generations is the per-deme generation count completed.
	Generations int
	// Migrations counts migration events performed.
	Migrations int
	// Evaluations totals distinct-genome fitness evaluations across demes.
	Evaluations int
	// Demes holds the per-deme results in ring order.
	Demes []DemeResult
}

// Search is a running island-model search.
type Search struct {
	cfg        Config
	w          workload.Workload
	demes      []*core.Engine
	gen        int
	migrations int
}

// New builds the island search: Config.Demes engines with derived seeds and
// per-deme overrides, each initialized (base evaluation + initial
// population) in parallel.
func New(w workload.Workload, cfg Config) (*Search, error) {
	cfg.fill()
	if len(cfg.Overrides) != 0 && len(cfg.Overrides) != cfg.Demes {
		return nil, fmt.Errorf("island: %d overrides for %d demes", len(cfg.Overrides), cfg.Demes)
	}
	s := &Search{cfg: cfg, w: w, demes: make([]*core.Engine, cfg.Demes)}
	seeds := demeSeeds(cfg.Seed, cfg.Demes)
	// One shared pool for the whole ring: a single worker budget plus
	// cross-deme single-flight, so a genome bred by several demes in the
	// same generation simulates once per architecture. A caller-supplied
	// pool extends the same sharing across searches.
	pool := cfg.Pool
	if pool == nil {
		pool = core.NewEvalPool(cfg.Workers)
	}
	for i := range s.demes {
		s.demes[i] = core.NewEngine(w, cfg.demeConfig(i, seeds[i], pool))
	}
	errs := make([]error, len(s.demes))
	s.each(func(i int, d *core.Engine) { errs[i] = d.Init() })
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("island: deme %d: %w", i, err)
		}
	}
	return s, nil
}

// each runs f over all demes concurrently and waits. Demes share no mutable
// state, so any schedule yields the same per-deme results.
func (s *Search) each(f func(i int, d *core.Engine)) {
	var wg sync.WaitGroup
	for i, d := range s.demes {
		wg.Add(1)
		go func(i int, d *core.Engine) {
			defer wg.Done()
			f(i, d)
		}(i, d)
	}
	wg.Wait()
}

// Config returns the search's normalized configuration (after defaulting;
// on a restored search, the checkpoint's configuration).
func (s *Search) Config() Config { return s.cfg }

// Generation returns the per-deme generations completed so far.
func (s *Search) Generation() int { return s.gen }

// Migrations returns the number of migration events performed so far.
func (s *Search) Migrations() int { return s.migrations }

// Done reports whether the generation budget is exhausted.
func (s *Search) Done() bool { return s.gen >= s.cfg.Generations }

// StepRound advances every deme by one migration interval (clamped to the
// remaining budget), then migrates around the ring — unless that was the
// final interval, which ends the search with each deme's own last
// generation intact, like the single-population engine. It returns the
// number of generations advanced (zero once done).
func (s *Search) StepRound() int {
	step := s.cfg.MigrationInterval
	if remaining := s.cfg.Generations - s.gen; step > remaining {
		step = remaining
	}
	if step <= 0 {
		return 0
	}
	s.each(func(_ int, d *core.Engine) { d.Step(step) })
	s.gen += step
	if !s.Done() {
		s.migrate()
	}
	return step
}

// migrate sends each deme's MigrationSize best individuals to its ring
// successor. All emigrants are selected before any are injected, so the
// exchange is simultaneous: deme i's contribution is its own top-k, never a
// just-arrived immigrant. Injection replaces the worst individuals of the
// target and re-evaluates the migrants on the target's architecture.
func (s *Search) migrate() {
	n := len(s.demes)
	if n < 2 {
		return
	}
	emigrants := make([][]core.Individual, n)
	for i, d := range s.demes {
		emigrants[i] = d.Best(s.cfg.MigrationSize)
	}
	s.each(func(i int, d *core.Engine) { d.Inject(emigrants[(i-1+n)%n]) })
	s.migrations++
	// Emitted from the serial barrier, so migration events are strictly
	// ordered against each deme's own generation events.
	if s.cfg.Sink != nil {
		s.cfg.Sink.Emit(obs.Event{Type: "island.migrate", Attrs: []obs.Attr{
			obs.AI("gen", int64(s.gen)),
			obs.AI("round", int64(s.migrations)),
			obs.AI("size", int64(s.cfg.MigrationSize)),
		}})
	}
}

// AttachSink installs (or clears) a trace sink on a live search and its
// demes — the restore path, where the checkpoint cannot carry one, and the
// orchestrator path, where serve tags each job's events with its identity.
func (s *Search) AttachSink(sink obs.Sink) {
	s.cfg.Sink = sink
	for i, d := range s.demes {
		d.SetSink(sink, demeID(i))
	}
}

// AttachCost installs (or clears) the cost account on a live search and its
// demes — the restore path and the orchestrator path, mirroring AttachSink.
func (s *Search) AttachCost(c *core.Cost) {
	s.cfg.Cost = c
	for _, d := range s.demes {
		d.SetCost(c)
	}
}

// DemeStats returns each deme's latest search-health snapshot in ring
// order — the per-deme aggregation behind an orchestrator's diagnosis
// endpoint. Call it between rounds (deme stats are only consistent at
// round barriers).
func (s *Search) DemeStats() []core.GenStats {
	out := make([]core.GenStats, len(s.demes))
	for i, d := range s.demes {
		out[i] = d.Stats()
	}
	return out
}

// Run drives rounds to the generation budget and returns the result.
func (s *Search) Run() (*Result, error) {
	for !s.Done() {
		s.StepRound()
	}
	return s.Result(), nil
}

// Result summarizes the search so far.
func (s *Search) Result() *Result {
	res := &Result{
		Generations: s.gen,
		Migrations:  s.migrations,
		BestDeme:    -1,
		Demes:       make([]DemeResult, len(s.demes)),
	}
	bestSpeedup := -1.0
	for i, d := range s.demes {
		dr := d.Result()
		res.Demes[i] = DemeResult{Deme: i, Arch: d.Arch().Name, Result: dr}
		res.Evaluations += dr.Evaluations
		if dr.Speedup > bestSpeedup {
			bestSpeedup = dr.Speedup
			res.Best = dr.Best
			res.BestDeme = i
			res.BaseFitness = dr.BaseFitness
			res.Speedup = dr.Speedup
		}
	}
	return res
}
