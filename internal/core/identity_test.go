package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"
	"time"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/workload"
)

// TestPhenotypeIdentity pins what the pool's key is: the program that runs,
// not the genome that bred it. Distinct genomes that materialise to one
// module — an edit that does not apply, an edit whose target an earlier edit
// deleted — cost one simulation and read one fitness; the same program on a
// second architecture, or on a second workload instance, is a different
// fitness function and simulates again. The engine still counts each genome
// it requested.
func TestPhenotypeIdentity(t *testing.T) {
	w := tinyADEPT(t)
	fn := w.Base().Funcs[0]
	inapplicable := Edit{Kind: EditDelete, Func: "no_such_kernel", Target: 1}
	del := Edit{Kind: EditDelete, Func: fn.Name, Target: fn.Blocks[0].Instrs[0].UID}
	if !del.Apply(w.Base().Clone()) {
		t.Fatalf("%v does not apply to the base program", del)
	}
	pairs := [][2][]Edit{
		{nil, {inapplicable}},
		{{del}, {del, del}},
	}
	for _, p := range pairs {
		if GenomeKey(p[0]) == GenomeKey(p[1]) {
			t.Fatalf("genomes %v and %v share a key; the test needs distinct genomes", p[0], p[1])
		}
		if gpu.HashModule(Variant(w.Base(), p[0])) != gpu.HashModule(Variant(w.Base(), p[1])) {
			t.Fatalf("genomes %v and %v materialise to different modules", p[0], p[1])
		}
	}

	pool := NewEvalPool(2)
	acct := new(Cost)
	engine := func(w workload.Workload, arch *gpu.Arch) *Engine {
		return NewEngine(w, Config{Pop: 4, Seed: 1, Arch: arch, Pool: pool, Cost: acct})
	}
	e := engine(w, gpu.P100)
	for n, p := range pairs {
		first := e.fitness(p[0])
		launches := acct.Totals().Launches
		second := e.fitness(p[1])
		if math.Float64bits(first) != math.Float64bits(second) {
			t.Errorf("pair %d: fitness %v vs %v for one program", n, first, second)
		}
		if got := acct.Totals().Launches; got != launches {
			t.Errorf("pair %d: the second genome launched %d more kernels, want 0", n, got-launches)
		}
		if st := pool.Stats(); st.Completed != int64(n+1) || st.CacheHits != int64(n+1) {
			t.Errorf("pair %d: pool completed %d, hits %d, want %d and %d", n, st.Completed, st.CacheHits, n+1, n+1)
		}
	}
	if acct.Totals().Launches == 0 {
		t.Error("the base program charged no launches; the launch assertions above are vacuous")
	}
	if e.Evaluations() != 4 {
		t.Errorf("engine Evaluations = %d, want 4 (every distinct genome it requested)", e.Evaluations())
	}

	// The same two genomes on a second architecture: one more simulation.
	v := engine(w, gpu.V100)
	if a, b := v.fitness(nil), v.fitness([]Edit{inapplicable}); math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("V100: fitness %v vs %v for one program", a, b)
	}
	if st := pool.Stats(); st.Completed != 3 || st.CacheHits != 3 {
		t.Errorf("after a second arch: completed %d, hits %d, want 3 and 3", st.Completed, st.CacheHits)
	}

	// A second workload instance shares the name and the base program but
	// not the dataset object: its own namespace, its own simulation.
	engine(tinyADEPT(t), gpu.P100).fitness(nil)
	if st := pool.Stats(); st.Completed != 4 {
		t.Errorf("after a second workload instance: completed %d, want 4", st.Completed)
	}
	if got, want := acct.Totals(), pool.ChargedTotals(); got != want {
		t.Errorf("job account %+v does not reconcile with the pool %+v", got, want)
	}
}

// TestReleaseDropsTables pins what Release forgets: every table of the
// released instance, on every architecture, so the same genome simulates
// again to the same fitness — while another instance's entries still hit.
func TestReleaseDropsTables(t *testing.T) {
	w, other := tinyADEPT(t), tinyADEPT(t)
	pool := NewEvalPool(2)
	want := func(what string, completed, hits int64) {
		t.Helper()
		if st := pool.Stats(); st.Completed != completed || st.CacheHits != hits {
			t.Fatalf("%s: completed %d, hits %d, want %d and %d", what, st.Completed, st.CacheHits, completed, hits)
		}
	}
	first := pool.evaluateGenome(w, gpu.P100, nil, nil)
	pool.evaluateGenome(w, gpu.V100, nil, nil)
	pool.evaluateGenome(other, gpu.P100, nil, nil)
	pool.evaluateGenome(w, gpu.P100, nil, nil)
	want("before release", 3, 1)

	pool.Release(w)
	if len(pool.tables) != 1 {
		t.Fatalf("%d tables after releasing one of two instances, want 1", len(pool.tables))
	}
	again := pool.evaluateGenome(w, gpu.P100, nil, nil)
	want("released instance on P100", 4, 1)
	if math.Float64bits(first) != math.Float64bits(again) {
		t.Errorf("fitness after release %v, before %v", again, first)
	}
	pool.evaluateGenome(w, gpu.V100, nil, nil)
	want("released instance on V100", 5, 1)
	pool.evaluateGenome(other, gpu.P100, nil, nil)
	want("the other instance", 5, 2)
}

// gatedWorkload holds every evaluation at a gate, so a test can park one
// simulation in a worker slot for as long as it needs.
type gatedWorkload struct {
	workload.Workload
	entered chan struct{}
	gate    chan struct{}
}

func (g *gatedWorkload) Evaluate(m *ir.Module, _ *gpu.Arch) (float64, error) {
	g.entered <- struct{}{}
	<-g.gate
	return float64(len(m.Funcs[0].Blocks[0].Instrs)), nil
}

// TestWaiterHoldsNoWorkerSlot parks one simulation in a 2-worker pool, lets
// a duplicate of it arrive and wait, and then requires a *different* program
// to start simulating: it can only get a slot if the waiting duplicate gave
// its own back.
func TestWaiterHoldsNoWorkerSlot(t *testing.T) {
	g := &gatedWorkload{Workload: tinyADEPT(t), entered: make(chan struct{}), gate: make(chan struct{})}
	fn := g.Base().Funcs[0]
	other := []Edit{{Kind: EditDelete, Func: fn.Name, Target: fn.Blocks[0].Instrs[0].UID}}
	pool := NewEvalPool(2)

	results := make(chan float64, 3)
	request := func(genome []Edit) {
		go func() { results <- pool.evaluateGenome(g, gpu.P100, genome, nil) }()
	}
	entered := func(what string) {
		t.Helper()
		select {
		case <-g.entered:
		case <-time.After(30 * time.Second):
			t.Fatalf("%s never reached the simulator", what)
		}
	}

	request(nil)
	entered("the first request")
	request(nil) // the duplicate: finds the flight, must release its slot
	for deadline := time.Now().Add(30 * time.Second); pool.Stats().CacheHits == 0; {
		if time.Now().After(deadline) {
			t.Fatal("the duplicate never registered as a hit")
		}
		time.Sleep(time.Millisecond)
	}
	request(other)
	entered("a different program, while a duplicate waits")

	close(g.gate)
	got := []float64{<-results, <-results, <-results}
	base := float64(len(fn.Blocks[0].Instrs))
	var nBase, nOther int
	for _, ms := range got {
		switch ms {
		case base:
			nBase++
		case base - 1:
			nOther++
		}
	}
	if nBase != 2 || nOther != 1 {
		t.Errorf("results %v, want the base program's %v twice and the variant's %v once", got, base, base-1)
	}
	if st := pool.Stats(); st.Completed != 2 || st.CacheHits != 1 || st.InFlight != 0 || st.QueueDepth != 0 {
		t.Errorf("pool did not settle at 2 completed, 1 hit: %+v", st)
	}
}

// engineDigest hashes everything a search leaves behind that a user or a
// checkpoint can see: the serialized engine state (population, RNG position,
// history with lineage, Evals, operator counters) and the last GenStats.
func engineDigest(t *testing.T, e *Engine) string {
	t.Helper()
	st, err := e.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	blob, err := json.Marshal(struct {
		State *EngineState
		Stats GenStats
	}{st, e.Stats()})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:12])
}

// TestQuickstartStateGolden runs examples/quickstart's search and compares
// the digest of its complete end state with the one the commit before
// content-addressed evaluation produced (PR 12, bdca9b1): Evaluations,
// History, GenStats and the EngineState snapshot are byte-identical, so the
// change of cache key moved no observable search behaviour.
func TestQuickstartStateGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full quickstart search")
	}
	const want = "5e7ec83d495fdb4ee9f1da6f"
	w, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 7, FitPairs: 2, HoldoutPairs: 4, RefLen: 64, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(w, Config{
		Pop: 24, Elite: 2, Generations: 25,
		CrossoverRate: 0.8, MutationRate: 0.9, Seed: 5, Arch: gpu.P100,
	})
	if _, err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if got := engineDigest(t, e); got != want {
		t.Errorf("quickstart end-state digest = %s, want %s", got, want)
	}
}
