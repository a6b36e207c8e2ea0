package core

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"gevo/internal/fault"
	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/kernels"
	"gevo/internal/workload"
)

// tinyADEPT is the smallest real workload: big enough to drive the full
// evaluate path, small enough for -race.
func tinyADEPT(t *testing.T) workload.Workload {
	t.Helper()
	w, err := workload.NewADEPT(kernels.ADEPTV0, workload.ADEPTOptions{
		Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// panicWorkload panics on every Evaluate — the misbehaving-candidate case
// the pool must contain rather than let tear down sibling engines.
type panicWorkload struct{ workload.Workload }

func (p *panicWorkload) Evaluate(*ir.Module, *gpu.Arch) (float64, error) {
	panic("deliberate eval panic")
}

// TestEvalPanicContainment pins the leak fix: a panicking evaluation must
// release its worker slot, settle the gauges, close the in-flight entry
// for waiters (poisoned at +Inf) and quarantine a record — before this
// fix, the panic leaked the semaphore slot and left ent.done open,
// deadlocking every engine waiting on that key.
func TestEvalPanicContainment(t *testing.T) {
	w := &panicWorkload{tinyADEPT(t)}
	p := NewEvalPool(2)

	// Several concurrent requesters of the same genome: one computes, the
	// rest wait on the in-flight entry. All must return +Inf promptly.
	const waiters = 4
	results := make(chan float64, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			results <- p.evaluateGenome(w, gpu.P100, nil, nil)
		}()
	}
	for i := 0; i < waiters; i++ {
		select {
		case ms := <-results:
			if !math.IsInf(ms, 1) {
				t.Fatalf("panicking eval scored %v, want +Inf", ms)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("deadlock: waiter on a panicked evaluation never returned")
		}
	}

	st := p.Stats()
	if st.InFlight != 0 || st.QueueDepth != 0 {
		t.Fatalf("gauges did not settle: %+v", st)
	}
	if st.EvalPanics != 1 {
		t.Fatalf("EvalPanics = %d, want 1 (single-flight: one compute, %d waiters)", st.EvalPanics, waiters-1)
	}
	q := p.Quarantined()
	if len(q) != 1 {
		t.Fatalf("quarantine has %d records, want 1", len(q))
	}
	rec := q[0]
	if rec.Workload != w.Name() || rec.Arch != "P100" || rec.Module == "" || rec.StackDigest == "" ||
		!strings.Contains(rec.Value, "deliberate eval panic") {
		t.Fatalf("quarantine record incomplete: %+v", rec)
	}
	if !strings.Contains(rec.Error(), "quarantined") {
		t.Fatalf("EvalPanicError message: %q", rec.Error())
	}

	// The semaphore leaked nothing: both slots still usable concurrently.
	var wg sync.WaitGroup
	good := tinyADEPT(t)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if ms := p.evaluateGenome(good, gpu.P100, nil, nil); math.IsInf(ms, 1) {
				t.Error("healthy workload scored +Inf after quarantine")
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("worker slots leaked: healthy evaluations after a panic hang")
	}
}

// TestEngineSurvivesPanickingWorkload runs the whole engine over an
// always-panicking workload: Init must fail cleanly (base scores +Inf),
// not hang or crash the process.
func TestEngineSurvivesPanickingWorkload(t *testing.T) {
	w := &panicWorkload{tinyADEPT(t)}
	eng := NewEngine(w, Config{Pop: 4, Generations: 2, Seed: 1, Arch: gpu.P100, MutationRate: 0.5})
	if err := eng.Init(); err == nil {
		t.Fatal("Init succeeded over a panicking workload")
	}
	if st := eng.cfg.Pool.Stats(); st.InFlight != 0 {
		t.Fatalf("in-flight gauge stuck at %d", st.InFlight)
	}
}

// TestInjectedFaultBitIdentity is the pool-level A/B: a fixed-seed search
// with injected eval panics, dispatch errors and delays must produce a
// result bit-identical to the same search with the injector nil. Injected
// faults model transient worker loss; the pool redispatches, and fitness
// being a pure function makes the retry invisible.
func TestInjectedFaultBitIdentity(t *testing.T) {
	run := func(inj *fault.Injector) *Result {
		p := NewEvalPool(2)
		p.SetInjector(inj)
		eng := NewEngine(tinyADEPT(t), Config{
			Pop: 4, Generations: 3, Seed: 7, Arch: gpu.P100,
			MutationRate: 0.5, CrossoverRate: 0.8, Pool: p,
		})
		res, err := eng.Run()
		if err != nil {
			t.Fatal(err)
		}
		if st := p.Stats(); st.InFlight != 0 || st.QueueDepth != 0 {
			t.Fatalf("gauges did not settle: %+v", st)
		}
		return res
	}

	ref := run(nil)
	inj := fault.MustNew(
		fault.Rule{Site: fault.SiteEvalDispatch, Kind: fault.KindPanic, Hits: []int64{2, 5, 9}},
		fault.Rule{Site: fault.SiteEvalDispatch, Kind: fault.KindError, Hits: []int64{3, 7}},
		fault.Rule{Site: fault.SiteEvalDispatch, Kind: fault.KindDelay, Hits: []int64{4}, Delay: time.Millisecond},
	)
	faulted := run(inj)

	if !reflect.DeepEqual(ref, faulted) {
		t.Fatalf("injected faults changed the search result:\nref     %+v\nfaulted %+v", ref, faulted)
	}
	for _, c := range inj.Counts() {
		if c.Planned >= 0 && c.Fired != c.Planned {
			t.Fatalf("fault %s:%s fired %d of %d", c.Site, c.Kind, c.Fired, c.Planned)
		}
	}
}

// TestRedispatchBudgetExhaustion: a site that fails every dispatch blows
// the redispatch budget and degrades to the quarantine path (+Inf), the
// documented floor under a permanently broken worker.
func TestRedispatchBudgetExhaustion(t *testing.T) {
	p := NewEvalPool(1)
	p.SetInjector(fault.MustNew(
		fault.Rule{Site: fault.SiteEvalDispatch, Kind: fault.KindError, Every: 1},
	))
	ms := p.evaluateGenome(tinyADEPT(t), gpu.P100, nil, nil)
	if !math.IsInf(ms, 1) {
		t.Fatalf("exhausted redispatch scored %v, want +Inf", ms)
	}
	q := p.Quarantined()
	if len(q) != 1 || !strings.Contains(q[0].Value, "budget exhausted") {
		t.Fatalf("quarantine after exhaustion: %+v", q)
	}
	if st := p.Stats(); st.Redispatches != maxRedispatch {
		t.Fatalf("redispatches = %d, want %d", st.Redispatches, maxRedispatch)
	}
}
