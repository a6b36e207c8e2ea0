package serve

import (
	"encoding/json"
	"errors"
	"testing"
	"time"

	"gevo/internal/fault"
	"gevo/internal/obs"
)

// chaosSpecs is the gauntlet's mixed job load: both application workloads
// plus a synthetic family, each a small but real multi-deme search.
func chaosSpecs() []JobSpec {
	a := testSpec(101)
	b := testSpec(202)
	b.Workload = "simcov"
	c := testSpec(303)
	c.Workload = "synth:reduce:seed=5:n=64"
	return []JobSpec{a, b, c}
}

// TestChaosGauntlet is the acceptance gate for the fault-injection
// harness: one manager runs the mixed load fault-free, a second runs it
// with eval panics, dispatch errors, delays, persistence failures and
// admission-control shedding all armed — and must produce byte-identical
// results, settle every pool gauge to zero, fire every scheduled fault,
// and heal to ok. Run it under -race; the fault paths cross the executor,
// persister and HTTP goroutine boundaries on purpose.
func TestChaosGauntlet(t *testing.T) {
	specs := chaosSpecs()

	// Reference: fault-free, unbounded admission, persisted (persistence
	// must not influence results either way).
	ref := openTest(t, Options{Dir: t.TempDir(), Registry: obs.NewRegistry()})
	want := map[string][]byte{}
	for _, spec := range specs {
		st, err := ref.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		st = waitFor(t, ref, st.ID, "done", isDone)
		blob, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		want[st.ID] = blob
	}
	ref.Close()

	// Gauntlet: >=5 injected eval panics, dispatch errors and a delay,
	// >=3 persistence failures across write and sync, and max-active-jobs 1
	// so the second and third submissions shed.
	inj := fault.MustNew(
		fault.Rule{Site: fault.SiteEvalDispatch, Kind: fault.KindPanic, Hits: []int64{2, 6, 10, 14, 18}},
		fault.Rule{Site: fault.SiteEvalDispatch, Kind: fault.KindError, Hits: []int64{4, 12}},
		fault.Rule{Site: fault.SiteEvalDispatch, Kind: fault.KindDelay, Hits: []int64{8}, Delay: time.Millisecond},
		fault.Rule{Site: fault.SitePersistWrite, Kind: fault.KindError, Hits: []int64{1, 4}},
		fault.Rule{Site: fault.SitePersistSync, Kind: fault.KindError, Hits: []int64{2}},
	)
	reg := obs.NewRegistry()
	m := openTest(t, Options{
		Dir: t.TempDir(), Registry: reg, Inject: inj, MaxActiveJobs: 1,
	})

	// Submit everything at once: the first admission fills the slot, the
	// rest shed — the overload signal the HTTP layer turns into 429.
	sheds := 0
	admitted := map[int]string{}
	for i, spec := range specs {
		st, err := m.Submit(spec)
		var over *OverloadedError
		switch {
		case err == nil:
			admitted[i] = st.ID
		case errors.As(err, &over):
			sheds++
		default:
			t.Fatal(err)
		}
	}
	if sheds < 2 {
		t.Fatalf("sheds = %d, want >= 2", sheds)
	}
	// Drain the load: wait for whatever is admitted, then resubmit the shed
	// specs as capacity frees (the client retry loop, inlined).
	for i, spec := range specs {
		if _, ok := admitted[i]; ok {
			continue
		}
		deadline := time.Now().Add(120 * time.Second)
		for {
			st, err := m.Submit(spec)
			if err == nil {
				admitted[i] = st.ID
				break
			}
			var over *OverloadedError
			if !errors.As(err, &over) {
				t.Fatal(err)
			}
			sheds++
			if time.Now().After(deadline) {
				t.Fatal("shed submission never admitted")
			}
			time.Sleep(10 * time.Millisecond)
		}
		waitFor(t, m, admitted[i], "done", isDone)
	}

	// Every job finished with the fault-free bytes.
	for i := range specs {
		st := waitFor(t, m, admitted[i], "done", isDone)
		got, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want[st.ID]) {
			t.Errorf("spec %d: faulted result diverged:\nwant %s\ngot  %s", i, want[st.ID], got)
		}
	}

	// Every scheduled fault fired and is visible in the metrics registry.
	for _, c := range inj.Counts() {
		if c.Planned >= 0 && c.Fired != c.Planned {
			t.Errorf("fault %s:%s fired %d of %d", c.Site, c.Kind, c.Fired, c.Planned)
		}
		name := `gevo_fault_injected_total{site="` + c.Site + `",kind="` + string(c.Kind) + `"}`
		if v := reg.Value(name); int64(v) != c.Fired {
			t.Errorf("%s = %v, want %d", name, v, c.Fired)
		}
	}
	if v := reg.Value(`gevo_fault_injected_total{site="eval.dispatch",kind="panic"}`); v < 5 {
		t.Errorf("eval panics injected = %v, want >= 5", v)
	}
	if n := m.ledgerErrors.Value(); n != 3 {
		t.Errorf("gevo_ledger_errors_total = %d, want 3", n)
	}
	if n := m.shedTotal.Value(); int(n) != sheds {
		t.Errorf("gevo_serve_shed_total = %d, want %d", n, sheds)
	}

	// No leaked slots, no stuck gauges, health healed.
	for _, g := range []string{"gevo_pool_in_flight", "gevo_pool_queue_depth"} {
		if v := m.Metrics().Value(g); v != 0 {
			t.Errorf("pool gauge %s did not settle: %v", g, v)
		}
	}
	if len(m.pool.Quarantined()) != 0 {
		t.Errorf("injected faults leaked into quarantine: %+v", m.pool.Quarantined())
	}
	deadline := time.Now().Add(10 * time.Second)
	for m.Health().Status != "ok" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h := m.Health(); h.Status != "ok" {
		t.Fatalf("health did not heal after the gauntlet: %+v", h)
	}
}
