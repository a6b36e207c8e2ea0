package obs_test

import (
	"fmt"
	"sync"
	"testing"

	"gevo/internal/core"
	"gevo/internal/gpu"
	"gevo/internal/obs"
	"gevo/internal/workload"
)

// TestCollectorConcurrentWriters hammers one collector from the serve
// shape of traffic — several engines journaling search events and
// evaluation spans through a shared pool while "HTTP" goroutines open and
// close request spans — with a byte budget small enough to wrap. Run under
// -race this is the data-race check for the whole sink path; the assertions
// pin the journal invariants: gapless ascending sequence numbers in the
// retained window, the encoded bytes within the budget, and events =
// retained + dropped exactly.
func TestCollectorConcurrentWriters(t *testing.T) {
	const budget = 64 << 10
	reg := obs.NewRegistry()
	col := obs.NewCollector(reg, budget)
	w, err := workload.ByName("synth:stencil1d:seed=1:n=32")
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	pool := core.NewEvalPool(4)
	pool.AttachSink(col)

	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("job-%d", i)
			cost := new(core.Cost)
			root := obs.StartSpanFrom(obs.SpanContext{}, col, "job")
			cost.SetSpan(root.Context())
			eng := core.NewEngine(w, core.Config{
				Pop: 6, Generations: 3, Seed: uint64(i + 1), Arch: gpu.P100,
				MutationRate: 0.5, CrossoverRate: 0.8,
				Pool: pool, Cost: cost,
				Sink: obs.WithAttrs(col, obs.A("job", id)), SinkID: id,
			})
			if _, err := eng.Run(); err != nil {
				t.Errorf("engine %d: %v", i, err)
			}
			root.End()
		}(i)
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200; n++ {
				sp := obs.StartSpanFrom(obs.SpanContext{}, col, "http")
				sp.End(obs.A("code", "200"))
			}
		}()
	}
	wg.Wait()

	recs := col.Records()
	if len(recs) == 0 {
		t.Fatal("no records journaled")
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq != recs[i-1].Seq+1 {
			t.Fatalf("sequence gap in retained window: %d then %d", recs[i-1].Seq, recs[i].Seq)
		}
	}
	events := reg.Counter("gevo_trace_events_total", "").Value()
	dropped := reg.Counter("gevo_trace_events_dropped_total", "").Value()
	if events != int64(len(recs))+dropped {
		t.Fatalf("counter mismatch: events %d != retained %d + dropped %d", events, len(recs), dropped)
	}
	if dropped == 0 {
		t.Fatalf("journal never wrapped (%d events into %d bytes) — the test is not exercising eviction", events, budget)
	}
	if st := col.Stats(); st.Bytes > budget || st.Records != len(recs) || st.Dropped != uint64(dropped) {
		t.Fatalf("journal stats %+v, want %d records within %d bytes and %d dropped", st, len(recs), budget, dropped)
	}
}
