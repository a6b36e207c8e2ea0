package obs_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"gevo/internal/core"
	"gevo/internal/diag"
	"gevo/internal/gpu"
	"gevo/internal/obs"
	"gevo/internal/workload"
)

var update = flag.Bool("update", false, "rewrite the golden event-sequence file")

// testWorkload is a small synth scenario: fast to evaluate, oracle-verified
// at construction, and bit-reproducible in the seed like everything else.
const testWorkload = "synth:stencil1d:seed=1:n=32"

func searchConfig(sink obs.Sink) core.Config {
	return core.Config{
		Pop: 8, Generations: 6, Seed: 3, Arch: gpu.P100,
		MutationRate: 0.5, CrossoverRate: 0.8,
		Sink: sink, SinkID: "solo",
	}
}

func runSearch(t *testing.T, sink obs.Sink) *core.EngineState {
	t.Helper()
	w, err := workload.ByName(testWorkload)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	eng := core.NewEngine(w, searchConfig(sink))
	if _, err := eng.Run(); err != nil {
		t.Fatalf("search: %v", err)
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return st
}

// runDiagnosedSearch is runSearch with the full observability surface
// active: a sink attached and per-candidate diagnosis run on the current
// best genome after every generation, the way an operator polling
// /jobs/{id}/diag would. Diagnosis re-evaluates through its own profiled
// path, so it must not perturb the search.
func runDiagnosedSearch(t *testing.T, sink obs.Sink) *core.EngineState {
	t.Helper()
	w, err := workload.ByName(testWorkload)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	cfg := searchConfig(sink)
	eng := core.NewEngine(w, cfg)
	if err := eng.Init(); err != nil {
		t.Fatalf("init: %v", err)
	}
	for g := 0; g < cfg.Generations; g++ {
		eng.Step(1)
		if best := eng.Best(1); len(best) == 1 && best[0].Valid() {
			if _, err := diag.Diagnose(w, cfg.Arch, best[0].Genome); err != nil {
				t.Fatalf("diagnose at gen %d: %v", g+1, err)
			}
		}
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return st
}

// runSpannedSearch is runSearch with span tracing fully active: the engine
// charges a cost account whose span context is set, so every pool
// evaluation opens a pool.eval span in the collector — exactly how the
// serve executor configures a slice. Spans ride the sink and the account;
// neither may participate in the search.
func runSpannedSearch(t *testing.T, col *obs.Collector) *core.EngineState {
	t.Helper()
	w, err := workload.ByName(testWorkload)
	if err != nil {
		t.Fatalf("workload: %v", err)
	}
	cfg := searchConfig(col)
	// Evaluation spans are emitted by the pool, so the pool needs the sink
	// (serve attaches its collector to the shared pool the same way).
	cfg.Pool = core.NewEvalPool(2)
	cfg.Pool.AttachSink(col)
	root := obs.StartSpanFrom(obs.SpanContext{}, col, "job")
	defer root.End()
	cost := new(core.Cost)
	cost.SetSpan(root.Context())
	cfg.Cost = cost
	eng := core.NewEngine(w, cfg)
	if _, err := eng.Run(); err != nil {
		t.Fatalf("search: %v", err)
	}
	st, err := eng.Snapshot()
	if err != nil {
		t.Fatalf("snapshot: %v", err)
	}
	return st
}

// TestSinkBitIdentity pins the determinism contract: the complete search
// state after a fixed-seed run — population, RNG position, history,
// lineage, operator counters — is byte-identical with a collector
// attached, with no sink at all, with per-generation candidate diagnosis
// interleaved, and with span tracing active (a parented cost account, so
// every evaluation emits pool.eval spans). Observability observes; it
// never participates.
func TestSinkBitIdentity(t *testing.T) {
	col := obs.NewCollector(obs.NewRegistry(), 1024)
	withSink := runSearch(t, col)
	without := runSearch(t, nil)
	diagnosed := runDiagnosedSearch(t, obs.NewCollector(obs.NewRegistry(), 1024))
	spanCol := obs.NewCollector(obs.NewRegistry(), 4096)
	spanned := runSpannedSearch(t, spanCol)

	a, err := json.Marshal(withSink)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	b, err := json.Marshal(without)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	c, err := json.Marshal(diagnosed)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	d, err := json.Marshal(spanned)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !bytes.Equal(a, b) {
		t.Fatalf("fixed-seed search state differs with sink attached:\nwith:    %s\nwithout: %s", a, b)
	}
	if !bytes.Equal(a, c) {
		t.Fatalf("fixed-seed search state differs with diagnosis interleaved:\nplain:     %s\ndiagnosed: %s", a, c)
	}
	if !bytes.Equal(a, d) {
		t.Fatalf("fixed-seed search state differs with spans active:\nplain:   %s\nspanned: %s", a, d)
	}
	if len(col.Records()) == 0 {
		t.Fatalf("collector journaled no events — sink was not wired through")
	}
	spans := 0
	for _, rec := range spanCol.Records() {
		if rec.Type == "span.begin" {
			spans++
		}
	}
	if spans < 2 {
		t.Fatalf("spanned run journaled %d span.begin events, want the job root plus pool.eval spans", spans)
	}
}

// TestGoldenEventSequence pins the deterministic event stream itself: a
// solo engine emits its events from serial Step code, so with wall-clock
// stamps zeroed the JSONL journal of a fixed-seed run is a golden artifact.
// Regenerate with `go test ./internal/obs/ -run Golden -update` after an
// intentional taxonomy or search-behaviour change.
func TestGoldenEventSequence(t *testing.T) {
	col := obs.NewCollector(obs.NewRegistry(), 0)
	runSearch(t, col)

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, rec := range col.Records() {
		rec.WallNs = 0 // the one nondeterministic field, stamped by the collector
		if err := enc.Encode(rec); err != nil {
			t.Fatalf("encode: %v", err)
		}
	}
	got := buf.Bytes()

	golden := filepath.Join("testdata", "events_stencil1d_seed3.jsonl")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatalf("mkdir: %v", err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatalf("write golden: %v", err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("event sequence diverged from golden file\ngot:\n%s\nwant:\n%s", got, want)
	}
}
