package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"gevo/internal/obs"
	"gevo/internal/serve"
)

// TestTraceEndToEnd pins the tentpole invariant: one trace ID links an HTTP
// submission through the job, its executor slices, the pool evaluations and
// the program compiles. The client sends a W3C traceparent; every layer
// must join that trace — the response header, the job status, the SSE
// events, the cost document, and the span slices in the exported Chrome
// trace.
func TestTraceEndToEnd(t *testing.T) {
	c, base := startObsServer(t, serve.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	trace := strings.Repeat("4b", 16)
	parentHdr := "00-" + trace + "-" + strings.Repeat("2c", 8) + "-01"

	blob, err := json.Marshal(serve.JobSpec{
		Workload: "adept-v0", Demes: 2, Pop: 4,
		Generations: 4, MigrationInterval: 2,
		MutationRate: f64(0.5), CrossoverRate: f64(0.8), Seed: 41,
	})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/jobs", bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", parentHdr)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("POST /jobs: %s: %s", resp.Status, body)
	}

	// The response echoes a traceparent on the submitter's trace, with the
	// server's own request span as the new position.
	echo, ok := obs.ParseTraceparent(resp.Header.Get("traceparent"))
	if !ok || echo.TraceID != trace {
		t.Fatalf("response traceparent %q does not continue trace %s", resp.Header.Get("traceparent"), trace)
	}

	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Trace != trace {
		t.Fatalf("job adopted trace %q, want the submitter's %s", st.Trace, trace)
	}

	// SSE events carry the job's trace and the emitting slice's span.
	evTraced := false
	final, err := c.WaitDone(ctx, st.ID, func(ev serve.Event) {
		if ev.Trace == trace && ev.Span != "" {
			evTraced = true
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", final.State, final.Error)
	}
	if !evTraced {
		t.Fatal("no SSE event carried the job's trace and a span ID")
	}

	// The cost document shares the trace identity and shows the work.
	costs, err := c.Costs(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if costs.Trace != trace || costs.JobID != st.ID {
		t.Fatalf("costs doc identity %+v, want job %s on trace %s", costs, st.ID, trace)
	}
	if costs.Evals == 0 || costs.Completed == 0 || costs.Slices == 0 || costs.Launches == 0 {
		t.Fatalf("costs doc shows no work: %+v", costs)
	}
	if costs.Evals != costs.Completed+costs.CacheHits {
		t.Fatalf("evals %d != completed %d + cache hits %d", costs.Evals, costs.Completed, costs.CacheHits)
	}

	// The served result carries the costs block (the persisted one must not,
	// which TestResultFileByteIdentity-style checks guard elsewhere).
	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.Costs == nil || res.Costs.Trace != trace {
		t.Fatalf("served result costs = %+v, want attached on trace %s", res.Costs, trace)
	}

	// The Chrome trace export links every layer on the one trace ID.
	tresp, err := http.Get(base + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	var events []struct {
		Name  string            `json:"name"`
		Phase string            `json:"ph"`
		Args  map[string]string `json:"args"`
	}
	if err := json.NewDecoder(tresp.Body).Decode(&events); err != nil {
		t.Fatalf("parse chrome trace: %v", err)
	}
	onTrace := map[string]bool{}
	for _, ev := range events {
		if ev.Phase == "X" && ev.Args["trace"] == trace {
			onTrace[ev.Name] = true
		}
	}
	want := []string{"http", "job", "slice", "pool.eval"}
	// The program cache is process-global: a compile slice only exists when
	// this job actually missed it (a prior test in the same process may have
	// compiled the same programs). The costs doc records whether it did.
	if costs.ProgramMisses > 0 {
		want = append(want, "gpu.compile")
	}
	for _, name := range want {
		if !onTrace[name] {
			t.Errorf("chrome trace has no %q slice on trace %s (slices on trace: %v)", name, trace, onTrace)
		}
	}
}

// TestCostsEndpointLifecycle checks /jobs/{id}/costs for an unknown job and
// a finished one against the pool-wide counter on /metrics (exact
// reconciliation is TestCostReconciliation's).
func TestCostsEndpointLifecycle(t *testing.T) {
	c, base := startObsServer(t, serve.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	if _, err := c.Costs(ctx, "jdeadbeef00000000"); err == nil {
		t.Fatal("costs for an unknown job should 404")
	}

	st, err := c.Submit(ctx, serve.JobSpec{
		Workload: "adept-v0", Demes: 2, Pop: 4,
		Generations: 4, MigrationInterval: 2,
		MutationRate: f64(0.5), CrossoverRate: f64(0.8), Seed: 43,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}
	costs, err := c.Costs(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if costs.State != serve.StateDone || costs.Evals == 0 {
		t.Fatalf("costs after done: %+v", costs)
	}

	// The job's simulations are among the pool's.
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, _ := io.ReadAll(resp.Body)
	const series = "gevo_pool_evals_completed_total "
	pool := -1.0
	for _, line := range strings.Split(string(blob), "\n") {
		if v, ok := strings.CutPrefix(line, series); ok {
			if pool, err = strconv.ParseFloat(v, 64); err != nil {
				t.Fatal(err)
			}
		}
	}
	if pool < 0 {
		t.Fatalf("metrics missing %q:\n%s", series, blob)
	}
	if float64(costs.Completed) > pool {
		t.Fatalf("job completed %d simulations, the pool %v", costs.Completed, pool)
	}
}
