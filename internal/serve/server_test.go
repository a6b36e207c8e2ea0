package serve_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"gevo/internal/serve"
	"gevo/internal/serve/client"
	"gevo/internal/workload"
)

func f64(v float64) *float64 { return &v }

// startServer runs a manager behind an httptest server and returns a
// typed client for it. Jobs resolve to miniature datasets so the HTTP and
// SSE paths are exercised without standard-dataset search cost.
func startServer(t *testing.T) *client.Client {
	t.Helper()
	m, err := serve.Open(serve.Options{
		SkipValidation: true,
		Workloads: func(name string) (workload.Workload, error) {
			return workload.ByNameWith(name, workload.Options{
				ADEPT: &workload.ADEPTOptions{Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32},
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServer(m))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return client.New(ts.URL)
}

// scrape reads a Prometheus text exposition into series name → value.
func scrape(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(blob), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if line == "" || line[0] == '#' || i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// TestServerEndToEnd drives the full REST/SSE surface through the typed
// client: submit, SSE watch to completion, result artifact, list, the
// /metrics scrape, and the error paths.
func TestServerEndToEnd(t *testing.T) {
	c := startServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := func(seed uint64, gens int) serve.JobSpec {
		return serve.JobSpec{
			Workload: "adept-v0", Demes: 2, Pop: 4,
			Generations: gens, MigrationInterval: 2,
			MutationRate: f64(0.5), CrossoverRate: f64(0.8), Seed: seed,
		}
	}

	// A job too long to finish during the test carries the in-flight
	// assertions: premature result fetch, live SSE progress, cancellation.
	long, err := c.Submit(ctx, spec(21, 100000))
	if err != nil {
		t.Fatal(err)
	}
	if long.ID == "" || long.State.Terminal() {
		t.Fatalf("fresh submission: %+v", long)
	}
	if _, err := c.Result(ctx, long.ID); err == nil || !strings.Contains(err.Error(), "once done") {
		t.Errorf("premature result fetch: %v", err)
	}
	watchCtx, stopWatch := context.WithCancel(ctx)
	defer stopWatch()
	sawProgress := make(chan struct{})
	go func() {
		first := true
		_, _ = c.Watch(watchCtx, long.ID, func(ev serve.Event) {
			if ev.Type == "progress" && first {
				first = false
				close(sawProgress)
			}
		})
	}()
	select {
	case <-sawProgress:
	case <-ctx.Done():
		t.Fatal("no progress events over SSE")
	}
	cancelled, err := c.Cancel(ctx, long.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !cancelled.State.Terminal() {
		// Mid-slice cancellation lands at the next slice boundary.
		if final, err := c.WaitDone(ctx, long.ID, nil); err != nil || final.State != serve.StateCancelled {
			t.Fatalf("cancel: state %s err %v", final.State, err)
		}
	}

	// A short job carries the completion flow end to end.
	st, err := c.Submit(ctx, spec(22, 6))
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitDone(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone || final.Result == nil {
		t.Fatalf("final: state %s result %v error %q", final.State, final.Result, final.Error)
	}

	res, err := c.Result(ctx, st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if res.BestMs != final.Result.BestMs || res.Speedup != final.Result.Speedup {
		t.Errorf("result endpoint %+v != status result %+v", res, final.Result)
	}

	// Resubmission of the finished spec answers immediately.
	again, err := c.Submit(ctx, spec(22, 6))
	if err != nil {
		t.Fatal(err)
	}
	if again.State != serve.StateDone || again.Submits != 2 {
		t.Errorf("resubmission: state %s submits %d", again.State, again.Submits)
	}

	jobs, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("list: %+v", jobs)
	}

	// Jobs by state and pool load are /metrics series; /stats is gone.
	metrics := scrape(t, c.Base+"/metrics")
	if metrics[`gevo_serve_jobs{state="done"}`] != 1 || metrics[`gevo_serve_jobs{state="cancelled"}`] != 1 ||
		metrics["gevo_pool_evals_completed_total"] <= 0 || metrics["gevo_pool_workers"] <= 0 {
		t.Errorf("/metrics: %v", metrics)
	}
	if resp, err := http.Get(c.Base + "/stats"); err != nil {
		t.Error(err)
	} else if resp.Body.Close(); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /stats: HTTP %d, want 404", resp.StatusCode)
	}

	// Error paths: unknown job, invalid spec (error must name the registry).
	if _, err := c.Get(ctx, "jffffffffffffffff"); err == nil {
		t.Error("unknown job status succeeded")
	}
	if _, err := c.Cancel(ctx, "jffffffffffffffff"); err == nil {
		t.Error("unknown job cancel succeeded")
	}
	if _, err := c.Submit(ctx, serve.JobSpec{Workload: "nope"}); err == nil ||
		!strings.Contains(err.Error(), "known: adept-v0, adept-v1, simcov") {
		t.Errorf("invalid spec error: %v", err)
	}
}

// TestServerSynthJob runs a generated scenario end to end through the
// service: a fully parameterized synth: name must validate at the trust
// boundary, build through the standard workload factory, search to
// completion, and report a result; malformed synth specs must be rejected
// with the generator's descriptive error.
func TestServerSynthJob(t *testing.T) {
	c := startServer(t)
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	spec := serve.JobSpec{
		Workload: "synth:stencil2d:seed=4:n=64", Demes: 2, Pop: 4,
		Generations: 6, MigrationInterval: 2,
		MutationRate: f64(0.5), CrossoverRate: f64(0.8), Seed: 7,
	}
	st, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	final, err := c.WaitDone(ctx, st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != serve.StateDone || final.Result == nil {
		t.Fatalf("synth job: state %s result %v error %q", final.State, final.Result, final.Error)
	}
	if final.Result.Speedup < 1 {
		t.Errorf("synth job regressed its base: %+v", final.Result)
	}

	// Identical spec resubmission coalesces like any other workload name.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != st.ID || again.Submits != 2 {
		t.Errorf("synth resubmission: id %s submits %d", again.ID, again.Submits)
	}

	bad := spec
	bad.Workload = "synth:stencil2d:n=1000"
	if _, err := c.Submit(ctx, bad); err == nil || !strings.Contains(err.Error(), "perfect square") {
		t.Errorf("malformed synth spec error: %v", err)
	}
}
