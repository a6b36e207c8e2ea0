package serve_test

import (
	"bufio"
	"context"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"gevo/internal/obs"
	"gevo/internal/serve"
	"gevo/internal/serve/client"
	"gevo/internal/workload"
)

// startObsServer is startServer with explicit server options and a private
// metrics registry, returning the raw base URL alongside the typed client.
func startObsServer(t *testing.T, opts serve.ServerOptions) (*client.Client, string) {
	t.Helper()
	m, err := serve.Open(serve.Options{
		Registry: obs.NewRegistry(),
		Workloads: func(name string) (workload.Workload, error) {
			return workload.ByNameWith(name, workload.Options{
				ADEPT: &workload.ADEPTOptions{Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32},
			})
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewServerWith(m, opts))
	t.Cleanup(func() {
		ts.Close()
		m.Close()
	})
	return client.New(ts.URL), ts.URL
}

// promSample matches one Prometheus text-format sample line. Label values
// are quoted strings with backslash escapes and may legally contain '}'
// (route patterns like "GET /jobs/{id}" do), so the label block is matched
// value-aware rather than by scanning to the first brace.
var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{([a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*",?)*\})? (-?[0-9.eE+-]+|NaN|[+-]Inf)$`)

// TestMetricsEndpoint drives one job to completion and then scrapes
// /metrics: the exposition must be well-formed line by line and carry the
// standard pool, serve and trace series with plausible values.
func TestMetricsEndpoint(t *testing.T) {
	c, base := startObsServer(t, serve.ServerOptions{})
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	st, err := c.Submit(ctx, serve.JobSpec{
		Workload: "adept-v0", Demes: 2, Pop: 4,
		Generations: 4, MigrationInterval: 2,
		MutationRate: f64(0.5), CrossoverRate: f64(0.8), Seed: 31,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.WaitDone(ctx, st.ID, nil); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: %s", resp.Status)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") || !strings.Contains(ct, "0.0.4") {
		t.Errorf("content type %q, want text exposition format 0.0.4", ct)
	}
	var text strings.Builder
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		text.WriteString(line)
		text.WriteByte('\n')
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Fatalf("malformed exposition line %q", line)
		}
	}
	body := text.String()
	for _, want := range []string{
		"gevo_pool_evals_completed_total ",
		"gevo_pool_workers ",
		`gevo_serve_jobs{state="done"} 1`,
		"gevo_serve_slices_total ",
		"gevo_serve_submits_total 1",
		"gevo_serve_ledger_write_seconds_bucket{le=\"+Inf\"}",
		"gevo_trace_events_total ",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("exposition missing %q:\n%s", want, body)
		}
	}
}

// TestSSEKeepAlive pins the idle-stream contract: a subscriber on a quiet
// stream receives ": ping" comment frames at the configured interval, and a
// comment-bearing stream still parses as SSE (comment lines are ignored by
// spec, which the typed client's Watch relies on).
func TestSSEKeepAlive(t *testing.T) {
	c, base := startObsServer(t, serve.ServerOptions{KeepAlive: 30 * time.Millisecond})
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	// A job far too long to finish keeps the stream open and mostly idle
	// between slice-boundary progress events.
	st, err := c.Submit(ctx, serve.JobSpec{
		Workload: "adept-v0", Demes: 2, Pop: 4,
		Generations: 100000, MigrationInterval: 2,
		MutationRate: f64(0.5), CrossoverRate: f64(0.8), Seed: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Cancel(context.Background(), st.ID)

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/jobs/"+st.ID+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	sc := bufio.NewScanner(resp.Body)
	deadline := time.After(30 * time.Second)
	got := make(chan string, 1)
	go func() {
		for sc.Scan() {
			if strings.HasPrefix(sc.Text(), ": ping") {
				got <- sc.Text()
				return
			}
		}
	}()
	select {
	case <-got:
	case <-deadline:
		t.Fatal("no keep-alive comment frame on an idle SSE stream")
	}
}
