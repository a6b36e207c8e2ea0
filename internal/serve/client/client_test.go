package client

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"gevo/internal/fault"
	"gevo/internal/obs"
	"gevo/internal/serve"
	"gevo/internal/workload"
)

// flaky returns a test server that fails the first n requests with the
// given status, then delegates every later request to next.
func flaky(n int, status int, header http.Header, next http.Handler) (*httptest.Server, *atomic.Int64) {
	var calls atomic.Int64
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= int64(n) {
			for k, vs := range header {
				for _, v := range vs {
					w.Header().Add(k, v)
				}
			}
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(status)
			fmt.Fprintf(w, `{"error":"transient failure %d"}`, calls.Load())
			return
		}
		next.ServeHTTP(w, r)
	})
	return httptest.NewServer(h), &calls
}

func okStatus(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprint(w, `{"id":"j1","state":"done","submits":1}`)
}

// TestClientRetries5xx: transient server errors are retried up to Retries
// times with backoff; the request that eventually lands wins.
func TestClientRetries5xx(t *testing.T) {
	srv, calls := flaky(2, http.StatusInternalServerError, nil, http.HandlerFunc(okStatus))
	defer srv.Close()
	c := New(srv.URL)
	c.Retries = 3
	c.RetryMaxWait = 50 * time.Millisecond

	st, err := c.Get(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j1" || calls.Load() != 3 {
		t.Fatalf("status %+v after %d calls, want j1 after 3", st, calls.Load())
	}
}

// TestClientNoRetryByDefault: Retries zero means one attempt, and the
// error carries the server's message.
func TestClientNoRetryByDefault(t *testing.T) {
	srv, calls := flaky(1, http.StatusInternalServerError, nil, http.HandlerFunc(okStatus))
	defer srv.Close()
	c := New(srv.URL)

	_, err := c.Get(context.Background(), "j1")
	if err == nil || !strings.Contains(err.Error(), "transient failure") {
		t.Fatalf("err = %v", err)
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1", calls.Load())
	}
}

// TestClientNoRetryOn4xx: a 404 is the server answering, not failing —
// retrying would just repeat the same wrong request.
func TestClientNoRetryOn4xx(t *testing.T) {
	srv, calls := flaky(5, http.StatusNotFound, nil, http.HandlerFunc(okStatus))
	defer srv.Close()
	c := New(srv.URL)
	c.Retries = 3
	c.RetryMaxWait = 10 * time.Millisecond

	if _, err := c.Get(context.Background(), "j1"); err == nil {
		t.Fatal("404 did not surface")
	}
	if calls.Load() != 1 {
		t.Fatalf("calls = %d, want 1 (4xx must not be retried)", calls.Load())
	}
}

// TestClientHonorsRetryAfter: a 429's Retry-After header overrides the
// computed backoff (still capped by RetryMaxWait).
func TestClientHonorsRetryAfter(t *testing.T) {
	hdr := http.Header{"Retry-After": []string{"1"}}
	srv, calls := flaky(1, http.StatusTooManyRequests, hdr, http.HandlerFunc(okStatus))
	defer srv.Close()
	c := New(srv.URL)
	c.Retries = 1
	c.RetryMaxWait = 200 * time.Millisecond // caps the 1s Retry-After

	start := time.Now()
	st, err := c.Get(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if st.ID != "j1" || calls.Load() != 2 {
		t.Fatalf("status %+v after %d calls", st, calls.Load())
	}
	if elapsed < 150*time.Millisecond {
		t.Fatalf("retry waited %v, want >= RetryMaxWait-ish (Retry-After capped at 200ms)", elapsed)
	}
}

// TestClientRetryConnectionRefused: a server that is not there yet is the
// canonical transient failure; with no listener at all the retries exhaust
// into the transport error rather than a hang or panic.
func TestClientRetryConnectionRefused(t *testing.T) {
	c := New("http://127.0.0.1:1")
	c.Retries = 1
	c.RetryMaxWait = 10 * time.Millisecond
	if _, err := c.Get(context.Background(), "j1"); err == nil {
		t.Fatal("connection refused did not surface")
	}
}

// TestClientRetriesThroughInjectedFaults runs the real REST surface with
// the HTTP fault site armed to kill the first two requests: the retrying
// client lands the submission on attempt three and the job runs to done —
// the end-to-end path gevo-submit takes against a chaos-mode gevo-serve.
func TestClientRetriesThroughInjectedFaults(t *testing.T) {
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
	defer m.Close()
	inj := fault.MustNew(
		fault.Rule{Site: fault.SiteHTTPRequest, Kind: fault.KindError, Hits: []int64{1, 2}},
	)
	srv := httptest.NewServer(serve.NewServerWith(m, serve.ServerOptions{Inject: inj}))
	defer srv.Close()

	c := New(srv.URL)
	c.Retries = 3
	c.RetryMaxWait = 50 * time.Millisecond
	spec := serve.JobSpec{
		Workload: "adept-v0", Demes: 1, Pop: 4, Generations: 2,
		MigrationInterval: 2, MigrationSize: 1, Seed: 9,
	}
	st, err := c.Submit(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	fin, err := c.WaitDone(context.Background(), st.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if fin.State != serve.StateDone {
		t.Fatalf("job ended %s: %s", fin.State, fin.Error)
	}
	for _, cnt := range inj.Counts() {
		if cnt.Fired != cnt.Planned {
			t.Errorf("fault %s:%s fired %d of %d", cnt.Site, cnt.Kind, cnt.Fired, cnt.Planned)
		}
	}
}
