// Package client is the typed API for a gevo-serve instance — the thin
// HTTP/SSE wrapper used by cmd/gevo-submit and the serve benchmarks. It
// deliberately mirrors the serve.Manager surface one to one.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"gevo/internal/serve"
)

// Client talks to one gevo-serve base URL.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTP is the transport (nil = http.DefaultClient). Watch overrides any
	// client timeout for its streaming request via the context instead.
	HTTP *http.Client
	// Retries is how many times a failed request is reissued beyond the
	// first attempt (0 = no retry). Only transient failures are retried:
	// transport errors (connection refused, reset) and 429/5xx responses.
	// Retrying is safe because the API is idempotent — submissions are
	// content-addressed, so a duplicate POST lands on the same job.
	Retries int
	// RetryMaxWait caps the deterministic backoff between attempts
	// (0 = DefaultRetryMaxWait). The wait doubles from 50ms per attempt, and
	// a 429's Retry-After header overrides the computed wait, capped the
	// same way.
	RetryMaxWait time.Duration
}

// DefaultRetryMaxWait caps client retry backoff when RetryMaxWait is zero.
const DefaultRetryMaxWait = 2 * time.Second

// retryBaseWait seeds the doubling backoff between request retries.
const retryBaseWait = 50 * time.Millisecond

// New returns a client for the base URL.
func New(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

func (c *Client) http() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return http.DefaultClient
}

// do issues a request and decodes the JSON response into out, mapping
// non-2xx responses to errors carrying the server's message. Transient
// failures — transport errors, 429 (admission shed), 5xx — are retried up
// to c.Retries times with deterministic doubling backoff; a 429's
// Retry-After header overrides the computed wait. Everything else (a 4xx
// is the server saying "this request is wrong, not unlucky") surfaces
// immediately.
func (c *Client) do(ctx context.Context, method, path string, body, out any) error {
	var blob []byte
	if body != nil {
		var err error
		if blob, err = json.Marshal(body); err != nil {
			return err
		}
	}
	var lastErr error
	for attempt := 0; ; attempt++ {
		retryable, err := c.doOnce(ctx, method, path, blob, out)
		if err == nil {
			return nil
		}
		lastErr = err
		if !retryable || attempt >= c.Retries {
			return lastErr
		}
		select {
		case <-ctx.Done():
			return lastErr
		case <-time.After(c.retryWait(attempt, err)):
		}
	}
}

// retryErr carries the Retry-After hint from a shed (429) response up to
// the backoff computation.
type retryErr struct {
	err        error
	retryAfter time.Duration
}

func (e *retryErr) Error() string { return e.err.Error() }
func (e *retryErr) Unwrap() error { return e.err }

// retryWait computes the pause before retry attempt+1: the server's
// Retry-After when it sent one, otherwise 50ms doubling per attempt —
// both capped at RetryMaxWait. Deterministic (no jitter): a replayed fault
// schedule yields a replayed retry schedule.
func (c *Client) retryWait(attempt int, err error) time.Duration {
	limit := c.RetryMaxWait
	if limit <= 0 {
		limit = DefaultRetryMaxWait
	}
	wait := retryBaseWait << attempt
	if re, ok := err.(*retryErr); ok && re.retryAfter > 0 {
		wait = re.retryAfter
	}
	if wait > limit {
		wait = limit
	}
	return wait
}

// doOnce performs a single HTTP exchange, reporting whether a failure is
// worth retrying.
func (c *Client) doOnce(ctx context.Context, method, path string, body []byte, out any) (retryable bool, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, rd)
	if err != nil {
		return false, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http().Do(req)
	if err != nil {
		// Transport-level failure (refused, reset, timeout): the server may
		// simply not be up yet, or be restarting — the retryable case.
		return true, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return true, err
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var apiErr struct {
			Error string `json:"error"`
		}
		err := fmt.Errorf("%s %s: HTTP %d", method, path, resp.StatusCode)
		if json.Unmarshal(blob, &apiErr) == nil && apiErr.Error != "" {
			err = fmt.Errorf("%s %s: %s", method, path, apiErr.Error)
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			re := &retryErr{err: err}
			if s, perr := strconv.Atoi(resp.Header.Get("Retry-After")); perr == nil && s > 0 {
				re.retryAfter = time.Duration(s) * time.Second
			}
			return true, re
		case resp.StatusCode >= 500:
			return true, err
		default:
			return false, err
		}
	}
	if out == nil {
		return false, nil
	}
	return false, json.Unmarshal(blob, out)
}

// Submit submits a job spec, returning the job status: a new job's, or
// that of the existing record the spec attached to (a job in flight, or a
// retained finished one carrying its result).
func (c *Client) Submit(ctx context.Context, spec serve.JobSpec) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodPost, "/jobs", spec, &st)
	return st, err
}

// Get fetches one job's status.
func (c *Client) Get(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs/"+id, nil, &st)
	return st, err
}

// List fetches every job.
func (c *Client) List(ctx context.Context) ([]serve.JobStatus, error) {
	var out []serve.JobStatus
	err := c.do(ctx, http.MethodGet, "/jobs", nil, &out)
	return out, err
}

// Cancel requests a job stop.
func (c *Client) Cancel(ctx context.Context, id string) (serve.JobStatus, error) {
	var st serve.JobStatus
	err := c.do(ctx, http.MethodDelete, "/jobs/"+id, nil, &st)
	return st, err
}

// Result fetches a finished job's artifact.
func (c *Client) Result(ctx context.Context, id string) (*serve.JobResult, error) {
	var res serve.JobResult
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/result", nil, &res); err != nil {
		return nil, err
	}
	return &res, nil
}

// Costs fetches a job's cost-account document: evaluation work charged to
// the job so far, plus the trace identity linking it to /debug/trace.
func (c *Client) Costs(ctx context.Context, id string) (*serve.JobCosts, error) {
	var doc serve.JobCosts
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/costs", nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Diag fetches a job's diagnosis document: search-health stats, the
// per-operator contribution table, and the kernel report for the ring-best
// genome when one is available.
func (c *Client) Diag(ctx context.Context, id string) (*serve.DiagDoc, error) {
	var doc serve.DiagDoc
	if err := c.do(ctx, http.MethodGet, "/jobs/"+id+"/diag", nil, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// Watch streams a job's events, calling fn for each until the job reaches
// a terminal state, the context ends, or the stream breaks. It returns the
// last observed status. The server replays the current status first, so
// Watch is safe to call at any point in the job's life.
func (c *Client) Watch(ctx context.Context, id string, fn func(serve.Event)) (serve.JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+"/jobs/"+id+"/events", nil)
	if err != nil {
		return serve.JobStatus{}, err
	}
	// Streams outlive any client-level timeout: use a transport-only client.
	hc := &http.Client{Transport: c.http().Transport}
	resp, err := hc.Do(req)
	if err != nil {
		return serve.JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		blob, _ := io.ReadAll(resp.Body)
		return serve.JobStatus{}, fmt.Errorf("watch %s: HTTP %d: %s", id, resp.StatusCode, bytes.TrimSpace(blob))
	}
	var last serve.JobStatus
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var ev serve.Event
		if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err != nil {
			continue
		}
		last = ev.Job
		if fn != nil {
			fn(ev)
		}
		if ev.Job.State.Terminal() {
			return last, nil
		}
	}
	if err := sc.Err(); err != nil {
		return last, err
	}
	return last, nil
}

// WaitDone blocks until the job is terminal, preferring the SSE stream and
// falling back to polling if the stream drops (e.g. a lagging subscriber
// disconnected by the server, or a server restart mid-job).
func (c *Client) WaitDone(ctx context.Context, id string, fn func(serve.Event)) (serve.JobStatus, error) {
	for {
		st, err := c.Watch(ctx, id, fn)
		if err == nil && st.State.Terminal() {
			return st, nil
		}
		if ctx.Err() != nil {
			return st, ctx.Err()
		}
		// Stream broke: re-sync by polling, then re-watch if still running.
		st, gerr := c.Get(ctx, id)
		if gerr == nil && st.State.Terminal() {
			return st, nil
		}
		if gerr != nil && err != nil {
			return st, fmt.Errorf("watch: %v; poll: %v", err, gerr)
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}
