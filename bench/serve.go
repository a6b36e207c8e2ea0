package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"gevo/internal/rng"
	"gevo/internal/serve"
	"gevo/internal/serve/client"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// served is a durable serve.Manager behind its REST/SSE server on a
// loopback port, plus the typed client the closed-loop callers use. All of
// it lives in this process: the callers of the service are gevo-submit
// -wait runs and CI pipelines that block on their result, so each client
// issues its next request when the previous one completes.
type served struct {
	e    *env
	mgr  *serve.Manager
	srv  *http.Server
	done chan struct{}
	cl   *client.Client
	tp   *http.Transport
	// errors counts client calls that returned an error (non-2xx, transport).
	errors atomic.Int64
	// firstRound holds the manager counters' movement over round 0.
	firstRound map[string]float64
}

func openServed(e *env) (*served, error) {
	s := &served{e: e, done: make(chan struct{})}
	opts := serve.Options{Dir: filepath.Join(e.dir, "state"), Workers: e.p, Executors: e.p}
	if e.tr != nil {
		opts.Workloads = func(name string) (workload.Workload, error) {
			w, err := workload.ByName(name)
			if err != nil {
				return nil, err
			}
			return e.wrap(w), nil
		}
	}
	var err error
	if s.mgr, err = serve.Open(opts); err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.mgr.Close()
		return nil, err
	}
	s.srv = &http.Server{Handler: serve.NewServer(s.mgr)}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns ErrServerClosed on close
	}()
	s.tp = &http.Transport{MaxIdleConns: 4 * e.p, MaxIdleConnsPerHost: 4 * e.p}
	s.cl = client.New("http://" + ln.Addr().String())
	s.cl.HTTP = &http.Client{Transport: s.tp}
	return s, nil
}

func (s *served) close() {
	_ = s.srv.Close() // also drops open SSE streams
	<-s.done
	s.mgr.Close()
	s.tp.CloseIdleConnections()
}

// counters samples the manager's own instruments.
func (s *served) counters() map[string]float64 {
	out := map[string]float64{}
	for _, ser := range s.mgr.Metrics().Snapshot() {
		switch ser.Name {
		case "gevo_serve_slices_total", "gevo_serve_ledger_writes_total", "gevo_pool_evals_completed_total":
			out[ser.Name] = ser.Value
		case "gevo_serve_ledger_write_seconds":
			out[ser.Name] = ser.Sum
		}
	}
	return out
}

// aroundFirst runs f and, on round 0, keeps how far the manager's counters
// moved across it.
func (s *served) aroundFirst(r int, f func()) {
	if r != 0 {
		f()
		return
	}
	before := s.counters()
	f()
	after := s.counters()
	s.firstRound = map[string]float64{}
	for k, v := range after {
		s.firstRound[k] = v - before[k]
	}
}

func (s *served) layer(m map[string]float64, spans []span) {
	// Evaluation busy time over the capacity P x round wall; the remainder
	// is orchestration (scheduling, checkpoints, ledger, HTTP, SSE) and idle.
	wall := sum(durationsOf(spans, "round", time.Second))
	m["serve.eval_busy_share"] = ratio(sum(durationsOf(spans, "workload.eval", time.Second)), float64(s.e.p)*wall)
	m["serve.slices"] = s.firstRound["gevo_serve_slices_total"]
	m["serve.ledger_writes"] = s.firstRound["gevo_serve_ledger_writes_total"]
	m["serve.ledger_write_s"] = s.firstRound["gevo_serve_ledger_write_seconds"]
	m["serve.errors"] = float64(s.errors.Load())
	n := 0
	m["serve.open_ms"] = timeMedian(probeSlow, time.Millisecond, func() {
		n++
		mgr, err := serve.Open(serve.Options{Dir: filepath.Join(s.e.dir, fmt.Sprintf("open-probe%d", n)), Workers: s.e.p, Executors: s.e.p})
		if err == nil {
			mgr.Close()
		}
	})
	// The open probe's managers re-registered the standard metric names;
	// nothing reads the registry after this point.
}

// clients runs f(i) for i in [0,n) from P closed-loop goroutines.
func (s *served) clients(n int, f func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < s.e.p; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				f(i)
			}
		}()
	}
	wg.Wait()
}

// runJob is one unit of serve_small_jobs: submit, wait on the SSE stream,
// fetch the result document.
func (s *served) runJob(idx int, spec serve.JobSpec, t *tally) {
	ctx := context.Background()
	tr := s.e.tr
	name := workload.Canonical(spec.Workload)
	unit := tr.beginUnit("serve.job", tr.current(), false)
	tr.bind(name, unit)
	t0 := time.Now()
	fail := func(what string, err error) {
		s.errors.Add(1)
		tr.end(unit)
		t.op(what+" "+spec.Workload, err)
	}
	id := tr.begin("serve.submit", unit, false)
	st, err := s.cl.Submit(ctx, spec)
	tr.end(id)
	if err != nil {
		fail("submit", err)
		return
	}
	id = tr.begin("serve.wait", unit, false)
	tr.bind(name, id)
	st, err = s.cl.WaitDone(ctx, st.ID, nil)
	tr.end(id)
	if err == nil && st.State != serve.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if err != nil {
		fail("wait", err)
		return
	}
	id = tr.begin("serve.result", unit, false)
	res, err := s.cl.Result(ctx, st.ID)
	tr.end(id)
	if err != nil {
		fail("result", err)
		return
	}
	t.unit(time.Since(t0))
	tr.end(unit)
	t.op("job", nil)
	res.Costs = nil // process-local telemetry, not part of the result document
	doc, _ := json.Marshal(res)
	t.search(idx, res.Speedup, res.Validated, string(doc))
	t.count(int64(st.Evaluations), 0, 0)
}

// --------------------------------------------------------- serve_small_jobs

// warmScenarioBase keeps warm-up scenarios apart from measured ones.
const warmScenarioBase = 1 << 20

type serveSmallJobs struct {
	*served
	fams []string
}

// buildServeSmallJobs opens the service. Its jobs are tiny synthetic
// searches at the job defaults (2 demes x pop 8 x 12 generations, migration
// every 4, validation on), each on a scenario no earlier job used, so no
// job finds its answer in the result cache or its evaluations in the pool.
func buildServeSmallJobs(e *env) (instance, error) {
	s, err := openServed(e)
	if err != nil {
		return nil, err
	}
	return &serveSmallJobs{served: s, fams: families()}, nil
}

// spec is job i of the stream: families cycle, scenario seeds climb.
func (s *serveSmallJobs) spec(i, scenarioBase int) serve.JobSpec {
	return serve.JobSpec{
		Workload: fmt.Sprintf("%s%s:seed=%d", synth.Prefix, s.fams[i%len(s.fams)], scenarioBase+1+i/len(s.fams)),
		Seed:     uint64(i) + 1,
	}
}

func (s *serveSmallJobs) warm(t *tally) {
	s.clients(s.e.z.jobsWarm, func(i int) { s.runJob(i, s.spec(i, warmScenarioBase), t) })
}

func (s *serveSmallJobs) round(r int, t *tally) {
	n := s.e.z.jobsPerRound
	order := rng.New(s.e.seed + uint64(r)).Perm(n)
	s.aroundFirst(r, func() {
		s.clients(n, func(i int) {
			j := r*n + order[i]
			s.runJob(j, s.spec(j, 0), t)
		})
	})
}

func (s *serveSmallJobs) targets() []workload.Workload { return synthTargets() }

// synthTargets is one default-size scenario per family, the modules the
// serve workloads' jobs are made of.
func synthTargets() []workload.Workload {
	var out []workload.Workload
	for _, fam := range families() {
		if w, err := synth.New(synth.Spec{Family: fam}); err == nil {
			out = append(out, w)
		}
	}
	return out
}

// -------------------------------------------------------------- serve_reads

// readMix is the request mix, per 20 requests.
var readMix = []struct {
	kind string
	n    int
}{
	{"serve.cached_submit", 6},
	{"serve.status", 6},
	{"serve.result", 4},
	{"serve.list", 2},
	{"obs.scrape", 2},
}

type serveReads struct {
	*served
	specs []serve.JobSpec
	ids   []string
	// plan is the round's request sequence: the mix, shuffled by the seed.
	plan []string
	// scrapeBytes and scrapeSeries describe the last /metrics body read.
	scrapeBytes, scrapeSeries atomic.Int64
}

// buildServeReads opens the service and fills it with finished jobs; the
// rounds then only read.
func buildServeReads(e *env) (instance, error) {
	sv, err := openServed(e)
	if err != nil {
		return nil, err
	}
	s := &serveReads{served: sv}
	fams := families()
	for i := 0; i < e.z.readsJobs; i++ {
		s.specs = append(s.specs, serve.JobSpec{
			Workload: fmt.Sprintf("%s%s:seed=%d", synth.Prefix, fams[i%len(fams)], 1+i/len(fams)),
			Seed:     uint64(i) + 1,
		})
	}
	s.ids = make([]string, e.z.readsJobs)
	fill := newTally()
	s.clients(e.z.readsJobs, func(i int) {
		s.runJob(i, s.specs[i], fill)
		// Identical specs get identical IDs, so a resubmission names the job.
		if st, err := s.cl.Submit(context.Background(), s.specs[i]); err == nil {
			s.ids[i] = st.ID
		}
	})
	if out := fill.outcome(); out.failed > 0 {
		sv.close()
		return nil, fmt.Errorf("populating jobs: %s", strings.Join(out.failures, "; "))
	}
	var mix []string
	for len(mix) < e.z.readsPerRound {
		for _, k := range readMix {
			for j := 0; j < k.n; j++ {
				mix = append(mix, k.kind)
			}
		}
	}
	mix = mix[:e.z.readsPerRound]
	for _, j := range rng.New(e.seed).Perm(len(mix)) {
		s.plan = append(s.plan, mix[j])
	}
	return s, nil
}

// request issues request i of the plan and returns a line that must be the
// same every time the same request is answered.
func (s *serveReads) request(i int) (string, error) {
	ctx := context.Background()
	kind := s.plan[i]
	job := i % len(s.specs)
	switch kind {
	case "serve.cached_submit":
		st, err := s.cl.Submit(ctx, s.specs[job])
		if err != nil {
			return "", err
		}
		if st.State != serve.StateDone || st.Result == nil {
			return "", fmt.Errorf("resubmitted finished spec came back %s without a result", st.State)
		}
		return fmt.Sprintf("%s %x", st.ID, math.Float64bits(st.Result.Speedup)), nil
	case "serve.status":
		st, err := s.cl.Get(ctx, s.ids[job])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %s %d", st.ID, st.State, st.Evaluations), nil
	case "serve.result":
		res, err := s.cl.Result(ctx, s.ids[job])
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s %x %v", res.Workload, math.Float64bits(res.Speedup), res.Validated), nil
	case "serve.list":
		sts, err := s.cl.List(ctx)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%d jobs", len(sts)), nil
	default: // obs.scrape
		resp, err := s.cl.HTTP.Get(s.cl.Base + "/metrics")
		if err != nil {
			return "", err
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			return "", err
		}
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("GET /metrics: HTTP %d", resp.StatusCode)
		}
		series := 0
		for _, line := range strings.Split(string(body), "\n") {
			if line != "" && !strings.HasPrefix(line, "#") {
				series++
			}
		}
		s.scrapeBytes.Store(int64(len(body)))
		s.scrapeSeries.Store(int64(series))
		return "scrape ok", nil
	}
}

func (s *serveReads) reads(n int, t *tally) {
	tr := s.e.tr
	round := tr.current()
	s.clients(n, func(i int) {
		id := tr.beginUnit(s.plan[i], round, true)
		t0 := time.Now()
		line, err := s.request(i)
		t.unit(time.Since(t0))
		tr.end(id)
		if err != nil {
			s.errors.Add(1)
		}
		t.op(s.plan[i], err)
		t.result(i, line)
	})
}

func (s *serveReads) warm(t *tally) { s.reads(s.e.z.readsWarm, t) }

func (s *serveReads) round(r int, t *tally) {
	s.aroundFirst(r, func() { s.reads(len(s.plan), t) })
	// The rounds only read: an evaluation here means a resubmitted spec
	// started a new search instead of answering from the finished job.
	if r == 0 {
		if n := s.firstRound["gevo_pool_evals_completed_total"]; n != 0 {
			t.op("reads ran no evaluations", fmt.Errorf("%v evaluations completed during the round", n))
		}
	}
	// Every search result the service holds, for best_speedup.
	sts, err := s.cl.List(context.Background())
	if err != nil {
		t.op("list", err)
		return
	}
	// Keyed by the job's place in the fixed spec list: the service lists
	// jobs in submission order, which the concurrent set-up does not fix.
	place := map[string]int{}
	for i, id := range s.ids {
		place[id] = i
	}
	for _, st := range sts {
		if i, ok := place[st.ID]; ok && st.Result != nil {
			t.search(len(s.plan)+i, st.Result.Speedup, st.Result.Validated, st.ID)
		}
	}
}

func (s *serveReads) targets() []workload.Workload { return synthTargets() }

func (s *serveReads) layer(m map[string]float64, spans []span) {
	s.served.layer(m, spans)
	m["obs.scrape_bytes"] = float64(s.scrapeBytes.Load())
	m["obs.series"] = float64(s.scrapeSeries.Load())
}
