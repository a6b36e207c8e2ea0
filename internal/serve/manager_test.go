package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"weak"

	"gevo/internal/island"
	"gevo/internal/obs"
	"gevo/internal/synth"
	"gevo/internal/workload"
)

// tinyWorkloads resolves registry names to miniature datasets (the island
// tests' configurations), so the scheduler and durability machinery are
// exercised without paying for the standard datasets — essential under
// -race, where each simulated evaluation is an order of magnitude slower.
func tinyWorkloads(name string) (workload.Workload, error) {
	return workload.ByNameWith(name, workload.Options{
		ADEPT:  &workload.ADEPTOptions{Seed: 11, FitPairs: 1, HoldoutPairs: 1, RefLen: 48, QueryLen: 32},
		SIMCoV: &workload.SIMCoVOptions{Seed: 3, W: 32, H: 8, Steps: 4, LargeW: 32, LargeH: 16},
	})
}

// openTest opens a manager on tiny workloads (unless opts names its own).
func openTest(t *testing.T, opts Options) *Manager {
	t.Helper()
	if opts.Workloads == nil {
		opts.Workloads = tinyWorkloads
	}
	m, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// testSpec is a small but real search: 2 demes, 3 migration rounds.
func testSpec(seed uint64) JobSpec {
	return JobSpec{
		Workload: "adept-v0", Demes: 2, Pop: 4,
		Generations: 6, MigrationInterval: 2, MigrationSize: 1,
		MutationRate: f64(0.5), CrossoverRate: f64(0.8), Seed: seed,
	}
}

// crashSpec gives the kill-and-restart test a longer budget (20 rounds):
// the kill is triggered as soon as both jobs clear one round, so tens of
// remaining rounds guarantee it lands mid-search at any machine speed.
func crashSpec(seed uint64) JobSpec {
	sp := testSpec(seed)
	sp.Generations = 40
	return sp
}

// waitFor polls a job until pred holds, failing the test on timeout.
func waitFor(t *testing.T, m *Manager, id string, what string, pred func(JobStatus) bool) JobStatus {
	t.Helper()
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		st, ok := m.Get(id)
		if ok && pred(st) {
			return st
		}
		time.Sleep(5 * time.Millisecond)
	}
	st, _ := m.Get(id)
	t.Fatalf("timeout waiting for job %s %s (state %s gen %d err %q)", id, what, st.State, st.Gen, st.Error)
	return JobStatus{}
}

func isDone(st JobStatus) bool     { return st.State == StateDone }
func isTerminal(st JobStatus) bool { return st.State.Terminal() }

// TestManagerGolden pins the spec→search mapping: a job run through the
// manager produces exactly the result of driving the equivalent island
// search directly.
func TestManagerGolden(t *testing.T) {
	m := openTest(t, Options{})
	spec := testSpec(1)
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	st = waitFor(t, m, st.ID, "done", isDone)
	if st.Result == nil {
		t.Fatal("done job has no result")
	}

	w, err := tinyWorkloads("adept-v0")
	if err != nil {
		t.Fatal(err)
	}
	ref := testSpec(1)
	ref.Normalize()
	cfg, err := ref.islandConfig(nil)
	if err != nil {
		t.Fatal(err)
	}
	s, err := island.New(w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if st.Result.BestMs != res.Best.Fitness || st.Result.Speedup != res.Speedup ||
		st.Result.BaseMs != res.BaseFitness || st.Result.BestDeme != res.BestDeme ||
		st.Result.Migrations != res.Migrations {
		t.Errorf("manager result %+v != direct island result best %.6f (%.3fx) deme %d",
			st.Result, res.Best.Fitness, res.Speedup, res.BestDeme)
	}
	if len(st.Result.Genome) != len(res.Best.Genome) {
		t.Fatalf("genome length %d != %d", len(st.Result.Genome), len(res.Best.Genome))
	}
	for i, e := range res.Best.Genome {
		if st.Result.Genome[i] != e.String() {
			t.Errorf("genome edit %d: %q != %q", i, st.Result.Genome[i], e.String())
		}
	}
}

// TestSingleFlight is an acceptance criterion: two identical specs
// submitted concurrently coalesce into one search and both callers get the
// result.
func TestSingleFlight(t *testing.T) {
	m := openTest(t, Options{})

	spec := testSpec(2)
	var wg sync.WaitGroup
	ids := make([]string, 8)
	for i := range ids {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := m.Submit(testSpec(2))
			if err != nil {
				t.Error(err)
				return
			}
			ids[i] = st.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("identical specs got different jobs: %s vs %s", id, ids[0])
		}
	}
	st := waitFor(t, m, ids[0], "done", isDone)
	if st.Submits != len(ids) {
		t.Errorf("submits = %d, want %d", st.Submits, len(ids))
	}
	if st.Result == nil {
		t.Error("coalesced job has no result")
	}

	// A later identical submission answers instantly from the job record.
	again, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if again.State != StateDone || again.Result == nil {
		t.Errorf("resubmission of finished spec: state %s, result %v", again.State, again.Result)
	}

	// Only one search ran: the manager saw ~one job's worth of distinct
	// evaluations, not eight (generous bound — breeding overlap varies).
	if c := m.pool.Stats().Completed; c > 200 {
		t.Errorf("pool completed %d evaluations; single-flight should have run one search", c)
	}
}

// runToDone submits spec and waits for its job to finish.
func runToDone(t *testing.T, m *Manager, spec JobSpec) JobStatus {
	t.Helper()
	st, err := m.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	return waitFor(t, m, st.ID, "done", isDone)
}

// TestCacheHit pins the job table as the result cache: resubmitting a
// finished spec attaches to its retained done record, which answers with
// the same result and without a simulation.
func TestCacheHit(t *testing.T) {
	m := openTest(t, Options{})
	a := runToDone(t, m, testSpec(3))

	sims := m.pool.Stats().Completed
	again, err := m.Submit(testSpec(3))
	if err != nil {
		t.Fatal(err)
	}
	if again.ID != a.ID || again.State != StateDone || !reflect.DeepEqual(again.Result, a.Result) {
		t.Fatalf("resubmission answered job %s state %s result %+v; want done record %s",
			again.ID, again.State, again.Result, a.ID)
	}
	if again.Submits != 2 {
		t.Errorf("submits = %d, want 2", again.Submits)
	}
	if n := m.pool.Stats().Completed - sims; n != 0 {
		t.Errorf("answering the done record ran %d simulations", n)
	}
}

// TestResultCacheLRU pins the eviction order and refresh-on-use of
// terminal-record pruning: past CacheSize the least recently submitted
// terminal record is pruned, a resubmission refreshes a record's recency,
// and a pruned spec re-runs to a byte-identical result.
func TestResultCacheLRU(t *testing.T) {
	m := openTest(t, Options{CacheSize: 2})
	a, b := runToDone(t, m, testSpec(3)), runToDone(t, m, testSpec(13))
	if _, err := m.Submit(testSpec(3)); err != nil { // a is now more recent than b
		t.Fatal(err)
	}
	c := runToDone(t, m, testSpec(23))
	if _, ok := m.Get(b.ID); ok {
		t.Fatal("b survived the prune despite being the least recently submitted")
	}
	for _, id := range []string{a.ID, c.ID} {
		if _, ok := m.Get(id); !ok {
			t.Fatalf("record %s pruned; only b should be", id)
		}
	}

	rerun := runToDone(t, m, testSpec(13))
	if rerun.Submits != 1 {
		t.Errorf("pruned b re-ran as a record with %d submits, want a new record", rerun.Submits)
	}
	want, _ := json.Marshal(b.Result)
	got, _ := json.Marshal(rerun.Result)
	if !bytes.Equal(got, want) {
		t.Errorf("re-run of pruned b differs:\n%s\n%s", got, want)
	}
}

// TestExpositionSizeIsFlatInJobs pins that /metrics carries no per-job
// series: the exposition has as many sample lines after three finished jobs
// as after one. Per-job totals are /jobs/{id}/costs'. Jobs go through the
// manager, not HTTP, so the only route with series of its own is the scrape.
func TestExpositionSizeIsFlatInJobs(t *testing.T) {
	m := openTest(t, Options{Registry: obs.NewRegistry()})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()
	samples := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		n := 0
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			if line := sc.Text(); line != "" && !strings.HasPrefix(line, "#") {
				if strings.Contains(line, `job="`) {
					t.Errorf("per-job series on /metrics: %s", line)
				}
				n++
			}
		}
		return n
	}
	finish := func(seed uint64) {
		t.Helper()
		st, err := m.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, m, st.ID, "done", isDone)
	}
	finish(51)
	samples() // the first scrape brings the /metrics route's own series
	one := samples()
	finish(52)
	finish(53)
	if three := samples(); three != one {
		t.Errorf("/metrics has %d sample lines after three finished jobs, %d after one", three, one)
	}
}

// TestCorruptResultResumesOnLedgerTrace reopens a state directory whose done
// job lost its result document: the job re-runs like an interrupted one,
// under a root span on the ledgered trace, so its costs document and every
// slice it runs stay on the trace the submitter started.
func TestCorruptResultResumesOnLedgerTrace(t *testing.T) {
	dir := t.TempDir()
	m := openTest(t, Options{Dir: dir})
	st, err := m.Submit(testSpec(7))
	if err != nil {
		t.Fatal(err)
	}
	st = waitFor(t, m, st.ID, "done", isDone)
	m.Close()
	if st.Trace == "" {
		t.Fatal("job has no trace")
	}
	if err := os.WriteFile(resultPath(dir, st.ID), []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}

	m2 := openTest(t, Options{Dir: dir})
	again := waitFor(t, m2, st.ID, "done after requeue", isDone)
	if !reflect.DeepEqual(again.Result, st.Result) {
		t.Errorf("recomputed result differs:\n%+v\n%+v", again.Result, st.Result)
	}
	costs, err := m2.Costs(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if costs.Trace != st.Trace || costs.Span == "" || costs.Slices == 0 {
		t.Errorf("costs doc %+v, want a root span and slices on trace %s", costs, st.Trace)
	}
	var buf bytes.Buffer
	if err := m2.Trace().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name  string            `json:"name"`
		Phase string            `json:"ph"`
		Args  map[string]string `json:"args"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	slices := 0
	for _, ev := range events {
		if ev.Phase == "X" && ev.Name == "slice" && ev.Args["job"] == st.ID {
			slices++
			if ev.Args["trace"] != st.Trace {
				t.Errorf("slice on trace %s, want the ledgered %s", ev.Args["trace"], st.Trace)
			}
		}
	}
	if slices == 0 {
		t.Error("the requeued job ran no slice in the reopened manager")
	}
}

// TestFinishedJobReleasesItsWorkload pins that a job's record is the only
// thing that outlives its search: once distinct jobs are done, nothing the
// manager or its pool keeps still reaches the workload instances they ran on.
func TestFinishedJobReleasesItsWorkload(t *testing.T) {
	var mu sync.Mutex
	var built []weak.Pointer[synth.Workload]
	m, err := Open(Options{Workloads: func(name string) (workload.Workload, error) {
		w, err := workload.ByName(name)
		if sw, ok := w.(*synth.Workload); ok {
			mu.Lock()
			built = append(built, weak.Make(sw))
			mu.Unlock()
		}
		return w, err
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	var ids []string
	for i, fam := range []string{"stencil1d", "reduce", "stencil1d", "reduce"} {
		st, err := m.Submit(JobSpec{
			Workload: fmt.Sprintf("synth:%s:seed=%d:n=64", fam, i+1), Demes: 2, Pop: 4,
			Generations: 4, MigrationInterval: 2, Seed: uint64(i + 1),
		})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, st.ID)
	}
	for _, id := range ids {
		waitFor(t, m, id, "done", isDone)
	}
	runtime.GC()
	runtime.GC()
	mu.Lock()
	defer mu.Unlock()
	if len(built) < len(ids) {
		t.Fatalf("factory built %d synth instances for %d jobs", len(built), len(ids))
	}
	for i, p := range built {
		if p.Value() != nil {
			t.Errorf("workload instance %d still reachable after its job finished", i)
		}
	}
}

// TestCancel covers both cancellation paths: a queued job cancels
// immediately, a running one at its next slice boundary; resubmission
// requeues it.
func TestCancel(t *testing.T) {
	m := openTest(t, Options{})
	long := testSpec(4)
	long.Generations = 10000 // never finishes within the test
	st, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, st.ID, "progress", func(s JobStatus) bool { return s.Gen > 0 })
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	st = waitFor(t, m, st.ID, "cancelled", isTerminal)
	if st.State != StateCancelled {
		t.Fatalf("state %s, want cancelled", st.State)
	}
	if _, err := m.Cancel("jdeadbeef00000000"); err == nil {
		t.Error("cancelling unknown job succeeded")
	}

	// Resubmission revives the job.
	st2, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	if st2.ID != st.ID || st2.State.Terminal() {
		t.Fatalf("resubmitted cancelled job: id %s state %s", st2.ID, st2.State)
	}
	if _, err := m.Cancel(st.ID); err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, st.ID, "cancelled again", isTerminal)
}

// TestEvents checks the progress stream: monotonically advancing
// per-generation points ending in a terminal event.
func TestEvents(t *testing.T) {
	m := openTest(t, Options{})
	spec := testSpec(5)
	spec.Normalize()
	ch, cancel := m.Subscribe(jobID(spec.Key()))
	defer cancel()
	if _, err := m.Submit(spec); err != nil {
		t.Fatal(err)
	}

	lastGen := 0
	progress := 0
	for ev := range ch {
		switch ev.Type {
		case "progress":
			progress++
			for _, p := range ev.Gens {
				if p.Gen <= lastGen {
					t.Errorf("generation points regressed: %d after %d", p.Gen, lastGen)
				}
				lastGen = p.Gen
			}
		case string(StateDone):
			if ev.Job.Result == nil {
				t.Error("done event without result")
			}
			if progress == 0 {
				t.Error("no progress events before done")
			}
			return
		default:
			t.Fatalf("unexpected event %q", ev.Type)
		}
	}
	t.Fatal("event channel closed before terminal event")
}

// TestCrashResume is the headline acceptance criterion: a manager killed
// with two jobs in flight (durable state only — no graceful flush beyond
// what every slice already wrote) resumes both on reopen and finishes with
// results bit-identical to an uninterrupted manager run of the same specs.
func TestCrashResume(t *testing.T) {
	specs := []JobSpec{crashSpec(11), crashSpec(12)}

	// Uninterrupted reference run (both jobs in flight together, like the
	// interrupted run).
	ref := make(map[uint64]*JobResult)
	{
		m := openTest(t, Options{Dir: t.TempDir()})
		refIDs := make([]string, len(specs))
		for i, sp := range specs {
			st, err := m.Submit(sp)
			if err != nil {
				t.Fatal(err)
			}
			refIDs[i] = st.ID
		}
		for i, id := range refIDs {
			st := waitFor(t, m, id, "done", isDone)
			ref[specs[i].Seed] = st.Result
		}
		m.Close()
	}

	// Interrupted run: same specs, killed once both jobs are mid-search.
	dir := t.TempDir()
	m := openTest(t, Options{Dir: dir})
	ids := make([]string, len(specs))
	for i, sp := range specs {
		st, err := m.Submit(sp)
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = st.ID
	}
	for _, id := range ids {
		waitFor(t, m, id, "progress", func(s JobStatus) bool { return s.Gen > 0 || s.State.Terminal() })
	}
	// "Kill": stop executors without any terminal flush — Close writes
	// nothing the slices have not already persisted, so reopening the
	// directory is exactly the kill -9 picture (the cross-process kill -9
	// variant runs in CI's serve-smoke job).
	m.Close()

	inFlight := 0
	for _, id := range ids {
		if st, ok := m.Get(id); ok && !st.State.Terminal() {
			inFlight++
		}
	}
	if inFlight < 2 {
		t.Fatalf("only %d jobs in flight at kill; want 2 (test raced to completion)", inFlight)
	}

	// The durable picture at kill time: both jobs mid-flight in the ledger.
	ledgered, err := loadLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ledgered) != 2 {
		t.Fatalf("ledger has %d jobs, want 2", len(ledgered))
	}
	for _, lj := range ledgered {
		if lj.State.Terminal() {
			t.Fatalf("job %s terminal (%s) in ledger at kill time", lj.ID, lj.State)
		}
	}

	m2 := openTest(t, Options{Dir: dir})
	for i, id := range ids {
		if _, ok := m2.Get(id); !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		st := waitFor(t, m2, id, "done after resume", isDone)
		if !reflect.DeepEqual(st.Result, ref[specs[i].Seed]) {
			t.Errorf("job %s (seed %d): resumed result differs from uninterrupted run:\n%+v\n%+v",
				id, specs[i].Seed, st.Result, ref[specs[i].Seed])
		}
		if st.Gen < specs[i].Generations {
			t.Errorf("job %s finished at gen %d, want %d", id, st.Gen, specs[i].Generations)
		}
	}
}
