package serve

import (
	"encoding/json"
	"os"
	"sync"
	"testing"
	"time"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/island"
	"gevo/internal/obs"
	"gevo/internal/workload"
)

// waitLedgered polls the ledger on disk until it records job id in state.
func waitLedgered(t *testing.T, dir, id string, state State) {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		jobs, err := loadLedger(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, lj := range jobs {
			if lj.ID == id && lj.State == state {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("the ledger never recorded job %s as %s", id, state)
}

// settledLedgerWrites returns the ledger write count once the persister has
// gone quiet: nothing marked dirty and the count unchanged for 100 ms.
func settledLedgerWrites(m *Manager) int64 {
	last, since := m.ledgerWrites.Value(), time.Now()
	for time.Since(since) < 100*time.Millisecond {
		time.Sleep(5 * time.Millisecond)
		if n := m.ledgerWrites.Value(); n != last || len(m.dirty) > 0 {
			last, since = n, time.Now()
		}
	}
	return last
}

// rewriteLedger rewrites every ledger entry the way edit says, standing in
// for a crash that kept a later ledger write from landing.
func rewriteLedger(t *testing.T, dir string, edit func(*ledgerJob)) {
	t.Helper()
	jobs, err := loadLedger(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := range jobs {
		edit(&jobs[i])
	}
	if err := saveLedger(fsio{}, dir, jobs); err != nil {
		t.Fatal(err)
	}
}

// TestDurableWritesFollowRecovery pins the write budget: the ledger is
// written when something recovery reads changes — a job's creation, a
// requeue, a terminal state — and never for a resubmit, the running state
// or slice progress; the last slice writes no checkpoint.
func TestDurableWritesFollowRecovery(t *testing.T) {
	dir := t.TempDir()
	m := openTest(t, Options{Dir: dir, Registry: obs.NewRegistry()})

	spec := testSpec(71)
	st := runToDone(t, m, spec)
	waitLedgered(t, dir, st.ID, StateDone)
	if n := settledLedgerWrites(m); n > 2 {
		t.Errorf("a job run to done wrote the ledger %d times, want at most 2 (creation, done)", n)
	}
	cp, err := island.Load(checkpointPath(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	if want := spec.Generations - spec.MigrationInterval; cp.Gen != want {
		t.Errorf("checkpoint at generation %d, want the second-to-last slice's %d", cp.Gen, want)
	}

	before := settledLedgerWrites(m)
	for i := 0; i < 20; i++ {
		if again, err := m.Submit(spec); err != nil || again.State != StateDone {
			t.Fatalf("resubmit %d: state %s, err %v", i, again.State, err)
		}
	}
	if n := settledLedgerWrites(m) - before; n != 0 {
		t.Errorf("20 resubmits of a done spec wrote the ledger %d times, want 0", n)
	}

	long := testSpec(72)
	long.Generations = 10000 // never finishes within the test
	ls, err := m.Submit(long)
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, ls.ID, "progress", func(s JobStatus) bool { return s.Gen > 0 })
	if _, err := m.Cancel(ls.ID); err != nil {
		t.Fatal(err)
	}
	waitLedgered(t, dir, ls.ID, StateCancelled)
	before = settledLedgerWrites(m)
	if again, err := m.Submit(long); err != nil || again.State.Terminal() {
		t.Fatalf("requeue of the cancelled spec: state %s, err %v", again.State, err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for m.ledgerWrites.Value() == before && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if m.ledgerWrites.Value() == before {
		t.Error("requeueing a cancelled spec did not write the ledger")
	}

	// A restarted manager claims the requeued job and runs its slices
	// without a ledger write: running and progress are not recorded.
	m.Close()
	cp, err = island.Load(checkpointPath(dir, ls.ID))
	if err != nil {
		t.Fatal(err)
	}
	m2 := openTest(t, Options{Dir: dir, Registry: obs.NewRegistry()})
	waitFor(t, m2, ls.ID, "four resumed slices", func(s JobStatus) bool {
		return s.Gen >= cp.Gen+4*long.MigrationInterval
	})
	if n := m2.ledgerWrites.Value(); n != 0 {
		t.Errorf("claiming a recovered job and running four slices wrote the ledger %d times, want 0", n)
	}
}

// TestLostTerminalLedgerWriteReplaysLastSlice reopens a finished job's state
// directory as a crash after its last slice leaves it when neither the
// result document nor the terminal ledger write landed: the ledger still
// holds the creation record, queued at generation 0, and result.json is
// missing. The job replays exactly its last slice from the previous
// checkpoint to a byte-identical result.
func TestLostTerminalLedgerWriteReplaysLastSlice(t *testing.T) {
	dir := t.TempDir()
	m := openTest(t, Options{Dir: dir})
	st := runToDone(t, m, testSpec(73))
	m.Close()
	want, err := json.Marshal(st.Result)
	if err != nil {
		t.Fatal(err)
	}
	rewriteLedger(t, dir, func(lj *ledgerJob) {
		lj.State, lj.Gen, lj.StartedUnixMs, lj.DoneUnixMs = StateQueued, 0, 0, 0
	})
	if err := os.Remove(resultPath(dir, st.ID)); err != nil {
		t.Fatal(err)
	}

	m2 := openTest(t, Options{Dir: dir})
	again := waitFor(t, m2, st.ID, "done after replay", isDone)
	got, err := json.Marshal(again.Result)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("replayed result differs:\nwant %s\ngot  %s", want, got)
	}
	costs, err := m2.Costs(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if costs.Slices != 1 {
		t.Errorf("the reopened manager ran %d slices, want only the last one", costs.Slices)
	}
}

// gatedWorkload holds every evaluation until release is closed and closes
// entered at the first one, so a test can look at a job between its search
// opening and its first slice ending.
type gatedWorkload struct {
	workload.Workload
	once             *sync.Once
	entered, release chan struct{}
}

func (g gatedWorkload) Evaluate(m *ir.Module, arch *gpu.Arch) (float64, error) {
	g.once.Do(func() { close(g.entered) })
	<-g.release
	return g.Workload.Evaluate(m, arch)
}

// TestResumedJobReportsCheckpointGeneration pins that a job resumed after a
// kill -9 reports its checkpoint's generation as soon as its search opens,
// not the ledger's generation 0 until its first resumed slice ends.
func TestResumedJobReportsCheckpointGeneration(t *testing.T) {
	dir := t.TempDir()
	m := openTest(t, Options{Dir: dir})
	st, err := m.Submit(crashSpec(74))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, m, st.ID, "gen>=4", func(s JobStatus) bool { return s.Gen >= 4 })
	m.Close()
	cp, err := island.Load(checkpointPath(dir, st.ID))
	if err != nil {
		t.Fatal(err)
	}
	// What a kill -9 leaves of the ledger: the creation record.
	rewriteLedger(t, dir, func(lj *ledgerJob) { lj.State, lj.Gen = StateQueued, 0 })

	var once sync.Once
	entered, release := make(chan struct{}), make(chan struct{})
	defer close(release) // before the cleanup's Close waits for the slice
	m2 := openTest(t, Options{Dir: dir, Workloads: func(name string) (workload.Workload, error) {
		w, err := tinyWorkloads(name)
		return gatedWorkload{w, &once, entered, release}, err
	}})
	select {
	case <-entered:
	case <-time.After(60 * time.Second):
		t.Fatal("the resumed search never evaluated")
	}
	if got, _ := m2.Get(st.ID); got.Gen != cp.Gen {
		t.Errorf("resumed job reports generation %d during its first slice, want its checkpoint's %d", got.Gen, cp.Gen)
	}
}
