package serve

import (
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"gevo/internal/fault"
	"gevo/internal/obs"
)

// TestLedgerFaultRecovery injects a failure at every step of the atomic
// write protocol — torn write, disk full, failing sync, close and rename —
// and asserts the manager rides through all of them: jobs still finish,
// every failure lands in gevo_ledger_errors_total, the degraded state
// machine heals to ok, and a reopened manager recovers every job with its
// exact result (in particular, the torn write is invisible: the rename
// never happened, so the previous ledger generation is intact).
func TestLedgerFaultRecovery(t *testing.T) {
	dir := t.TempDir()
	inj := fault.MustNew(
		fault.Rule{Site: fault.SitePersistWrite, Kind: fault.KindTorn, Hits: []int64{1}},
		fault.Rule{Site: fault.SitePersistWrite, Kind: fault.KindFull, Hits: []int64{2}},
		fault.Rule{Site: fault.SitePersistSync, Kind: fault.KindError, Hits: []int64{1}},
		fault.Rule{Site: fault.SitePersistClose, Kind: fault.KindError, Hits: []int64{1}},
		fault.Rule{Site: fault.SitePersistRename, Kind: fault.KindError, Hits: []int64{1}},
	)
	m := openTest(t, Options{Dir: dir, Registry: obs.NewRegistry(), Inject: inj})

	results := map[string][]byte{}
	for _, seed := range []uint64{31, 32} {
		st, err := m.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		st = waitFor(t, m, st.ID, "done", isDone)
		blob, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		results[st.ID] = blob
	}

	// Every armed fault fired (all five steps of the protocol were hit) and
	// each one was counted as a durable-write failure.
	for _, c := range inj.Counts() {
		if c.Fired != c.Planned {
			t.Errorf("fault %s:%s fired %d of %d", c.Site, c.Kind, c.Fired, c.Planned)
		}
	}
	if n := m.ledgerErrors.Value(); n != 5 {
		t.Errorf("gevo_ledger_errors_total = %d, want 5", n)
	}
	if n := m.persistRetries.Value(); n == 0 {
		t.Error("no persist retries recorded despite injected failures")
	}

	// Degraded mode healed: the writes after the last armed fault succeed.
	deadline := time.Now().Add(10 * time.Second)
	for m.Health().Status != "ok" && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if h := m.Health(); h.Status != "ok" {
		t.Fatalf("health did not heal: %+v", h)
	}
	m.Close()

	// Failed writes removed their temp files, and committed ones left none.
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if name := d.Name(); strings.HasPrefix(name, ".tmp-") || strings.HasPrefix(name, ".checkpoint-") {
			t.Errorf("temp file left in the state directory: %s", path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// A clean reopen recovers every job as done with the identical result.
	m2 := openTest(t, Options{Dir: dir, Registry: obs.NewRegistry()})
	for id, want := range results {
		st, ok := m2.Get(id)
		if !ok {
			t.Fatalf("job %s lost across restart", id)
		}
		if st.State != StateDone {
			t.Fatalf("job %s recovered as %s, want done", id, st.State)
		}
		got, err := json.Marshal(st.Result)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("job %s result changed across faulted restart:\nbefore %s\nafter  %s", id, want, got)
		}
	}
}

// TestPersistBackoffIsCapped: the persister retries a failing ledger write
// without bound, so the backoff must hold its cap at any attempt count — an
// overflowing shift would turn it negative or zero and the retry loop into a
// busy loop against the failing disk.
func TestPersistBackoffIsCapped(t *testing.T) {
	prev := time.Duration(0)
	for attempt := 0; attempt <= 200; attempt++ {
		d := persistBackoff(attempt)
		if d < 5*time.Millisecond || d > 250*time.Millisecond {
			t.Fatalf("persistBackoff(%d) = %v, want within [5ms, 250ms]", attempt, d)
		}
		if d < prev {
			t.Fatalf("persistBackoff(%d) = %v, below attempt %d's %v", attempt, d, attempt-1, prev)
		}
		prev = d
	}
}

// TestPruneNeverHalfApplied: pruned job directories are removed only after
// the ledger that no longer lists them is durable. With every second write
// failing, prunes interleave with ledger failures; the invariant is that a
// reopened manager never finds a ledger-listed done job whose result file
// was already deleted (which would silently requeue and re-run it).
func TestPruneNeverHalfApplied(t *testing.T) {
	dir := t.TempDir()
	inj := fault.MustNew(
		fault.Rule{Site: fault.SitePersistRename, Kind: fault.KindError, Every: 2},
	)
	m := openTest(t, Options{Dir: dir, CacheSize: 1, Registry: obs.NewRegistry(), Inject: inj})

	for _, seed := range []uint64{41, 42, 43} {
		st, err := m.Submit(testSpec(seed))
		if err != nil {
			t.Fatal(err)
		}
		waitFor(t, m, st.ID, "done", isDone)
	}
	m.Close()

	m2 := openTest(t, Options{Dir: dir, CacheSize: 1, Registry: obs.NewRegistry()})
	for _, st := range m2.List() {
		if st.State != StateDone || st.Result == nil {
			t.Errorf("job %s recovered as %s (result %v): a prune was half-applied",
				st.ID, st.State, st.Result != nil)
		}
	}
	if len(m2.List()) == 0 {
		t.Fatal("ledger recovered empty")
	}
}

// TestCheckpointCorruptionQuarantine drives Manager.openSearch over the
// three ways a checkpoint file goes bad — truncated mid-document, replaced
// with garbage, written by a different format version — and asserts each
// is quarantined (renamed aside, counted, warned on the job) and the
// search restarts from the spec to the exact fault-free result.
func TestCheckpointCorruptionQuarantine(t *testing.T) {
	// The fault-free reference result for the spec below.
	ref := openTest(t, Options{Registry: obs.NewRegistry()})
	// crashSpec, not a 12-generation testSpec: the manager is closed once
	// the job is seen past generation 4, and 12 generations left only
	// 23-35 ms between that and the job finishing, which a starved poller
	// missed (then nothing reopens the checkpoint and the counter stays 0).
	spec := crashSpec(51)
	rst, err := ref.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	rst = waitFor(t, ref, rst.ID, "done", isDone)
	want, err := json.Marshal(rst.Result)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
	}{
		{"truncated", func(t *testing.T, path string) {
			blob, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, blob[:len(blob)/2], 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte("\x00not json at all"), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"version-skew", func(t *testing.T, path string) {
			if err := os.WriteFile(path, []byte(`{"version": 99}`), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m := openTest(t, Options{Dir: dir, Registry: obs.NewRegistry()})
			st, err := m.Submit(spec)
			if err != nil {
				t.Fatal(err)
			}
			// Let the search checkpoint at least twice, then stop mid-job.
			waitFor(t, m, st.ID, "gen>=4", func(st JobStatus) bool { return st.Gen >= 4 })
			m.Close()

			tc.corrupt(t, checkpointPath(dir, st.ID))

			m2 := openTest(t, Options{Dir: dir, Registry: obs.NewRegistry()})
			fin := waitFor(t, m2, st.ID, "done", isDone)
			got, err := json.Marshal(fin.Result)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(want) {
				t.Errorf("restart from quarantined checkpoint diverged:\nwant %s\ngot  %s", want, got)
			}
			if n := m2.ckptCorrupt.Value(); n != 1 {
				t.Errorf("gevo_serve_checkpoint_corrupt_total = %d, want 1", n)
			}
			if len(fin.Warnings) != 1 || !strings.Contains(fin.Warnings[0], "quarantined") {
				t.Errorf("job warnings = %q, want one quarantine note", fin.Warnings)
			}
			if _, err := os.Stat(checkpointPath(dir, st.ID) + ".corrupt"); err != nil {
				t.Errorf("corrupt checkpoint not preserved aside: %v", err)
			}
		})
	}
}

// TestSubmitSheds pins the admission-control contract: only the creation
// of a new job is bounded — dedup attachments and resubmissions of live
// specs always get through — and capacity freed by a finished job admits
// the next submission.
func TestSubmitSheds(t *testing.T) {
	m := openTest(t, Options{MaxActiveJobs: 1, Registry: obs.NewRegistry()})

	st1, err := m.Submit(testSpec(61))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.Submit(testSpec(62))
	var over *OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("second spec: err = %v, want *OverloadedError", err)
	}
	if over.Active != 1 || over.Max != 1 {
		t.Errorf("OverloadedError = %+v", over)
	}
	// Dedup attachment to the live job is always admitted.
	if _, err := m.Submit(testSpec(61)); err != nil {
		t.Fatalf("dedup submission shed: %v", err)
	}

	waitFor(t, m, st1.ID, "done", isDone)
	if _, err := m.Submit(testSpec(62)); err != nil {
		t.Fatalf("submission after capacity freed: %v", err)
	}
	if v := m.Metrics().Value("gevo_serve_shed_total"); v != 1 {
		t.Errorf("gevo_serve_shed_total = %v, want 1", v)
	}
}
