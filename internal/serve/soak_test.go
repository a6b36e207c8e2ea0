package serve

import (
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"gevo/internal/obs"
	"gevo/internal/synth"
)

// soakSample is what a long-running service must not accumulate.
type soakSample struct {
	heap         uint64 // bytes live after GC
	goroutines   int
	fds          int // -1 where /proc/self/fd is unavailable
	files        int // regular files under the state directory
	journal      obs.JournalStats
	metricsBytes int // /metrics exposition size
}

func (s soakSample) String() string {
	return fmt.Sprintf("heap %.2f MB, %d goroutines, %d fds, %d files, journal %d records / %d bytes, /metrics %d bytes",
		float64(s.heap)/1e6, s.goroutines, s.fds, s.files, s.journal.Records, s.journal.Bytes, s.metricsBytes)
}

// TestSoakIsFlatInJobs runs 200 small synth jobs through one durable
// manager and checks that what the service holds at job 200 is what it held
// at job 20: the heap after GC, goroutines, open fds, files under the state
// directory and the /metrics exposition, with the flight recorder's
// journal within its byte budget throughout. The job table holds 8 finished
// jobs, so it is full by the first sample and neither sample carries an
// in-flight job, nor a ledger write or prune in flight (Manager.settle);
// what the tolerances leave room for is the journal filling its budget
// between the two samples, plus GC and scheduler noise.
func TestSoakIsFlatInJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("soak: 200 jobs")
	}
	dir := t.TempDir()
	m := openTest(t, Options{Dir: dir, CacheSize: 8, Registry: obs.NewRegistry()})
	ts := httptest.NewServer(NewServer(m))
	defer ts.Close()

	sample := func() soakSample {
		t.Helper()
		// The last job's terminal ledger write and the prune it queued run
		// on the persister after the job reads done: count after them.
		m.settle()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		// Idle HTTP connections are the client's, not the service's.
		http.DefaultClient.CloseIdleConnections()
		s := soakSample{metricsBytes: len(body), journal: m.Trace().Stats(), fds: -1}
		if ents, err := os.ReadDir("/proc/self/fd"); err == nil {
			s.fds = len(ents)
		}
		if err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
			if err == nil && d.Type().IsRegular() {
				s.files++
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.heap = ms.HeapAlloc
		s.goroutines = runtime.NumGoroutine()
		return s
	}

	fams := []string{"stencil1d", "reduce", "scan", "branchy"}
	var at20 soakSample
	for i := 0; i < 200; i++ {
		runToDone(t, m, JobSpec{
			Workload: fmt.Sprintf("%s%s:seed=%d:n=64", synth.Prefix, fams[i%len(fams)], 1+i/len(fams)),
			Demes:    2, Pop: 4, Generations: 4, MigrationInterval: 2, Seed: uint64(i + 1),
		})
		if st := m.Trace().Stats(); st.Bytes > st.Budget {
			t.Fatalf("job %d: journal holds %d bytes, budget %d", i+1, st.Bytes, st.Budget)
		}
		switch i + 1 {
		case 20:
			sample() // the first scrape brings the /metrics route's own series
			at20 = sample()
		case 200:
			at200 := sample()
			t.Logf("job 20:  %v", at20)
			t.Logf("job 200: %v", at200)
			if at200.journal.Dropped == 0 {
				t.Errorf("the journal never wrapped in 200 jobs; the soak does not reach steady state")
			}
			if limit := at20.heap + uint64(at200.journal.Budget) + 2<<20; at200.heap > limit {
				t.Errorf("heap grew from %d to %d bytes; allowed: the journal budget + 2 MiB", at20.heap, at200.heap)
			}
			if at200.goroutines > at20.goroutines+2 {
				t.Errorf("goroutines grew from %d to %d", at20.goroutines, at200.goroutines)
			}
			if at200.fds > at20.fds+2 {
				t.Errorf("open fds grew from %d to %d", at20.fds, at200.fds)
			}
			if at200.files > at20.files+2 {
				t.Errorf("files under the state directory grew from %d to %d", at20.files, at200.files)
			}
			// Counter values gain digits as they grow; series are never added.
			if at200.metricsBytes > at20.metricsBytes*11/10 {
				t.Errorf("/metrics grew from %d to %d bytes", at20.metricsBytes, at200.metricsBytes)
			}
		}
	}
}
