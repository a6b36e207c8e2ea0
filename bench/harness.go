package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"gevo/internal/workload"
)

// env is what a workload's set-up receives. The program under test sees
// only the inputs generated from it.
type env struct {
	// seed drives the generated inputs: the paper applications' datasets and
	// the order in which searches, jobs and requests are issued.
	seed uint64
	// p is the parallelism of everything the workload drives: pool workers,
	// serve executors, client goroutines.
	p int
	// z holds the workloads' size constants.
	z sizes
	// dir is an empty scratch directory owned by this set-up.
	dir string
	// tr is the span recorder of the traced run; nil in the timed run, where
	// workloads are handed to the program undecorated.
	tr     *tracer
	counts *evalCounts
}

// wrap decorates w in the traced run and returns it unchanged otherwise.
func (e *env) wrap(w workload.Workload) workload.Workload {
	if e.tr == nil {
		return w
	}
	return wrapTraced(w, e.tr, e.counts)
}

// instance is one set-up of a workload, ready to run rounds.
type instance interface {
	// warm runs a short pass over every code path a round uses, so lazy
	// initialisation (device pools, HTTP connections, first compiles) is
	// paid during set-up.
	warm(t *tally)
	// round runs the workload's fixed unit of work. r counts rounds from 0
	// since set-up; workloads whose rounds must not repeat derive their
	// inputs from it.
	round(r int, t *tally)
	// targets returns the undecorated workloads the layer probes run on.
	targets() []workload.Workload
	// layer adds the workload's own per-layer metrics to m (traced run).
	layer(m map[string]float64, spans []span)
	close()
}

// workloadDef describes one benchmark workload.
type workloadDef struct {
	name string
	// unit names the user-visible step whose latency is reported.
	unit string
	// serial says the workload drives one goroutine, not P.
	serial bool
	// minRounds is the fewest timed rounds a run measures, whatever
	// -seconds says; the retained heap is read after exactly this many, so
	// it measures the same amount of accumulated state on every run.
	minRounds int
	// maxRounds, when set, caps the timed rounds. A workload whose rounds
	// differ and whose cost grows with the state it accumulates sets it
	// equal to minRounds, so every run measures the same rounds.
	maxRounds int
	// sameRounds says every round does identical work, so every round must
	// produce the same result digest.
	sameRounds bool
	// tail is the unit-latency percentile reported as unit_tail_ms, fixed
	// per workload so runs of different length report the same statistic.
	// minRounds is chosen so that at least minBeyond samples lie beyond it.
	tail  float64
	build func(e *env) (instance, error)
}

// tally collects what rounds produce. Methods are safe for concurrent use;
// results are digested in index order, not arrival order.
type tally struct {
	mu sync.Mutex
	// units holds unit latencies in ms; guarded by mu.
	units []float64
	// attempted and failed count operations; guarded by mu.
	attempted, failed int
	// failures keeps the first few failure messages; guarded by mu.
	failures []string
	// results holds one line per produced result, keyed by a caller-chosen
	// index so the digest does not depend on arrival order; guarded by mu.
	results map[int]string
	// logBest and logRaw sum log speedups over searches: validated (a
	// winner failing held-out validation counts as 1.0) and raw; guarded
	// by mu.
	logBest, logRaw     float64
	searches, validated int
	// exact counts; guarded by mu.
	evals, fitnessHits, checkpointBytes int64
}

func newTally() *tally { return &tally{results: map[int]string{}} }

func (t *tally) unit(d time.Duration) {
	t.mu.Lock()
	t.units = append(t.units, float64(d)/float64(time.Millisecond))
	t.mu.Unlock()
}

// op records one attempted operation and, when err is non-nil, its failure.
func (t *tally) op(what string, err error) {
	t.mu.Lock()
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.failures) < maxFailures {
			t.failures = append(t.failures, what+": "+err.Error())
		}
	}
	t.mu.Unlock()
}

// search records one finished search: its raw speedup and whether the
// winner passed held-out validation.
func (t *tally) search(idx int, raw float64, valid bool, line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.searches++
	if raw > 0 {
		t.logRaw += math.Log(raw)
	}
	if valid && raw > 0 {
		t.validated++
		t.logBest += math.Log(raw)
	}
	t.results[idx] = line
}

func (t *tally) result(idx int, line string) {
	t.mu.Lock()
	t.results[idx] = line
	t.mu.Unlock()
}

func (t *tally) count(evals, hits, cpBytes int64) {
	t.mu.Lock()
	t.evals += evals
	t.fitnessHits += hits
	t.checkpointBytes += cpBytes
	t.mu.Unlock()
}

// outcome is a plain copy of what a tally collected, for the harness to
// read and merge once the goroutines feeding the tally are done.
type outcome struct {
	units               []float64
	attempted, failed   int
	failures            []string
	digest              string
	bestSpeedup         float64
	rawSpeedup          float64
	searches, validated int

	evals, fitnessHits, checkpointBytes int64
}

// outcome snapshots the tally; results are digested in index order.
func (t *tally) outcome() outcome {
	t.mu.Lock()
	defer t.mu.Unlock()
	idx := make([]int, 0, len(t.results))
	for i := range t.results {
		idx = append(idx, i)
	}
	sort.Ints(idx)
	h := sha256.New()
	for _, i := range idx {
		fmt.Fprintf(h, "%d\t%s\n", i, t.results[i])
	}
	return outcome{
		units:     append([]float64(nil), t.units...),
		attempted: t.attempted, failed: t.failed,
		failures:    append([]string(nil), t.failures...),
		digest:      hex.EncodeToString(h.Sum(nil)[:12]),
		bestSpeedup: geomean(t.logBest, t.searches),
		rawSpeedup:  geomean(t.logRaw, t.searches),
		searches:    t.searches, validated: t.validated,
		evals: t.evals, fitnessHits: t.fitnessHits, checkpointBytes: t.checkpointBytes,
	}
}

// add merges a later round's units and operation counts into o.
func (o *outcome) add(r outcome) {
	o.units = append(o.units, r.units...)
	o.attempted += r.attempted
	o.failed += r.failed
	o.failures = append(o.failures, r.failures...)
}

// fail records one failed check of the harness's own.
func (o *outcome) fail(what string, err error) {
	o.attempted++
	o.failed++
	o.failures = append(o.failures, what+": "+err.Error())
}

// fold merges round r's outcome into all. Round 0's is kept as first; where
// every round is the same fixed-seed work, each later round must reproduce
// its result digest.
func fold(def *workloadDef, r int, out outcome, first, all *outcome) {
	all.add(out)
	if r == 0 {
		*first = out
	} else if def.sameRounds && out.digest != first.digest {
		all.fail("exactness", fmt.Errorf("round %d digest %s differs from round 0 digest %s", r, out.digest, first.digest))
	}
}

// maxFailures is how many failure messages a report keeps.
const maxFailures = 8

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's high-water resident set (Linux reports KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// liveHeapMB is what the process retains: the heap in use after collection.
// Two cycles, because sync.Pool contents survive the first.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is what one run of one workload produced.
type report struct {
	Workload  string            `json:"workload"`
	Trace     bool              `json:"trace"`
	Seed      uint64            `json:"seed"`
	P         int               `json:"p"`
	Lanes     int               `json:"lanes"`
	Unit      string            `json:"unit"`
	Rounds    int               `json:"rounds"`
	Units     int               `json:"units"`
	Tail      string            `json:"tail"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FailShare float64           `json:"fail_share"`
	Failures  []string          `json:"failures,omitempty"`
	Digest    string            `json:"digest"`
	Metrics   map[string]metric `json:"metrics"`
	Budget    []budgetLine      `json:"budget,omitempty"`
	TraceFile string            `json:"trace_file,omitempty"`
	// Timed run: the run's pace in wall and CPU time, and the raw seconds
	// of every set-up, round and reference sample behind the medians.
	PaceWall float64              `json:"pace_wall,omitempty"`
	PaceCPU  float64              `json:"pace_cpu,omitempty"`
	Series   map[string][]float64 `json:"series,omitempty"`
}

// scratchDir makes an empty directory for one set-up under the run's root.
func scratchDir(root string, n int) (string, error) {
	dir := fmt.Sprintf("%s/setup%d", root, n)
	return dir, os.MkdirAll(dir, 0o755)
}

// A run sets the workload up at least minSetups times, then again until
// setupSeconds have gone into set-ups or maxSetups are done: a set-up of a
// tenth of a second is too short a measurement to repeat only five times.
// The median is reported and the last set-up is the one measured.
const (
	minSetups    = 5
	maxSetups    = 12
	setupSeconds = 2.0
)

// runTimed is the end-to-end run: tracing off, workloads undecorated. Every
// time it reports is divided by the run's pace (see pace.go).
func runTimed(def *workloadDef, seed uint64, p int, seconds float64, root string) (*report, error) {
	pc, err := newPacer(def.lanes(p))
	if err != nil {
		return nil, err
	}
	var inst instance
	var setups []float64
	warm := newTally()
	for i, spent := 0, 0.0; i < minSetups || (i < maxSetups && spent < setupSeconds); i++ {
		if inst != nil {
			inst.close()
		}
		dir, err := scratchDir(root, i)
		if err != nil {
			return nil, err
		}
		pc.sample()
		start := time.Now()
		if inst, err = def.build(&env{seed: seed, p: p, z: fullSizes, dir: dir}); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		inst.warm(warm)
		setups = append(setups, time.Since(start).Seconds())
		spent += setups[i]
	}
	defer inst.close()

	all := warm.outcome()
	all.units = nil // warm-up latencies are not measurements
	var first outcome
	var walls, cpus []float64
	var heap float64
	began := time.Now()
	pc.sample()
	for r := 0; r < def.minRounds || (time.Since(began).Seconds() < seconds && (def.maxRounds == 0 || r < def.maxRounds)); r++ {
		t := newTally()
		cpu0, t0 := cpuSeconds(), time.Now()
		inst.round(r, t)
		walls = append(walls, time.Since(t0).Seconds())
		cpus = append(cpus, cpuSeconds()-cpu0)
		fold(def, r, t.outcome(), &first, &all)
		if r == def.minRounds-1 {
			heap = liveHeapMB()
		}
		pc.sampleFor(walls[r])
	}

	paceWall, paceCPU := pc.pace()
	rep := newReport(def, false, seed, p, len(walls), all, first)
	rep.PaceWall, rep.PaceCPU = paceWall, paceCPU
	tailP := def.tail
	if got := tailPercentile(len(all.units)); got < tailP {
		fmt.Fprintf(os.Stderr, "bench: %s: only %d units, too few for p%.0f (rule allows p%.0f)\n", def.name, len(all.units), tailP, got)
	}
	rep.Tail = fmt.Sprintf("p%.0f", tailP)
	rep.Series = map[string][]float64{"setup_s": setups, "round_s": walls, "cpu_s": cpus, "ref_wall_s": pc.wall, "ref_cpu_s": pc.cpu}
	rep.Metrics = map[string]metric{
		"setup_s":      {median(setups) / paceWall, "s"},
		"round_s":      {median(walls) / paceWall, "s"},
		"cpu_s":        {median(cpus) / paceCPU, "s"},
		"unit_p50_ms":  {median(all.units) / paceWall, "ms"},
		"unit_tail_ms": {percentile(all.units, tailP) / paceWall, "ms"},
		"live_heap_mb": {heap, "MB"},
		"best_speedup": {first.bestSpeedup, "x"},
	}
	return rep, nil
}

// lanes is how many goroutines the workload drives: the capacity its time
// budget is closed against is round wall x lanes.
func (d *workloadDef) lanes(p int) int {
	if d.serial {
		return 1
	}
	return p
}

func newReport(def *workloadDef, traced bool, seed uint64, p, rounds int, all, first outcome) *report {
	rep := &report{
		Workload: def.name, Trace: traced, Seed: seed, P: p, Lanes: def.lanes(p), Unit: def.unit,
		Rounds: rounds, Units: len(all.units),
		Attempted: all.attempted, Failed: all.failed, Failures: all.failures,
		Digest: first.digest,
	}
	if len(rep.Failures) > maxFailures {
		rep.Failures = rep.Failures[:maxFailures]
	}
	if rep.Attempted > 0 {
		rep.FailShare = float64(rep.Failed) / float64(rep.Attempted)
	}
	return rep
}
