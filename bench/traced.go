package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// tracedMinRounds is the fewest rounds of each kind (traced, untraced) the
// traced run measures.
const tracedMinRounds = 2

// runTraced is the per-layer run: one set-up with every workload decorated,
// rounds alternating traced and untraced (the same decorator with the tracer
// switched off) so the run prices its own overhead, then the layer probes.
func runTraced(def *workloadDef, seed uint64, p int, seconds float64, root, traceDir string) (*report, error) {
	dir, err := scratchDir(root, 0)
	if err != nil {
		return nil, err
	}
	pc, err := newPacer(def.lanes(p))
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	counts := &evalCounts{}
	inst, err := def.build(&env{seed: seed, p: p, z: fullSizes, dir: dir, tr: tr, counts: counts})
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer inst.close()
	warm := newTally()
	inst.warm(warm)
	all := warm.outcome()
	all.units = nil

	var first outcome
	var tracedWall, plainWall, gcPause, allocMB []float64
	// The per-layer account is of round 0; later traced rounds only price
	// the tracing, and their spans are dropped.
	var roundSpans []span
	var firstCounts countsSnapshot
	began := time.Now()
	// Traced rounds come first: round 0 is then decorated work, and its
	// digest is the one the timed run's (undecorated) round 0 must equal.
	for r := 0; r < 2*tracedMinRounds || time.Since(began).Seconds() < seconds/2; r++ {
		traced := r%2 == 0
		tr.on.Store(traced)
		t := newTally()
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		before := counts.snapshot()
		t0 := time.Now()
		rs := tr.begin("round", noSpan, true)
		tr.setCurrent(rs)
		inst.round(r, t)
		tr.end(rs)
		tr.setCurrent(noSpan)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&ms1)
		pc.sampleFor(wall)
		if spans := tr.take(); r == 0 {
			roundSpans = spans
		}
		if traced {
			tracedWall = append(tracedWall, wall)
			gcPause = append(gcPause, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6)
			allocMB = append(allocMB, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20))
		} else {
			plainWall = append(plainWall, wall)
		}
		fold(def, r, t.outcome(), &first, &all)
		if r == 0 {
			firstCounts = counts.snapshot().sub(before)
		}
	}
	tr.on.Store(false)

	rep := newReport(def, true, seed, p, len(tracedWall)+len(plainWall), all, first)
	rep.Tail = fmt.Sprintf("p%.0f", def.tail)
	m := map[string]float64{}
	// Span 0 is the round itself.
	rep.Budget = budget(roundSpans, roundSpans[0].end-roundSpans[0].start, def.lanes(p))
	spanMetrics(m, roundSpans, p)
	for _, b := range rep.Budget {
		if b.Name == "unattributed" {
			m["obs.unattributed_share"] = b.Share
		}
	}
	countMetrics(m, firstCounts, first)
	if mt, mp := median(tracedWall), median(plainWall); mp > 0 {
		m["obs.trace_overhead_pct"] = (mt - mp) / mp * 100
	}
	m["obs.gc_pause_ms"] = median(gcPause)
	m["obs.alloc_mb"] = median(allocMB)
	// The per-layer times are as measured; this is the factor by which the
	// host slowed them (the timed run divides its times by it).
	m["obs.host_pace"], _ = pc.pace()
	inst.layer(m, roundSpans)
	probe(m, inst.targets(), p, root)
	m["obs.peak_rss_mb"] = peakRSSMB()
	m["fail_share"] = rep.FailShare

	rep.Metrics = map[string]metric{}
	for _, pl := range perLayer {
		rep.Metrics[pl.name] = metric{m[pl.name], pl.unit}
	}
	var extra []string
	for name := range m {
		if _, ok := rep.Metrics[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		return nil, fmt.Errorf("per-layer metrics missing from the declared list: %v", extra)
	}

	if traceDir == "" {
		if traceDir, err = os.MkdirTemp("", "gevo-bench-trace-"); err != nil {
			return nil, err
		}
	} else if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, err
	}
	rep.TraceFile = filepath.Join(traceDir, def.name+".trace.json")
	if err := writeChromeTrace(rep.TraceFile, roundSpans); err != nil {
		return nil, err
	}
	return rep, nil
}

// countsSnapshot is a point-in-time copy of evalCounts.
type countsSnapshot struct {
	evals, failed, programHits, programMiss, launches, dynInstrs, memo int64
}

func (c *evalCounts) snapshot() countsSnapshot {
	return countsSnapshot{
		evals: c.evals.Load(), failed: c.failed.Load(),
		programHits: c.programHits.Load(), programMiss: c.programMiss.Load(),
		launches: c.launches.Load(), dynInstrs: c.dynInstrs.Load(), memo: c.memo.Load(),
	}
}

func (a countsSnapshot) sub(b countsSnapshot) countsSnapshot {
	return countsSnapshot{
		evals: a.evals - b.evals, failed: a.failed - b.failed,
		programHits: a.programHits - b.programHits, programMiss: a.programMiss - b.programMiss,
		launches: a.launches - b.launches, dynInstrs: a.dynInstrs - b.dynInstrs, memo: a.memo - b.memo,
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// durationsOf returns the durations (in the given unit) of spans by name.
func durationsOf(spans []span, name string, per time.Duration) []float64 {
	var out []float64
	for _, s := range spans {
		if s.name == name {
			out = append(out, float64(s.end-s.start)/float64(per))
		}
	}
	return out
}

func sum(vs []float64) float64 {
	var t float64
	for _, v := range vs {
		t += v
	}
	return t
}

// spanMetrics derives the per-layer times of one traced round from its
// spans: busy totals, self times and latencies.
func spanMetrics(m map[string]float64, spans []span, p int) {
	self := selfTimes(spans)
	selfOf := func(name string) float64 {
		var t time.Duration
		for i, s := range spans {
			if s.name == name {
				t += self[i]
			}
		}
		return t.Seconds()
	}
	evals := durationsOf(spans, "workload.eval", time.Millisecond)
	m["gpu.prepare_busy_s"] = sum(durationsOf(spans, "gpu.prepare", time.Second))
	m["gpu.launch_busy_s"] = sum(durationsOf(spans, "workload.launch", time.Second))
	m["core.step_self_s"] = selfOf("core.step")
	m["island.step_self_s"] = selfOf("island.step_round")
	m["workload.eval_p50_ms"] = median(evals)
	m["workload.eval_tail_ms"] = percentile(evals, max(tailPercentile(len(evals)), 50))
	var failedBusy float64
	for _, s := range spans {
		if s.name == "workload.eval" && s.failed {
			failedBusy += (s.end - s.start).Seconds()
		}
	}
	m["workload.failed_eval_busy_share"] = ratio(failedBusy, sum(evals)/1000)
	stepWall := sum(durationsOf(spans, "core.step", time.Second)) + sum(durationsOf(spans, "island.step_round", time.Second))
	m["core.pool_util"] = ratio(sum(evals)/1000, float64(p)*stepWall)
	m["serve.submit_ms"] = median(durationsOf(spans, "serve.submit", time.Millisecond))
	m["serve.wait_ms"] = median(durationsOf(spans, "serve.wait", time.Millisecond))
	m["serve.result_ms"] = median(durationsOf(spans, "serve.result", time.Millisecond))
	m["serve.cached_submit_us"] = median(durationsOf(spans, "serve.cached_submit", time.Microsecond))
	m["serve.status_us"] = median(durationsOf(spans, "serve.status", time.Microsecond))
	m["serve.list_us"] = median(durationsOf(spans, "serve.list", time.Microsecond))
	m["obs.scrape_us"] = median(durationsOf(spans, "obs.scrape", time.Microsecond))
}

// countMetrics derives the per-layer counts and ratios of the first traced
// round from the decorator's counters and the round's tally. The counts
// repeat exactly from run to run: the round's work is fixed by the seed.
func countMetrics(m map[string]float64, c countsSnapshot, t outcome) {
	m["core.evals"] = float64(t.evals)
	m["core.fitness_hits"] = float64(t.fitnessHits)
	m["core.fitness_hit_ratio"] = ratio(float64(t.fitnessHits), float64(t.fitnessHits+c.evals))
	m["core.valid_ratio"] = ratio(float64(c.evals-c.failed), float64(c.evals))
	m["core.raw_speedup"] = t.rawSpeedup
	m["workload.holdout_pass_ratio"] = ratio(float64(t.validated), float64(t.searches))
	m["gpu.program_hit_ratio"] = ratio(float64(c.programHits), float64(c.programHits+c.programMiss))
	m["gpu.dyn_instrs"] = float64(c.dynInstrs)
	m["gpu.memo_hit_ratio"] = ratio(float64(c.memo), float64(c.launches))
	m["gpu.sim_instrs_per_s"] = ratio(float64(c.dynInstrs), m["gpu.launch_busy_s"])
	m["island.checkpoint_bytes"] = float64(t.checkpointBytes)
}
