package main

import (
	"encoding/json"
	"os"
	"testing"
)

// smokeSizes drives every workload's real round function with constants a
// test can afford.
var smokeSizes = sizes{
	simPasses:  1,
	synthSeeds: 1, synthPop: 6, synthGens: 2,
	adeptRings: []uint64{9}, adeptPop: 4, adeptGens: 2,
	jobsPerRound: 3, jobsWarm: 1,
	readsJobs: 2, readsPerRound: 40, readsWarm: 5,
}

// Each workload, undecorated and decorated: the warm-up and two rounds run
// without a failed operation, record units and results, and — where rounds
// are identical work — produce the same digest; the decorated run (tracer
// on) must match the undecorated one bit for bit.
func TestWorkloadsSmoke(t *testing.T) {
	for _, def := range workloadDefs {
		t.Run(def.name, func(t *testing.T) {
			var digests []string
			for _, traced := range []bool{false, true} {
				e := &env{seed: 1, p: 2, z: smokeSizes, dir: t.TempDir()}
				if traced {
					e.tr, e.counts = newTracer(), &evalCounts{}
					e.tr.on.Store(true)
				}
				inst, err := def.build(e)
				if err != nil {
					t.Fatal(err)
				}
				warm := newTally()
				inst.warm(warm)
				var rounds [2]outcome
				for r := range rounds {
					ta := newTally()
					inst.round(r, ta)
					rounds[r] = ta.outcome()
				}
				if traced {
					m := map[string]float64{}
					inst.layer(m, e.tr.take())
				}
				if len(inst.targets()) == 0 {
					t.Error("no probe targets")
				}
				inst.close()
				for _, out := range append(rounds[:], warm.outcome()) {
					if out.failed > 0 {
						t.Fatalf("traced=%v: %d of %d operations failed: %v", traced, out.failed, out.attempted, out.failures)
					}
				}
				r0 := rounds[0]
				if r0.attempted == 0 || len(r0.units) == 0 || r0.searches == 0 {
					t.Errorf("traced=%v: round recorded attempted=%d units=%d searches=%d",
						traced, r0.attempted, len(r0.units), r0.searches)
				}
				if def.sameRounds && rounds[1].digest != r0.digest {
					t.Errorf("traced=%v: identical rounds gave digests %s and %s", traced, r0.digest, rounds[1].digest)
				}
				if traced && def.name != "serve_reads" && e.counts.evals.Load() == 0 {
					t.Error("decorator saw no evaluations")
				}
				digests = append(digests, r0.digest)
			}
			if digests[0] != digests[1] {
				t.Errorf("decorated round digest %s != undecorated %s", digests[1], digests[0])
			}
		})
	}
}

// BENCHMARK.json repeats the code's lists; this holds the two together.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadDefs) || len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end, %d per-layer metrics; the code %d, %d, %d",
			len(doc.Workloads), len(doc.EndToEnd), len(doc.PerLayer), len(workloadDefs), len(endToEnd), len(perLayer))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadDefs[i].name {
			t.Errorf("workload %d: %q in BENCHMARK.json, %q in code", i, w.Name, workloadDefs[i].name)
		}
	}
	for i, m := range doc.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better || m.Bound != d.bound {
			t.Errorf("end-to-end %d: %+v in BENCHMARK.json, %+v in code", i, m, d)
		}
	}
	for i, m := range doc.PerLayer {
		d := perLayer[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: %+v in BENCHMARK.json, %+v in code", i, m, d)
		}
	}
}
