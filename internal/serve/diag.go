package serve

import (
	"fmt"

	"gevo/internal/core"
	"gevo/internal/diag"
	"gevo/internal/gpu"
)

// DiagDoc is the GET /jobs/{id}/diag document: the job's status, its
// latest per-deme search-health snapshot, the per-operator contribution
// table, and (when a best genome is known in this process) a full kernel
// diagnosis report for it.
type DiagDoc struct {
	Job JobStatus `json:"job"`
	// Stats is the latest per-deme search-health snapshot in ring order.
	// Empty for jobs recovered from the ledger that have not run a slice
	// in this process.
	Stats []core.GenStats `json:"stats,omitempty"`
	// Ops merges the cumulative per-operator productivity across demes
	// with the best-ever discoveries attributed by the result's lineage.
	Ops []core.OpContribution `json:"ops,omitempty"`
	// Report is the kernel diagnosis of the current (or final) ring-best
	// genome on its home architecture; ReportError explains its absence.
	Report      *diag.Report `json:"report,omitempty"`
	ReportError string       `json:"report_error,omitempty"`
}

// Diag builds the diagnosis document for a job. The kernel report runs a
// profiled re-evaluation of the best genome synchronously — one extra
// fitness evaluation, on a workload instance of its own, off the search path, so polling diagnosis never
// perturbs results or races the executor that holds the job.
func (m *Manager) Diag(id string) (*DiagDoc, error) {
	m.mu.Lock()
	j, ok := m.jobs[id]
	if !ok {
		m.mu.Unlock()
		return nil, fmt.Errorf("serve: no job %q", id)
	}
	doc := &DiagDoc{Job: j.status()}
	doc.Stats = append([]core.GenStats(nil), j.stats...)
	genome := append([]core.Edit(nil), j.bestGenome...)
	haveBest := j.bestGenome != nil
	arch := j.bestArch
	var lineage []core.LineageEntry
	if j.result != nil {
		for _, l := range j.result.Lineage {
			lineage = append(lineage, core.LineageEntry{Op: l.Op, DeltaMs: l.DeltaMs})
		}
	}
	workloadName := j.spec.Workload
	m.mu.Unlock()

	doc.Ops = core.OpContributions(doc.Stats, lineage)
	if !haveBest {
		doc.ReportError = "no valid best genome observed in this process yet"
		return doc, nil
	}
	w, err := m.opts.Workloads(workloadName)
	if err != nil {
		doc.ReportError = err.Error()
		return doc, nil
	}
	rep, err := diag.Diagnose(w, gpu.ArchByName(arch), genome)
	if err != nil {
		doc.ReportError = err.Error()
		return doc, nil
	}
	doc.Report = rep
	return doc, nil
}
