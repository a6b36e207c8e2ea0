package serve

import (
	"gevo/internal/core"
	"gevo/internal/island"
	"gevo/internal/obs"
	"gevo/internal/workload"
)

// State is a job's lifecycle position. The machine is
//
//	queued → running → done
//	                 ↘ failed
//	queued|running → cancelled
//
// with one loop: a failed or cancelled job whose spec is resubmitted
// returns to queued. After a crash, jobs found queued or running in the
// ledger re-enter queued and resume from their latest checkpoint.
type State string

const (
	StateQueued    State = "queued"
	StateRunning   State = "running"
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobResult is the artifact of a finished search — deliberately free of
// timing and process details so that two runs of the same spec produce
// byte-identical documents (the crash-resume golden check diffs these
// directly). Evaluation counts are excluded for the same reason: a resumed
// search legitimately recounts genomes its cold cache re-requests (see
// core.EngineState), so they live on JobStatus instead.
type JobResult struct {
	Workload    string  `json:"workload"`
	Demes       int     `json:"demes"`
	Pop         int     `json:"pop"`
	Generations int     `json:"generations"`
	Seed        uint64  `json:"seed"`
	BestDeme    int     `json:"best_deme"`
	BestArch    string  `json:"best_arch"`
	BaseMs      float64 `json:"base_ms"`
	BestMs      float64 `json:"best_ms"`
	Speedup     float64 `json:"speedup"`
	Migrations  int     `json:"migrations"`
	GenomeEdits int     `json:"genome_edits"`
	// Costs is the job's cost account, attached when the result is served —
	// never when it is persisted: costs are process-local
	// telemetry (a resumed job recounts only the work it redid), so keeping
	// them out of the stored document preserves its byte-identity
	// invariant. Consumers diffing result documents across runs must strip
	// this block (serve_smoke.sh does).
	Costs     *JobCosts `json:"costs,omitempty"`
	Genome    []string  `json:"genome,omitempty"`
	Validated bool      `json:"validated"`
	// Lineage is the winning deme's best-improvement provenance chain:
	// one line per generation that set a new best-ever fitness. It is a
	// deterministic function of the spec (the search records it as part of
	// the checkpointed history), so including it keeps result documents
	// byte-identical across runs and crash-resumes.
	Lineage []LineageLine `json:"lineage,omitempty"`
}

// LineageLine is one best-improvement record in a JobResult — the subset of
// core.LineageEntry whose fields are always finite (ParentMs can be +Inf,
// which encoding/json rejects, so it stays behind core's checkpoint codec).
type LineageLine struct {
	Gen     int     `json:"gen"`
	Op      string  `json:"op"`
	Kind    string  `json:"kind,omitempty"`
	Site    string  `json:"site,omitempty"`
	Parent  string  `json:"parent,omitempty"`
	BestMs  float64 `json:"best_ms"`
	DeltaMs float64 `json:"delta_ms"`
	Speedup float64 `json:"speedup"`
	Edits   int     `json:"edits"`
}

// JobCosts is the serve-time cost document of one job: the account's
// totals plus the trace identity linking them to the flight recorder's
// spans. Served at GET /jobs/{id}/costs and attached to JobResult when a
// finished job is read (never persisted — see JobResult.Costs).
type JobCosts struct {
	JobID string `json:"job_id,omitempty"`
	// Trace is the job's trace ID; Span the job root span. A costs document
	// and a /debug/trace export sharing a trace ID describe the same work.
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	State State  `json:"state,omitempty"`
	core.CostTotals
}

// JobStatus is the externally visible snapshot of a job, served by the
// status and list endpoints and carried in progress events.
type JobStatus struct {
	ID    string  `json:"id"`
	Key   string  `json:"key"`
	Spec  JobSpec `json:"spec"`
	State State   `json:"state"`
	// Trace is the job's W3C trace ID: minted at submission (or adopted
	// from the submitter's traceparent), shared by every span the job's
	// slices, evaluations and compiles emit.
	Trace string `json:"trace,omitempty"`
	// Gen is per-deme generations completed out of Spec.Generations.
	Gen int `json:"gen"`
	// BestSpeedup and BestDeme summarize the ring-wide best so far.
	BestSpeedup float64 `json:"best_speedup,omitempty"`
	BestDeme    int     `json:"best_deme,omitempty"`
	Migrations  int     `json:"migrations,omitempty"`
	Evaluations int     `json:"evaluations,omitempty"`
	// Submits counts submissions coalesced into this job (single-flight
	// dedup): 1 for the first caller, +1 for every identical spec.
	Submits int    `json:"submits"`
	Error   string `json:"error,omitempty"`
	// Warnings records non-fatal anomalies the job survived — today, a
	// corrupt checkpoint quarantined aside at resume. Warnings never affect
	// the result (searches restart deterministically); they exist so an
	// operator can tell a clean run from a recovered one.
	Warnings []string `json:"warnings,omitempty"`

	SubmittedUnixMs int64 `json:"submitted_unix_ms"`
	StartedUnixMs   int64 `json:"started_unix_ms,omitempty"`
	DoneUnixMs      int64 `json:"done_unix_ms,omitempty"`

	// Result is attached once State is done.
	Result *JobResult `json:"result,omitempty"`
}

// job is the manager's internal record. All mutable fields are guarded by
// the manager's mutex; search is additionally touched only by the executor
// that has the job claimed, so slices run without holding the lock.
type job struct {
	id   string
	key  string
	spec JobSpec

	state       State
	gen         int
	bestSpeedup float64
	bestDeme    int
	migrations  int
	evaluations int
	submits     int
	// lastSubmit is the manager's submission number at this job's latest
	// submission: its recency, which pruning reads.
	lastSubmit uint64
	errMsg     string
	// warnings mirrors JobStatus.Warnings, under the manager's mutex like
	// every mutable field here.
	warnings []string

	submittedMs int64
	startedMs   int64
	doneMs      int64

	// claimed marks an executor holding the job for a slice; cancelWanted
	// asks whoever holds it (or the scheduler) to finalize as cancelled.
	claimed      bool
	cancelWanted bool

	// cost is the job's evaluation-cost account, charged by the pool for
	// every evaluation the job's search requests; trace/root identify the
	// job's root span (trace survives restarts via the ledger, the span is
	// re-begun per process).
	cost     *core.Cost
	trace    string
	root     obs.SpanContext
	rootSpan *obs.Span

	// search is the live island search, built lazily on first claim (from
	// scratch or from the job's checkpoint); w is the workload instance it
	// runs on, the job's own. Both are dropped at every terminal transition.
	search *island.Search
	w      workload.Workload
	// lastEventGen tracks the newest generation already published to
	// subscribers, so each progress event carries exactly the new points.
	lastEventGen int

	// stats is the latest per-deme search-health snapshot (ring order),
	// refreshed after every slice and one last time at finalize; bestGenome
	// and bestArch hold the ring-best valid genome for on-demand diagnosis.
	// All three survive the search's release but not a process restart.
	stats      []core.GenStats
	bestGenome []core.Edit
	bestArch   string

	result *JobResult
}

// status snapshots the job under the manager lock.
func (j *job) status() JobStatus {
	st := JobStatus{
		ID:              j.id,
		Key:             j.key,
		Spec:            j.spec,
		State:           j.state,
		Trace:           j.trace,
		Gen:             j.gen,
		BestSpeedup:     j.bestSpeedup,
		BestDeme:        j.bestDeme,
		Migrations:      j.migrations,
		Evaluations:     j.evaluations,
		Submits:         j.submits,
		Error:           j.errMsg,
		Warnings:        append([]string(nil), j.warnings...),
		SubmittedUnixMs: j.submittedMs,
		StartedUnixMs:   j.startedMs,
		DoneUnixMs:      j.doneMs,
		Result:          j.result,
	}
	return st
}

// costsDoc snapshots the job's cost account (nil when the job predates the
// accounting layer, which cannot happen for jobs created by this binary).
func (j *job) costsDoc() *JobCosts {
	if j.cost == nil {
		return nil
	}
	return &JobCosts{
		JobID: j.id, Trace: j.trace, Span: j.root.SpanID, State: j.state,
		CostTotals: j.cost.Totals(),
	}
}

// GenPoint is one generation of ring-wide progress: the best fitness and
// speedup over all demes at that generation.
type GenPoint struct {
	Gen     int     `json:"gen"`
	BestMs  float64 `json:"best_ms"`
	Speedup float64 `json:"speedup"`
}

// Event is one progress notification. Type is "progress" while the search
// advances and the terminal state name ("done", "failed", "cancelled") when
// it ends; Gens carries the per-generation points new since the previous
// event for this job.
type Event struct {
	Type string     `json:"type"`
	Job  JobStatus  `json:"job"`
	Gens []GenPoint `json:"gens,omitempty"`
	// Trace and Span tie the event into the job's trace: Trace is the job's
	// trace ID, Span the span of the slice that produced the event (the job
	// root span for lifecycle events).
	Trace string `json:"trace,omitempty"`
	Span  string `json:"span,omitempty"`
	// Stats is the per-deme search-health snapshot (ring order) taken at
	// the end of the slice that produced this progress event.
	Stats []core.GenStats `json:"stats,omitempty"`
}
