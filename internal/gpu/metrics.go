package gpu

import (
	"encoding/hex"
	"sync/atomic"

	"gevo/internal/obs"
)

// Simulator-wide instrumentation. The program cache and the uniform-launch
// memo are process-global, so their counters register once in the default
// registry; trace events go to an injectable package-level sink (nil by
// default — the deterministic fast path pays one atomic load).
//
// Determinism: counters and events only observe. Note that memo hits and
// device recycling depend on sync.Pool retention and goroutine scheduling,
// so those *counts* are not reproducible run to run — only search results
// are. DESIGN.md §9 spells out which event streams are deterministic.
var (
	metricProgramHits   = obs.Default.Counter("gevo_gpu_program_cache_hits_total", "Program-cache hits: evaluations served a previously compiled module.")
	metricProgramMisses = obs.Default.Counter("gevo_gpu_program_cache_misses_total", "Program-cache misses: verify+compile runs (including failed verifies).")
	metricMemoHits      = obs.Default.Counter("gevo_gpu_memo_hits_total", "Uniform-launch memo hits: timing-oblivious launches replayed functionally.")
	metricMemoTimed     = obs.Default.Counter("gevo_gpu_memo_timed_total", "Uniform-launch memo misses: timing-oblivious launches that ran fully timed.")
	metricLaunches      = obs.Default.Counter("gevo_gpu_launches_total", "Kernel launches simulated.")
	metricTimeouts      = obs.Default.Counter("gevo_gpu_launch_timeouts_total", "Launches that ended in a TimeoutError: the dynamic-instruction budget ran out, or the warp was proven never to finish.")
	metricProofs        = obs.Default.Counter("gevo_gpu_nontermination_proofs_total", "Launch timeouts returned early by the threaded backend's non-termination witness instead of by the budget.")
	metricDeviceReuse   = obs.Default.Counter("gevo_gpu_device_reuse_total", "Devices recycled from the per-capacity free pool instead of allocated.")
	// The compile histogram is timed only while a trace sink is attached:
	// an untraced build reads no clock.
	metricCompileSeconds = obs.Default.Histogram("gevo_gpu_compile_seconds", "Wall time of program verify+compile (observed while a trace sink is attached).", nil)
)

// sinkBox wraps the sink so atomic.Value always stores one concrete type.
type sinkBox struct{ s obs.Sink }

var sinkVal atomic.Value // of sinkBox

// SetSink installs the package trace sink (nil disables): the destination
// of gpu.compile spans, which carry module content hashes and stage times
// and never feed back into a result, so a process-global sink is safe;
// their *interleaving* across concurrent evaluations is
// scheduling-dependent.
func SetSink(s obs.Sink) { sinkVal.Store(sinkBox{s: s}) }

// sink returns the installed sink or nil.
func sink() obs.Sink {
	if b, ok := sinkVal.Load().(sinkBox); ok {
		return b.s
	}
	return nil
}

// Short renders a module key as a short stable identifier, the form trace
// events, spans and quarantine records carry.
func (k ModuleKey) Short() string { return hex.EncodeToString(k[:6]) }
