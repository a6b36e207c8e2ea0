package gpu

import (
	"math/bits"
	"sort"
)

// Profile accumulates per-instruction execution statistics across launches:
// the simulator's analog of nvprof plus the paper's debug-info
// instrumentation. The edit analysis (Section V) uses profiles to apply its
// 1% significance threshold, and the Section VI-D instruction-mix argument
// ("31% of kernel instructions were performing boundary logic") is computed
// from the same counters.
type Profile struct {
	cycles []float64
	count  []int64
	lanes  []int64
	// Branch-divergence counters, indexed by the conditional branch's UID.
	brExec   []int64 // warp-level issues of the branch
	brDiv    []int64 // issues that diverged (both successors executed)
	brActive []int64 // active lanes summed across issues
	brTaken  []int64 // lanes that took the true successor
	brMasked []int64 // lanes idled by divergence (smaller side of each split)
	// Memory-traffic counters, indexed by the load/store/atomic UID. Txns
	// counts the serialization unit of the access's space: distinct 128-byte
	// segments for global, bank replays for shared, serialized same-address
	// lanes for atomics.
	memAccess []int64
	memLanes  []int64
	memTxns   []int64
	// launches records per-launch block timings for grid-level attribution.
	launches []LaunchRecord
	// TotalCycles sums grid cycles across profiled launches.
	TotalCycles float64
	// BarrierCycles sums barrier-release costs (not attributed to a UID).
	BarrierCycles float64
	// Launches counts profiled kernel launches.
	Launches int
}

// LaunchRecord captures one profiled launch's grid-level timing: the
// per-block cycle counts in execution order and the makespan the SM
// scheduler derived from them. Replaying ScheduleSMLoads over BlockCycles
// reproduces Cycles exactly (it runs the launch's scheduler loop), which is
// what lets diagnosis attribute the launch total to SMs and blocks with
// zero residue.
type LaunchRecord struct {
	// Grid and Block are the launch geometry.
	Grid, Block int
	// SMs is the SM count the schedule ran over (≥1).
	SMs int
	// Cycles is the launch makespan returned by the scheduler.
	Cycles float64
	// BlockCycles holds each block's execution time, in block-ID order.
	BlockCycles []float64
}

// NewProfile creates a profile sized for the kernel's UID space.
func NewProfile(k *Kernel) *Profile {
	n := k.nextUID
	return &Profile{
		cycles:    make([]float64, n),
		count:     make([]int64, n),
		lanes:     make([]int64, n),
		brExec:    make([]int64, n),
		brDiv:     make([]int64, n),
		brActive:  make([]int64, n),
		brTaken:   make([]int64, n),
		brMasked:  make([]int64, n),
		memAccess: make([]int64, n),
		memLanes:  make([]int64, n),
		memTxns:   make([]int64, n),
	}
}

func (p *Profile) record(uid int32, cost float64, lanes int64) {
	if int(uid) < len(p.cycles) {
		p.cycles[uid] += cost
		p.count[uid]++
		p.lanes[uid] += lanes
	}
}

// recordBranch accumulates one conditional-branch issue: active lanes at
// issue, lanes taking the true successor, and whether the warp diverged.
func (p *Profile) recordBranch(uid int32, active, taken int, divergent bool) {
	if int(uid) >= len(p.brExec) {
		return
	}
	p.brExec[uid]++
	p.brActive[uid] += int64(active)
	p.brTaken[uid] += int64(taken)
	if divergent {
		p.brDiv[uid]++
		masked := taken
		if other := active - taken; other < masked {
			masked = other
		}
		p.brMasked[uid] += int64(masked)
	}
}

// recordMem accumulates one warp-level memory access: active lanes and the
// space's serialization count (segments, replays, or atomic contention).
func (p *Profile) recordMem(uid int32, lanes, txns int64) {
	if int(uid) >= len(p.memAccess) {
		return
	}
	p.memAccess[uid]++
	p.memLanes[uid] += lanes
	p.memTxns[uid] += txns
}

// profileMem records one memory micro-op's charge and traffic as the
// interpreter's execLoad/execStore do: every active lane counts, and a
// collective shape is one transaction (sharedReplays and globalSegs return 1
// for it). Any other shape gathered every active lane's address.
func (c *blockCtx) profileMem(u *uop, cost float64, mask uint32, shape addrShape, shared bool) {
	n := bits.OnesCount32(mask)
	txns := 1
	switch {
	case shape != shapeOther:
	case shared:
		txns = c.sharedReplays(n)
	default:
		txns = c.globalSegs(n)
	}
	c.prof.record(u.uid, cost, int64(n))
	c.prof.recordMem(u.uid, int64(n), int64(txns))
}

// recordLaunch appends one launch's grid-level timing record.
func (p *Profile) recordLaunch(rec LaunchRecord) {
	p.launches = append(p.launches, rec)
}

// BranchStat is the accumulated divergence behaviour of one conditional
// branch site.
type BranchStat struct {
	// Exec is the warp-level issue count; Div how many issues diverged.
	Exec, Div int64
	// Active sums active lanes across issues; Taken the lanes that took the
	// true successor; Masked the lanes idled by divergence (the smaller
	// side of each divergent split — the wasted lockstep work).
	Active, Taken, Masked int64
}

// BranchStat returns the divergence counters for the branch with the UID.
func (p *Profile) BranchStat(uid int) BranchStat {
	if uid < 0 || uid >= len(p.brExec) {
		return BranchStat{}
	}
	return BranchStat{
		Exec: p.brExec[uid], Div: p.brDiv[uid],
		Active: p.brActive[uid], Taken: p.brTaken[uid], Masked: p.brMasked[uid],
	}
}

// MemStat is the accumulated traffic of one load/store/atomic site.
type MemStat struct {
	// Access is the warp-level access count; Lanes the active lanes summed
	// across accesses; Txns the serialization units paid (global 128-byte
	// segments, shared bank replays, or serialized atomic lanes).
	Access, Lanes, Txns int64
}

// MemStat returns the traffic counters for the memory site with the UID.
func (p *Profile) MemStat(uid int) MemStat {
	if uid < 0 || uid >= len(p.memAccess) {
		return MemStat{}
	}
	return MemStat{Access: p.memAccess[uid], Lanes: p.memLanes[uid], Txns: p.memTxns[uid]}
}

// LaunchRecords returns the per-launch grid timing records in launch order.
// The slice is the profile's own; callers must not mutate it.
func (p *Profile) LaunchRecords() []LaunchRecord { return p.launches }

// Cycles returns the cycles attributed to the instruction with the UID.
func (p *Profile) Cycles(uid int) float64 {
	if uid < 0 || uid >= len(p.cycles) {
		return 0
	}
	return p.cycles[uid]
}

// Count returns how many times the instruction issued (per warp).
func (p *Profile) Count(uid int) int64 {
	if uid < 0 || uid >= len(p.count) {
		return 0
	}
	return p.count[uid]
}

// Lanes returns the total active-lane executions of the instruction.
func (p *Profile) Lanes(uid int) int64 {
	if uid < 0 || uid >= len(p.lanes) {
		return 0
	}
	return p.lanes[uid]
}

// SumCycles returns total attributed cycles across all instructions.
func (p *Profile) SumCycles() float64 {
	var s float64
	for _, c := range p.cycles {
		s += c
	}
	return s
}

// HotSpot is one entry of a profile ranking.
type HotSpot struct {
	UID    int
	Cycles float64
	Count  int64
	Frac   float64 // fraction of total attributed cycles
}

// Top returns the n hottest instructions by attributed cycles.
func (p *Profile) Top(n int) []HotSpot {
	total := p.SumCycles()
	var hs []HotSpot
	for uid, c := range p.cycles {
		if c > 0 {
			frac := 0.0
			if total > 0 {
				frac = c / total
			}
			hs = append(hs, HotSpot{UID: uid, Cycles: c, Count: p.count[uid], Frac: frac})
		}
	}
	sort.Slice(hs, func(i, j int) bool { return hs[i].Cycles > hs[j].Cycles })
	if n > 0 && len(hs) > n {
		hs = hs[:n]
	}
	return hs
}
