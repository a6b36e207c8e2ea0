package gpu

import (
	"fmt"
	"math"

	"gevo/internal/ir"
)

// LaunchConfig describes one kernel launch: the grid geometry (1-D, as in
// both of the paper's applications), raw parameter values, and execution
// limits.
type LaunchConfig struct {
	// Grid is the number of thread blocks.
	Grid int
	// Block is the number of threads per block.
	Block int
	// Args holds one raw 64-bit value per kernel parameter (integers
	// sign-extended, floats as IEEE-754 bits). See PackArgs. Launch reads an
	// integer at its parameter's width, whatever lies above it.
	Args []uint64
	// MaxDynInstr bounds the total dynamic warp-instruction count; mutants
	// with infinite loops hit this and fail with a *TimeoutError. 0 means the
	// default budget. It bounds what a runaway launch costs, not what it has
	// to cost: the threaded backend returns the same error as soon as it can
	// prove the budget would run out — a warp back in a state it has been in,
	// with nothing written in between (transferT, dispatch.go).
	MaxDynInstr int64
	// Profile, when non-nil, accumulates per-instruction cycle and
	// execution counts (the nvprof analog used by the edit analysis) from
	// the backend the launch runs on, so a diagnosis describes the executor
	// the search times. The threaded driver records once per straight-line
	// run, and a profiled launch never replays from the uniform-launch memo.
	// Both backends record the same profile of a completed launch, bit for
	// bit (TestBackendDifferentialProfiledAgrees).
	Profile *Profile
	// Backend selects the execution engine. The default (BackendAuto)
	// defers to the package-level DefaultBackend and ultimately to the
	// threaded backend.
	Backend Backend
}

// DefaultDynInstrBudget is the per-launch dynamic instruction budget when
// LaunchConfig.MaxDynInstr is zero.
const DefaultDynInstrBudget int64 = 64 << 20

// Result reports one simulated kernel execution.
type Result struct {
	// Cycles is the simulated grid execution time in core clock cycles.
	Cycles float64
	// TimeMS is Cycles converted at the architecture's core clock.
	TimeMS float64
	// DynInstrs is the dynamic warp-instruction count executed.
	DynInstrs int64
	// Blocks is the number of thread blocks executed.
	Blocks int
}

// launchState is the reusable per-launch execution state of a device: the
// register file, warp structures and shared-memory image. Reuse across
// launches (and, via the device pool, across evaluations) removes the
// per-launch allocation churn of the naive evaluate loop; all of it is
// re-initialized at block start, so reuse cannot leak state between launches.
type launchState struct {
	ctx         blockCtx
	regs        []uint64
	warps       []warp
	warpPtrs    []*warp
	blockCycles []float64
	shared      []byte
	smTime      []float64
}

// grow returns s resized to n elements, reallocating only when capacity is
// short. Contents are unspecified; callers fully initialize what they use.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Launch executes the kernel on the device and returns simulated timing.
// Functional effects (global-memory writes) persist on the device. An error
// is returned for faults, timeouts and malformed programs; callers treat any
// error as a failed variant.
func (d *Device) Launch(k *Kernel, cfg LaunchConfig) (*Result, error) {
	if cfg.Grid <= 0 || cfg.Block <= 0 {
		return nil, fmt.Errorf("gpu: launch %s: bad geometry %dx%d", k.Name, cfg.Grid, cfg.Block)
	}
	if cfg.Block > d.Arch.MaxThreadsPerBlock {
		return nil, fmt.Errorf("gpu: launch %s: block size %d exceeds max %d", k.Name, cfg.Block, d.Arch.MaxThreadsPerBlock)
	}
	if k.SharedBytes > d.Arch.SharedMemPerBlock {
		return nil, fmt.Errorf("gpu: launch %s: shared %dB exceeds per-block max %dB", k.Name, k.SharedBytes, d.Arch.SharedMemPerBlock)
	}
	if len(cfg.Args) != len(k.Params) {
		return nil, fmt.Errorf("gpu: launch %s: %d args for %d params", k.Name, len(cfg.Args), len(k.Params))
	}
	// Registers are canonical by construction: constants, loads and every
	// producing instruction normalise, and both backends' 64-bit compares on
	// i32 operands, the sext-to-i64 copy propagation and the width-free
	// micro-ops (uop.go) assume it of every register source. Launch arguments
	// are the one source a caller controls. PackArgs with correctly typed Go
	// integers already yields canonical values, so the copy is the rare path;
	// it precedes the memo lookup and both fills, which read cfg.Args.
	for i, v := range cfg.Args {
		if normValue(k.Params[i], v) != v {
			canon := make([]uint64, len(cfg.Args))
			for j, raw := range cfg.Args {
				canon[j] = normValue(k.Params[j], raw)
			}
			cfg.Args = canon
			break
		}
	}
	budget := cfg.MaxDynInstr
	if budget <= 0 {
		budget = DefaultDynInstrBudget
	}
	remaining := budget

	// Backend selection: threaded code unless explicitly forced otherwise.
	backend := cfg.Backend
	if backend == BackendAuto {
		backend = DefaultBackend
	}
	if backend == BackendAuto {
		backend = BackendThreaded
	}
	threaded := backend == BackendThreaded

	// Uniform-launch memoization: a timing-oblivious kernel launched with a
	// signature timed earlier in this acquisition of the device replays
	// functionally with the recorded makespan (see uniform.go). A profiled
	// launch does neither: a replay charges nothing to attribute.
	memo := threaded && k.oblivious && cfg.Profile == nil
	var cycles float64
	replay := false
	if memo {
		cycles, replay = d.memoGet(k, &cfg)
	}
	metricLaunches.Inc()

	nwarps := (cfg.Block + warpSize - 1) / warpSize
	stride := k.regSlots * warpSize
	ls := &d.launch
	ls.regs = grow(ls.regs, stride*nwarps)
	ls.shared = grow(ls.shared, k.SharedBytes)
	ls.warps = grow(ls.warps, nwarps)
	ls.warpPtrs = grow(ls.warpPtrs, nwarps)
	for wi := 0; wi < nwarps; wi++ {
		w := &ls.warps[wi]
		w.regs = ls.regs[wi*stride : (wi+1)*stride]
		ls.warpPtrs[wi] = w
	}

	ctx := &ls.ctx
	ctx.d = d
	ctx.k = k
	ctx.arch = d.Arch
	ctx.shared = ls.shared
	ctx.blockDim = int32(cfg.Block)
	ctx.warps = ls.warpPtrs
	ctx.prof = cfg.Profile
	ctx.budget = &remaining
	ctx.threaded = threaded
	ctx.fast = replay
	ctx.costs = resolveCosts(d.Arch)

	// Fill the launch-uniform extended register slots of every warp, which
	// both backends read their non-register operands from: constants,
	// parameters, and all special registers except blockIdx (refilled per
	// block by runBlock). Real registers are cleared per block; the
	// extended region persists across blocks.
	fillSeg := func(seg []uint64, v uint64) {
		for l := range seg {
			seg[l] = v
		}
	}
	for wi := 0; wi < nwarps; wi++ {
		w := &ls.warps[wi]
		for _, ec := range k.extConst {
			fillSeg(w.regs[ec.base:ec.base+warpSize], ec.val)
		}
		for _, ep := range k.extParam {
			fillSeg(w.regs[ep.base:ep.base+warpSize], cfg.Args[ep.idx])
		}
		for _, es := range k.extSpec {
			seg := w.regs[es.base : es.base+warpSize]
			switch ir.Special(es.idx) {
			case ir.SpecialTID:
				base := int64(wi * warpSize)
				for l := range seg {
					seg[l] = uint64(base + int64(l))
				}
			case ir.SpecialLane:
				copy(seg, laneLanes[:])
			case ir.SpecialWarp:
				fillSeg(seg, uint64(int64(wi)))
			case ir.SpecialBDim:
				fillSeg(seg, uint64(int64(ctx.blockDim)))
			case ir.SpecialGDim:
				fillSeg(seg, uint64(int64(cfg.Grid)))
			case ir.SpecialBID:
				// per block; see runBlock
			default:
				fillSeg(seg, 0)
			}
		}
	}

	ls.blockCycles = grow(ls.blockCycles, cfg.Grid)
	for b := 0; b < cfg.Grid; b++ {
		cyc, err := ctx.runBlock(int32(b))
		if err != nil {
			if te, ok := err.(*TimeoutError); ok {
				te.Budget = budget
				metricTimeouts.Inc()
			}
			if d.Stats != nil {
				d.Stats.FailedLaunches++
				d.Stats.FailedDynInstrs += budget - remaining
			}
			return nil, err
		}
		ls.blockCycles[b] = cyc
	}

	if !replay {
		ls.smTime = grow(ls.smTime, max(d.Arch.SMs, 1))
		cycles = scheduleBlocks(ls.blockCycles, ls.smTime, nil)
		if memo {
			d.memoPut(k, &cfg, cycles)
		}
	}
	res := &Result{
		Cycles:    cycles,
		TimeMS:    d.Arch.TimeMS(cycles),
		DynInstrs: budget - remaining,
		Blocks:    cfg.Grid,
	}
	if d.Stats != nil {
		d.Stats.addLaunch(res, replay)
	}
	if cfg.Profile != nil {
		cfg.Profile.TotalCycles += cycles
		cfg.Profile.Launches++
		// A profiled launch never replays, so ls.blockCycles holds this
		// launch's live timings.
		cfg.Profile.recordLaunch(LaunchRecord{
			Grid: cfg.Grid, Block: cfg.Block, SMs: max(d.Arch.SMs, 1),
			Cycles:      cycles,
			BlockCycles: append([]float64(nil), ls.blockCycles...),
		})
	}
	return res, nil
}

// testBarrierRelease, when a test sets it, is called once per barrier release
// pass of runBlock's scheduler loop.
var testBarrierRelease func()

// runBlock executes one thread block to completion and returns its cycle
// count (the max across its warps, with barrier phases aligned).
func (c *blockCtx) runBlock(blockID int32) (float64, error) {
	clear(c.shared)
	nThreads := int(c.blockDim)
	realWords := c.k.nslots * warpSize
	bid := uint64(int64(blockID))
	for wi, w := range c.warps {
		w.cycles = 0
		w.waiting = false
		w.done = false
		w.doneMask = 0
		w.retreats = 0
		lanes := nThreads - wi*warpSize
		if lanes >= warpSize {
			w.initMask = fullMask
		} else {
			w.initMask = (uint32(1) << lanes) - 1
		}
		w.stack = w.stack[:0]
		w.stack = append(w.stack, simtEntry{block: 0, pc: 0, reconv: -1, mask: w.initMask})
		if c.threaded {
			// Verified SSA reads only lanes its defs wrote, except shfl
			// value operands (see Kernel.clearBases): zero exactly those.
			// Extended slots persist from launch setup.
			for _, b := range c.k.clearBases {
				clear(w.regs[b : b+warpSize])
			}
		} else {
			// The reference interpreter keeps the conservative contract:
			// the whole real register file starts zeroed every block.
			clear(w.regs[:realWords])
		}
		for _, b := range c.k.extBID {
			seg := w.regs[b : b+warpSize]
			for l := range seg {
				seg[l] = bid
			}
		}
	}

	if c.threaded && len(c.warps) == 1 {
		// A block's only warp has nobody to wait for: each time the driver
		// comes back parked, release it on the spot. The scan below would
		// align it to the slowest parked warp — itself — at max(0, cycles),
		// and cycles are never negative, so this is the same float (and a
		// profile gets the same barrier charge per release). A multi-warp
		// block cannot be released by its last arriver like this: that
		// would run the warps between barriers in another order, which a
		// racy mutant can observe.
		w := c.warps[0]
		for {
			if err := c.runWarpU(w); err != nil {
				return 0, err
			}
			if w.done {
				return w.cycles, nil
			}
			w.cycles += c.arch.BarrierCost
			w.waiting = false
			if c.prof != nil {
				c.prof.BarrierCycles += c.arch.BarrierCost
			}
		}
	}

	for {
		ran := false
		for _, w := range c.warps {
			if w.done || w.waiting {
				continue
			}
			ran = true
			var err error
			if c.threaded {
				err = c.runWarpU(w)
			} else {
				err = c.runWarp(w)
			}
			if err != nil {
				return 0, err
			}
		}
		allDone := true
		var maxWaiting float64
		anyWaiting := false
		for _, w := range c.warps {
			if !w.done {
				allDone = false
			}
			if w.waiting {
				anyWaiting = true
				if w.cycles > maxWaiting {
					maxWaiting = w.cycles
				}
			}
		}
		if allDone {
			break
		}
		if anyWaiting {
			// Barrier release: all parked warps align to the slowest and
			// pay the barrier cost (Section VI-C's bottleneck mechanism).
			if testBarrierRelease != nil {
				testBarrierRelease()
			}
			for _, w := range c.warps {
				if w.waiting {
					w.cycles = maxWaiting + c.arch.BarrierCost
					w.waiting = false
				}
			}
			if c.prof != nil {
				c.prof.BarrierCycles += c.arch.BarrierCost
			}
			continue
		}
		if !ran {
			return 0, &ExecError{Kernel: c.k.Name, Msg: "no runnable warp (scheduler wedged)"}
		}
	}

	var blockTime float64
	for _, w := range c.warps {
		if w.cycles > blockTime {
			blockTime = w.cycles
		}
	}
	return blockTime, nil
}

// scheduleBlocks assigns block execution times to SM slots greedily
// (earliest-finish-first) and returns the makespan. This is the grid-level
// throughput model: SMs run blocks back to back, concurrency across SMs
// only; within-SM overlap is folded into the per-instruction costs. smTime
// is caller-provided scratch, one slot per SM, left holding each SM's load;
// a non-nil assign receives each block's SM.
func scheduleBlocks(blockCycles, smTime []float64, assign []int) (makespan float64) {
	clear(smTime)
	for b, bc := range blockCycles {
		mi := 0
		for i := 1; i < len(smTime); i++ {
			if smTime[i] < smTime[mi] {
				mi = i
			}
		}
		smTime[mi] += bc
		makespan = max(makespan, smTime[mi])
		if assign != nil {
			assign[b] = mi
		}
	}
	return makespan
}

// ScheduleSMLoads replays the grid scheduler over a recorded block-cycle
// vector, returning each SM's total load and each block's SM assignment.
// It runs the launch's own loop, so max(loads) is the recorded makespan bit
// for bit and the critical SM's blocks sum to it with zero residue.
func ScheduleSMLoads(blockCycles []float64, sms int) (loads []float64, assign []int) {
	loads, assign = make([]float64, max(sms, 1)), make([]int, len(blockCycles))
	scheduleBlocks(blockCycles, loads, assign)
	return loads, assign
}

// PackArgs builds a LaunchConfig argument vector from typed Go values.
// Accepted kinds: int/int32/int64 (sign-extended), float64, and uint64 (raw
// bits, e.g. device addresses from Alloc).
func PackArgs(vals ...any) []uint64 {
	out := make([]uint64, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			out[i] = uint64(int64(x))
		case int32:
			out[i] = uint64(int64(x))
		case int64:
			out[i] = uint64(x)
		case uint64:
			out[i] = x
		case float64:
			out[i] = math.Float64bits(x)
		default:
			panic(fmt.Sprintf("gpu: PackArgs: unsupported argument type %T", v))
		}
	}
	return out
}
