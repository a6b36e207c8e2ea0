package gpu

import (
	"crypto/sha256"
	"encoding/binary"
	"strconv"
	"sync"
	"time"

	"gevo/internal/ir"
	"gevo/internal/obs"
)

// The compiled-program cache: the front end of the fast evaluation pipeline.
// The evolutionary search meets the same program content many times — the
// same variant on every arch of a heterogeneous ring, on every engine's own
// workload instance, and again at held-out validation — and verification
// plus compilation are pure functions of module content. Prepare hashes the
// module's executable form and compiles each distinct program exactly once;
// concurrent requests for the same content single-flight behind the first.

// ModuleKey is a content hash of a module's executable form: everything
// Verify and Compile observe (functions, blocks, instructions, operands).
// The pseudo-source listing is excluded — it does not affect execution.
type ModuleKey [sha256.Size]byte

// Program is a verified, fully compiled module. Kernels are immutable after
// compilation, so one Program may be executed concurrently by many devices.
type Program struct {
	// Kernels holds the compiled kernels by function name.
	Kernels map[string]*Kernel
}

var hashBufPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 64<<10)
	return &b
}}

// HashModule computes the content key of a module's executable form.
func HashModule(m *ir.Module) ModuleKey {
	bp := hashBufPool.Get().(*[]byte)
	buf := appendModule((*bp)[:0], m)
	key := ModuleKey(sha256.Sum256(buf))
	*bp = buf
	hashBufPool.Put(bp)
	return key
}

func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }

func appendInt(b []byte, v int) []byte { return appendU64(b, uint64(int64(v))) }

func appendStr(b []byte, s string) []byte {
	b = appendInt(b, len(s))
	return append(b, s...)
}

func appendOperand(b []byte, o ir.Operand) []byte {
	b = append(b, byte(o.Kind), byte(o.Typ))
	b = appendU64(b, o.Const)
	b = appendInt(b, o.Ref)
	return appendInt(b, o.Index)
}

func appendModule(b []byte, m *ir.Module) []byte {
	b = appendStr(b, m.Name)
	b = appendInt(b, len(m.Funcs))
	for _, f := range m.Funcs {
		b = appendStr(b, f.Name)
		b = appendInt(b, len(f.Params))
		for _, t := range f.Params {
			b = append(b, byte(t))
		}
		b = appendInt(b, f.SharedBytes)
		b = appendInt(b, f.NextUID)
		b = appendInt(b, len(f.Blocks))
		for _, blk := range f.Blocks {
			b = appendStr(b, blk.Name)
			b = appendInt(b, len(blk.Instrs))
			for _, in := range blk.Instrs {
				b = appendInt(b, in.UID)
				b = append(b, byte(in.Op), byte(in.Typ), byte(in.Pred), byte(in.Space))
				b = appendInt(b, in.Loc)
				b = appendInt(b, len(in.Args))
				for _, a := range in.Args {
					b = appendOperand(b, a)
				}
				b = appendInt(b, len(in.Succs))
				for _, s := range in.Succs {
					b = appendStr(b, s)
				}
				b = appendInt(b, len(in.Inc))
				for _, inc := range in.Inc {
					b = appendStr(b, inc.Block)
					b = appendOperand(b, inc.Val)
				}
			}
		}
	}
	return b
}

const (
	cacheShards = 16
	// shardCapacity bounds each shard's LRU, so the cache holds at most
	// cacheShards*shardCapacity compiled programs. The evaluation pool
	// already runs each program once per (workload, arch), so hits come from
	// the same program on another arch or workload instance and from
	// validation re-runs; a small bound captures those without letting a
	// week-long search grow the cache unboundedly.
	shardCapacity = 16
)

// programEntry is one cache slot. done is closed once prog/err are set;
// later requesters for the same key block on it (single-flight).
type programEntry struct {
	done chan struct{}
	prog *Program
	err  error
}

type programShard struct {
	mu sync.Mutex
	// items is the shard's key -> entry table; guarded by mu.
	items map[ModuleKey]*programEntry
	// order is the LRU order, most recently used last; guarded by mu.
	order []ModuleKey
}

// ProgramCache is a sharded, single-flight, bounded cache of compiled
// programs keyed by module content.
type ProgramCache struct {
	shards [cacheShards]programShard
}

// NewProgramCache creates an empty cache.
func NewProgramCache() *ProgramCache { return &ProgramCache{} }

// DefaultProgramCache is the process-wide cache used by Prepare.
var DefaultProgramCache = NewProgramCache()

// Prepare verifies and compiles the module through the default cache.
// Workloads call this once per evaluation; each distinct program content is
// verified and compiled once per process, not once per evaluation.
func Prepare(m *ir.Module) (*Program, error) { return DefaultProgramCache.Prepare(m) }

// PrepareStats is Prepare through the default cache with a per-evaluation
// stats handle (see EvalStats); nil st behaves exactly like Prepare.
func PrepareStats(m *ir.Module, st *EvalStats) (*Program, error) {
	return DefaultProgramCache.PrepareStats(m, st)
}

// Prepare returns the verified, compiled form of the module, building it on
// first sight of its content. Concurrent calls with identical content block
// on one compilation instead of racing duplicates.
func (c *ProgramCache) Prepare(m *ir.Module) (*Program, error) { return c.PrepareStats(m, nil) }

// PrepareStats is Prepare with a per-evaluation stats handle: cache
// outcomes are charged to st, and with a sink attached a compile is a
// gpu.compile span opened under st.Parent, tying the compile slice into the
// eval span's trace. A handle that already carries the module's content key
// (the evaluation pool hashed the variant to look its fitness up) spares
// the second hash; a nil st, or one without a key, is the plain Prepare
// path.
func (c *ProgramCache) PrepareStats(m *ir.Module, st *EvalStats) (*Program, error) {
	var key ModuleKey
	if st != nil && st.Module != (ModuleKey{}) {
		key = st.Module
	} else {
		key = HashModule(m)
	}
	sh := &c.shards[key[0]&(cacheShards-1)]

	sh.mu.Lock()
	if e, ok := sh.items[key]; ok {
		sh.markUsedLocked(key)
		sh.mu.Unlock()
		metricProgramHits.Inc()
		if st != nil {
			st.ProgramHits++
		}
		<-e.done
		return e.prog, e.err
	}
	e := &programEntry{done: make(chan struct{})}
	if sh.items == nil {
		sh.items = make(map[ModuleKey]*programEntry, shardCapacity)
	}
	sh.items[key] = e
	sh.order = append(sh.order, key)
	if len(sh.order) > shardCapacity {
		evicted := sh.order[0]
		sh.order = sh.order[1:]
		delete(sh.items, evicted)
	}
	sh.mu.Unlock()

	metricProgramMisses.Inc()
	var parent obs.SpanContext
	if st != nil {
		st.ProgramMisses++
		parent = st.Parent
	}
	s := sink()
	sp := obs.StartSpanFrom(parent, s, "gpu.compile", obs.A("module", key.Short()))
	var stages stageTimes
	e.prog, stages, e.err = build(m, s != nil)
	if s != nil {
		ok := "1"
		if e.err != nil {
			ok = "0"
		}
		metricCompileSeconds.Observe((stages.verify + stages.lower + stages.finalize).Seconds())
		sp.End(obs.A("ok", ok),
			obs.A("verify_us", micros(stages.verify)),
			obs.A("lower_us", micros(stages.lower)),
			obs.A("finalize_us", micros(stages.finalize)))
	}
	close(e.done)
	return e.prog, e.err
}

// stageTimes splits one build's wall time by stage for the gpu.compile
// span: verification (with the CFG analysis), lowering to decoded
// instructions, and finalization (slot layout, threaded code, taint).
type stageTimes struct {
	verify, lower, finalize time.Duration
}

func micros(d time.Duration) string { return strconv.FormatInt(d.Microseconds(), 10) }

// build verifies and compiles every kernel of the module. Each function's
// CFG is analysed once, by the verifier, and handed to the compiler. The
// clock is read only when timed is set (a sink is attached), so an untraced
// run pays nothing for the stage account.
func build(m *ir.Module, timed bool) (*Program, stageTimes, error) {
	var stages stageTimes
	lap := func(*time.Duration) {}
	if timed {
		last := time.Now() //gevo:allow stage times go to the trace sink only; no result reads them
		lap = func(d *time.Duration) {
			now := time.Now() //gevo:allow stage times go to the trace sink only; no result reads them
			*d += now.Sub(last)
			last = now
		}
	}
	cfgs, err := m.Analyze()
	lap(&stages.verify)
	if err != nil {
		return nil, stages, err
	}
	prog := &Program{Kernels: make(map[string]*Kernel, len(m.Funcs))}
	for i, f := range m.Funcs {
		k, err := lowerFunction(f, cfgs[i])
		lap(&stages.lower)
		if err != nil {
			return nil, stages, err
		}
		finalizeKernel(k)
		lap(&stages.finalize)
		prog.Kernels[f.Name] = k
	}
	if verifyCompiled.Load() {
		if err := VerifyProgram(prog); err != nil {
			return nil, stages, err
		}
	}
	return prog, stages, nil
}

// markUsedLocked moves the key to the back of the shard's LRU order.
// Caller holds the shard lock.
func (sh *programShard) markUsedLocked(key ModuleKey) {
	for i, k := range sh.order {
		if k == key {
			copy(sh.order[i:], sh.order[i+1:])
			sh.order[len(sh.order)-1] = key
			return
		}
	}
}
