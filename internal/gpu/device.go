package gpu

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"gevo/internal/ir"
)

// Device is one simulated GPU: an architecture plus a global-memory arena
// with a bump allocator. The arena reproduces the memory behaviour behind
// Figure 10: accesses outside an allocated buffer but inside the arena
// succeed silently (they read/write whatever neighbours the buffer, the
// figure's "other application" region), while accesses outside the arena
// fault — so the boundary-check-removal optimization passes on small grids
// and segfaults once the grid fills device memory.
//
// A Device is not safe for concurrent use: it owns a bump allocator and the
// reusable per-launch execution state. Concurrent evaluations each acquire
// their own device.
type Device struct {
	Arch *Arch
	// Stats, when non-nil, accrues per-evaluation launch costs (counts,
	// dynamic instructions, memo hits) for the evaluation that acquired
	// this device. Set by the workload right after AcquireDevice; cleared
	// by Release so pooled devices never leak one evaluation's handle into
	// the next.
	Stats *EvalStats
	mem   []byte
	off   int
	// dirtyHi is the high-water mark of arena writes (stores, atomics, host
	// copies). Recycling a pooled device only has to clear [0, dirtyHi) to
	// restore the all-zero arena a fresh device guarantees.
	dirtyHi int64
	// launch holds per-launch execution state (register file, warps, shared
	// memory) reused across launches on this device.
	launch launchState
	// memo caches the makespan of timing-oblivious launches by signature
	// (uniform.go) for one acquisition, which bounds it and fixes its arch and
	// arena: Release empties it, and only AcquireDevice reassigns Arch. A
	// NewDevice device is never released and keeps its memo for life.
	memo []memoEntry
}

// NewDevice creates a device with the architecture's default arena capacity.
func NewDevice(arch *Arch) *Device {
	return NewDeviceWithMem(arch, arch.MemBytes)
}

// NewDeviceWithMem creates a device with an explicit arena capacity in
// bytes; experiments that must run near capacity (Fig 10's large grid) use
// this to size the arena against their allocations.
func NewDeviceWithMem(arch *Arch, capacity int) *Device {
	return &Device{Arch: arch, mem: make([]byte, capacity)}
}

// devicePools holds per-capacity free lists of recycled devices. Pooling
// avoids re-allocating (and re-faulting) the multi-megabyte arena on every
// evaluation — the dominant cost of the naive evaluate loop.
var devicePools sync.Map // capacity int -> *sync.Pool

func poolFor(capacity int) *sync.Pool {
	p, ok := devicePools.Load(capacity)
	if !ok {
		p, _ = devicePools.LoadOrStore(capacity, new(sync.Pool))
	}
	return p.(*sync.Pool)
}

// AcquireDevice returns a device with the architecture's default arena
// capacity, recycled from the pool when available. The arena is guaranteed
// all-zero with no allocations, exactly like NewDevice. Callers release it
// with Release when the evaluation is done.
func AcquireDevice(arch *Arch) *Device { return AcquireDeviceWithMem(arch, arch.MemBytes) }

// AcquireDeviceWithMem is AcquireDevice with an explicit arena capacity.
func AcquireDeviceWithMem(arch *Arch, capacity int) *Device {
	if v := poolFor(capacity).Get(); v != nil {
		d := v.(*Device)
		d.Arch = arch
		metricDeviceReuse.Inc()
		return d
	}
	return NewDeviceWithMem(arch, capacity)
}

// Release scrubs the device (zeroing only the written span of the arena) and
// returns it to the pool for reuse. The device must not be used afterwards.
func (d *Device) Release() {
	d.Reset()
	d.Stats = nil
	// Drop references held from this acquisition, the memo included, so
	// pooled devices pin no compiled kernel, profile or caller argument slice.
	d.launch.ctx.k = nil
	d.launch.ctx.prof = nil
	d.launch.ctx.args = nil
	d.launch.ctx.budget = nil
	clear(d.memo)
	d.memo = d.memo[:0]
	poolFor(len(d.mem)).Put(d)
}

// touch records an arena write ending at addr end (exclusive).
func (d *Device) touch(end int64) {
	if end > d.dirtyHi {
		d.dirtyHi = end
	}
}

// MemBytes returns the arena capacity.
func (d *Device) MemBytes() int { return len(d.mem) }

// FreeBytes returns the unallocated arena capacity.
func (d *Device) FreeBytes() int { return len(d.mem) - d.off }

// Alloc reserves n bytes of zeroed global memory, 256-byte aligned (matching
// cudaMalloc alignment), and returns its base address. It fails when the
// arena is exhausted, the analog of cudaMalloc returning out-of-memory.
func (d *Device) Alloc(n int) (int64, error) {
	if n < 0 {
		return 0, fmt.Errorf("gpu: negative allocation %d", n)
	}
	base := (d.off + 255) &^ 255
	if base+n > len(d.mem) {
		return 0, fmt.Errorf("gpu: out of device memory: want %d bytes, %d free", n, len(d.mem)-base)
	}
	d.off = base + n
	return int64(base), nil
}

// Reset releases all allocations and zeroes the arena. Only the span written
// since the last reset is cleared; untouched arena bytes are zero already.
func (d *Device) Reset() {
	d.off = 0
	clear(d.mem[:d.dirtyHi])
	d.dirtyHi = 0
}

// Memset fills n bytes at base with v.
func (d *Device) Memset(base int64, v byte, n int) error {
	if base < 0 || base+int64(n) > int64(len(d.mem)) {
		return &FaultError{Addr: base, Op: "memset"}
	}
	for i := int64(0); i < int64(n); i++ {
		d.mem[base+i] = v
	}
	d.touch(base + int64(n))
	return nil
}

// CopyIn copies host bytes into device memory at base.
func (d *Device) CopyIn(base int64, data []byte) error {
	if base < 0 || base+int64(len(data)) > int64(len(d.mem)) {
		return &FaultError{Addr: base, Op: "copyin"}
	}
	copy(d.mem[base:], data)
	d.touch(base + int64(len(data)))
	return nil
}

// CopyOut copies n device bytes at base back to the host.
func (d *Device) CopyOut(base int64, n int) ([]byte, error) {
	if base < 0 || base+int64(n) > int64(len(d.mem)) {
		return nil, &FaultError{Addr: base, Op: "copyout"}
	}
	out := make([]byte, n)
	copy(out, d.mem[base:])
	return out, nil
}

// Typed host-side accessors, the analog of cudaMemcpy of typed arrays.

// WriteI32s stores a []int32 at base.
func (d *Device) WriteI32s(base int64, vals []int32) error {
	buf := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(buf[4*i:], uint32(v))
	}
	return d.CopyIn(base, buf)
}

// ReadI32s loads n int32 values from base.
func (d *Device) ReadI32s(base int64, n int) ([]int32, error) {
	buf, err := d.CopyOut(base, 4*n)
	if err != nil {
		return nil, err
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(buf[4*i:]))
	}
	return out, nil
}

// WriteF64s stores a []float64 at base.
func (d *Device) WriteF64s(base int64, vals []float64) error {
	buf := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[8*i:], math.Float64bits(v))
	}
	return d.CopyIn(base, buf)
}

// ReadF64s loads n float64 values from base.
func (d *Device) ReadF64s(base int64, n int) ([]float64, error) {
	buf, err := d.CopyOut(base, 8*n)
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[8*i:]))
	}
	return out, nil
}

// WriteBytes stores raw bytes at base (for i8 arrays such as sequences).
func (d *Device) WriteBytes(base int64, data []byte) error { return d.CopyIn(base, data) }

// ReadBytes loads n bytes from base.
func (d *Device) ReadBytes(base int64, n int) ([]byte, error) { return d.CopyOut(base, n) }

// load reads a typed value from global memory; it reports a fault when the
// access leaves the arena.
func (d *Device) load(t ir.Type, addr int64) (uint64, bool) {
	n := int64(t.Size())
	if addr < 0 || addr+n > int64(len(d.mem)) {
		return 0, false
	}
	return loadMem(d.mem, t, addr), true
}

// store writes a typed value to global memory; it reports a fault when the
// access leaves the arena.
func (d *Device) store(t ir.Type, addr int64, v uint64) bool {
	n := int64(t.Size())
	if addr < 0 || addr+n > int64(len(d.mem)) {
		return false
	}
	storeMem(d.mem, t, addr, v)
	d.touch(addr + n)
	return true
}

// loadMem reads a typed value from a byte slice at addr (bounds already
// checked). Integer values are sign-extended to 64 bits.
func loadMem(mem []byte, t ir.Type, addr int64) uint64 {
	switch t {
	case ir.I1:
		return uint64(mem[addr] & 1)
	case ir.I8:
		return uint64(int64(int8(mem[addr])))
	case ir.I32:
		return uint64(int64(int32(binary.LittleEndian.Uint32(mem[addr:]))))
	case ir.I64, ir.F64:
		return binary.LittleEndian.Uint64(mem[addr:])
	default:
		return 0
	}
}

// storeMem writes a typed value into a byte slice at addr (bounds already
// checked).
func storeMem(mem []byte, t ir.Type, addr int64, v uint64) {
	switch t {
	case ir.I1:
		mem[addr] = byte(v & 1)
	case ir.I8:
		mem[addr] = byte(v)
	case ir.I32:
		binary.LittleEndian.PutUint32(mem[addr:], uint32(v))
	case ir.I64, ir.F64:
		binary.LittleEndian.PutUint64(mem[addr:], v)
	}
}

// FaultError reports an access outside the device arena — the simulator's
// segmentation fault (Fig 10b).
type FaultError struct {
	Kernel string
	Addr   int64
	Op     string
	UID    int
}

func (e *FaultError) Error() string {
	if e.Kernel == "" {
		return fmt.Sprintf("gpu: fault: %s at address %#x", e.Op, e.Addr)
	}
	return fmt.Sprintf("gpu: fault in kernel %s: %s at address %#x (instr %%%d)", e.Kernel, e.Op, e.Addr, e.UID)
}

// TimeoutError reports a kernel exceeding its dynamic instruction budget
// (typically a mutation-induced infinite loop): the launch executed Budget
// warp-instructions without finishing, or — threaded backend only — a warp
// was proven never to finish, so it would have (transferT, dispatch.go). The
// two are deliberately the same value with the same text: no fitness, digest
// or log line depends on which backend or which of the two stopped the
// launch. What it executed is in EvalStats.FailedDynInstrs.
type TimeoutError struct {
	Kernel string
	Budget int64
}

func (e *TimeoutError) Error() string {
	return fmt.Sprintf("gpu: kernel %s exceeded dynamic instruction budget %d", e.Kernel, e.Budget)
}

// ExecError reports a malformed program detected during execution (e.g. a
// phi with no incoming for the taken edge after mutation).
type ExecError struct {
	Kernel string
	Msg    string
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("gpu: kernel %s: %s", e.Kernel, e.Msg)
}
