package main

import (
	"fmt"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// The host this benchmark runs on is a few cores of a shared machine, and
// the same instructions take 10-40 % longer there for minutes at a time
// (user CPU time with them: it is the core and the memory system that slow
// down, not the scheduler; now and then a core is taken away altogether).
// A time measured in such a spell says more about the neighbours than about
// the program, so a run measures the host too: before every set-up and
// every round it runs a small fixed piece of reference work that shares no
// code with the program under test, and every end-to-end time is divided by
// the run's pace — the median time the reference work took in this run over
// the time it takes on the same host when quiet. On a quiet host the pace is
// 1 and the times are plain seconds; when the host slows everything by a
// fifth the pace is 1.2 and the reported times stay where they were.
//
// The reference work is two kernels of about 20 ms each, because the host
// slows different code by different amounts: an interpreter-like dispatch
// loop over cache-resident arrays (core speed) and read-modify-writes at
// random places of an 8 MiB table (cache, TLB and memory). The reference
// memory is mapped outside the Go heap and the kernels allocate nothing, so
// the reference neither shows in live_heap_mb nor moves the program's
// garbage collections. README.md gives the measurements behind this.

const (
	refDispatchSteps = 1_500_000
	refTableOps      = 2_800_000

	refCodeLen  = 1 << 14 // uint32 entries, shared
	refDataLen  = 1 << 12 // uint64 entries per goroutine: 32 KiB
	refTableLen = 1 << 20 // uint64 entries per goroutine: 8 MiB
)

// quietRefSeconds is what one sample of the reference work takes, in wall
// time and in process CPU time per goroutine alike, on the 2-vCPU hosts the
// benchmark is gated on when they are quiet (the low end of some hundred
// runs). On other hardware it is off by a constant factor, and so is every
// reported time — by the same factor on the parent commit and on the change.
const quietRefSeconds = 0.0350

// pacer runs the reference work and keeps its samples.
type pacer struct {
	code []uint32
	lane []*refLane
	// wall and cpu hold one entry per sample: seconds of wall time, and
	// process CPU seconds per goroutine.
	wall, cpu []float64
}

// refLane is one goroutine's share of the reference state.
type refLane struct {
	data, table []uint64
	x, sink     uint64
}

// offHeap maps n zeroed 8-byte words outside the Go heap. The mapping lives
// as long as the process.
func offHeap(n int) ([]uint64, error) {
	b, err := syscall.Mmap(-1, 0, 8*n, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("reference work: %w", err)
	}
	return unsafe.Slice((*uint64)(unsafe.Pointer(&b[0])), n), nil
}

func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

// newPacer builds the reference state for the given number of goroutines —
// as many as the workload drives — with the same bytes in every run.
func newPacer(lanes int) (*pacer, error) {
	p := &pacer{}
	shared, err := offHeap(refCodeLen / 2)
	if err != nil {
		return nil, err
	}
	p.code = unsafe.Slice((*uint32)(unsafe.Pointer(&shared[0])), refCodeLen)
	x := uint64(0x9E3779B97F4A7C15)
	for i := range p.code {
		x = xorshift(x)
		p.code[i] = uint32(x)
	}
	for l := 0; l < lanes; l++ {
		own, err := offHeap(refDataLen + refTableLen)
		if err != nil {
			return nil, err
		}
		for i := range own {
			x = xorshift(x)
			own[i] = x
		}
		p.lane = append(p.lane, &refLane{data: own[:refDataLen], table: own[refDataLen:], x: x})
	}
	return p, nil
}

// work is one goroutine's share of one sample.
func (p *pacer) work(rl *refLane) {
	// Dispatch loop: fetch, decode, branch, small loads and stores.
	acc, pc := uint64(1), 0
	for i := 0; i < refDispatchSteps; i++ {
		op := p.code[pc&(refCodeLen-1)]
		a := int(op>>8) & (refDataLen - 1)
		switch op & 7 {
		case 0:
			acc += rl.data[a]
		case 1:
			acc ^= rl.data[a] >> 3
		case 2:
			rl.data[a] = acc
		case 3:
			acc = acc*6364136223846793005 + 1442695040888963407
		case 4:
			if acc&1 == 0 {
				pc += int(op >> 20 & 15)
			}
		case 5:
			acc -= rl.data[(a+int(acc&255))&(refDataLen-1)]
		case 6:
			acc = acc<<7 | acc>>57
		case 7:
			rl.data[a] += acc
		}
		pc++
	}
	// Independent read-modify-writes all over the goroutine's own table.
	x := rl.x
	for i := 0; i < refTableOps; i++ {
		x = xorshift(x)
		rl.table[x&(refTableLen-1)] += x >> 20
	}
	rl.x = x
	rl.sink += acc
}

// sample runs the reference work once, on as many goroutines at once as the
// workload drives, and records how long it took.
func (p *pacer) sample() {
	cpu0, t0 := cpuSeconds(), time.Now()
	var wg sync.WaitGroup
	for _, rl := range p.lane[1:] {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.work(rl)
		}()
	}
	p.work(p.lane[0])
	wg.Wait()
	p.wall = append(p.wall, time.Since(t0).Seconds())
	p.cpu = append(p.cpu, (cpuSeconds()-cpu0)/float64(len(p.lane)))
}

// refEvery is how much measured work one sample of the reference work
// stands for: the reference takes about a tenth of a run.
const refEvery = 0.4

// sampleFor samples the host after work that took the given seconds: once
// per refEvery of it, at least once.
func (p *pacer) sampleFor(seconds float64) {
	for n := max(1, int(seconds/refEvery+0.5)); n > 0; n-- {
		p.sample()
	}
}

// pace is the run's pace in wall time and in CPU time.
func (p *pacer) pace() (wall, cpu float64) {
	return median(p.wall) / quietRefSeconds, median(p.cpu) / quietRefSeconds
}
