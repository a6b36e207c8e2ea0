package main

import (
	"runtime"
	"testing"
)

// The reference work must not disturb what it measures beside: its state
// lives outside the Go heap, a sample allocates nothing, and every sample
// records one wall and one CPU figure that yield a positive pace.
func TestPacer(t *testing.T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := newPacer(2)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew > 64<<10 {
		t.Errorf("newPacer grew the Go heap by %d bytes; the reference state belongs outside it", grew)
	}
	if n := testing.AllocsPerRun(2, func() { p.work(p.lane[0]) }); n != 0 {
		t.Errorf("reference work allocates %v times per sample", n)
	}
	p.sampleFor(0)
	p.sampleFor(2.2 * refEvery)
	if len(p.wall) != 3 || len(p.cpu) != 3 {
		t.Fatalf("1 + 2 samples recorded %d wall and %d cpu figures", len(p.wall), len(p.cpu))
	}
	if wall, cpu := p.pace(); wall <= 0 || cpu <= 0 {
		t.Errorf("pace %v wall, %v cpu", wall, cpu)
	}
}
