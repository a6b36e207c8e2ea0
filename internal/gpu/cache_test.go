package gpu

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"testing"

	"gevo/internal/ir"
	"gevo/internal/obs"
)

func vecAddModule() *ir.Module {
	return &ir.Module{Name: "m", Funcs: []*ir.Function{buildVecAdd()}}
}

func TestHashModuleContentAddressed(t *testing.T) {
	m := vecAddModule()
	clone := m.Clone()
	if HashModule(m) != HashModule(clone) {
		t.Error("identical content must hash equal")
	}

	// Any executable change must change the hash.
	edited := m.Clone()
	f := edited.Funcs[0]
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			for i, a := range in.Args {
				if a.Kind == ir.OperConst {
					in.Args[i].Const++
					if HashModule(m) == HashModule(edited) {
						t.Error("constant change must change the hash")
					}
					return
				}
			}
		}
	}
}

// TestCompileEventCarriesStageTimes: with a sink attached, a cache miss is a
// gpu.compile span opened under the evaluation's span whose end splits the
// build into verify, lower and finalize, and the trace export's gpu.compile
// slice shows the split in its args — "which stage of prepare regressed" is
// answerable from a shipped trace. gevo_gpu_compile_seconds gains one
// observation per miss while the sink is attached, none for a hit and none
// for a miss without a sink.
func TestCompileEventCarriesStageTimes(t *testing.T) {
	c := obs.NewCollector(obs.NewRegistry(), 64)
	eval := obs.StartSpanFrom(obs.SpanContext{}, c, "pool.eval")
	cache := NewProgramCache()
	observed := metricCompileSeconds.Count()
	SetSink(c)
	defer SetSink(nil)
	if _, err := cache.PrepareStats(vecAddModule(), &EvalStats{Parent: eval.Context()}); err != nil {
		t.Fatal(err)
	}
	if _, err := cache.Prepare(vecAddModule()); err != nil { // a hit
		t.Fatal(err)
	}
	if got := metricCompileSeconds.Count() - observed; got != 1 {
		t.Errorf("compile histogram gained %d observations for one miss and one hit, want 1", got)
	}
	SetSink(nil)
	other := vecAddModule()
	other.Funcs[0].Name = "other"
	if _, err := cache.Prepare(other); err != nil { // a miss, untraced
		t.Fatal(err)
	}
	if got := metricCompileSeconds.Count() - observed; got != 1 {
		t.Errorf("compile histogram gained %d observations, want 1: an untraced miss is not timed", got)
	}
	eval.End()

	stages := []string{"verify_us", "lower_us", "finalize_us"}
	attrs := func(rec obs.Record) map[string]string {
		m := map[string]string{}
		for _, a := range rec.Attrs {
			m[a.K] = a.V
		}
		return m
	}
	var begin, have map[string]string
	for _, rec := range c.Records() {
		switch a := attrs(rec); {
		case rec.Type == "span.begin" && a["name"] == "gpu.compile":
			begin = a
		case rec.Type == "span.end" && begin != nil && a["span"] == begin["span"]:
			have = a
		}
	}
	if begin == nil || have == nil {
		t.Fatal("no gpu.compile span in the journal")
	}
	if begin["parent"] != eval.Context().SpanID || begin["trace"] != eval.Context().TraceID {
		t.Errorf("gpu.compile span opened under %s on trace %s, want the eval span %+v",
			begin["parent"], begin["trace"], eval.Context())
	}
	for _, k := range stages {
		if us, err := strconv.ParseInt(have[k], 10, 64); err != nil || us < 0 {
			t.Errorf("gpu.compile span end attr %s = %q, want a non-negative integer", k, have[k])
		}
	}

	var trace strings.Builder
	if err := c.WriteChromeTrace(&trace); err != nil {
		t.Fatal(err)
	}
	var evs []struct {
		Name string            `json:"name"`
		Args map[string]string `json:"args"`
	}
	if err := json.Unmarshal([]byte(trace.String()), &evs); err != nil {
		t.Fatal(err)
	}
	slices := 0
	for _, ev := range evs {
		if ev.Name != "gpu.compile" {
			continue
		}
		slices++
		for _, k := range append(stages, "ok") {
			if ev.Args[k] != have[k] {
				t.Errorf("gpu.compile slice arg %s = %q, span end has %q", k, ev.Args[k], have[k])
			}
		}
		if ev.Args["module"] != begin["module"] {
			t.Errorf("gpu.compile slice arg module = %q, span begin has %q", ev.Args["module"], begin["module"])
		}
	}
	if slices != 1 {
		t.Errorf("%d gpu.compile slices in the trace, want 1", slices)
	}
}

func TestPrepareCachesByContent(t *testing.T) {
	c := NewProgramCache()
	m := vecAddModule()
	p1, err := c.Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	// A clone with identical content hits the same compiled program.
	p2, err := c.Prepare(m.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("content-identical modules should share one compiled program")
	}
	if p1.Kernels["vecadd"] == nil {
		t.Fatal("missing compiled kernel")
	}

	// A structurally different module compiles separately.
	edited := m.Clone()
	edited.Funcs[0].Name = "other"
	p3, err := c.Prepare(edited)
	if err != nil {
		t.Fatal(err)
	}
	if p3 == p1 {
		t.Error("distinct content must not share a compiled program")
	}
}

func TestPrepareSingleFlight(t *testing.T) {
	c := NewProgramCache()
	m := vecAddModule()
	const n = 16
	progs := make([]*Program, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Prepare(m.Clone())
			if err != nil {
				t.Error(err)
				return
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if progs[i] != progs[0] {
			t.Fatal("concurrent Prepare must converge on one compiled program")
		}
	}
}

func TestPrepareCachesVerifyErrors(t *testing.T) {
	c := NewProgramCache()
	m := vecAddModule()
	// Truncate the entry block's terminator to invalidate the function.
	blk := m.Funcs[0].Blocks[len(m.Funcs[0].Blocks)-1]
	blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
	if _, err := c.Prepare(m); err == nil {
		t.Fatal("invalid module must fail Prepare")
	}
	if _, err := c.Prepare(m.Clone()); err == nil {
		t.Fatal("cached error must still be an error")
	}
}

// TestDevicePoolBitIdentical checks the pooled-device guarantee: a recycled
// device behaves exactly like a fresh one — zeroed arena, full capacity,
// identical launch results.
func TestDevicePoolBitIdentical(t *testing.T) {
	prog, err := Prepare(vecAddModule())
	if err != nil {
		t.Fatal(err)
	}
	k := prog.Kernels["vecadd"]

	runOnce := func(d *Device) (float64, []int32) {
		t.Helper()
		n := 70
		a, _ := d.Alloc(4 * n)
		b, _ := d.Alloc(4 * n)
		out, _ := d.Alloc(4 * n)
		av := make([]int32, n)
		bv := make([]int32, n)
		for i := range av {
			av[i] = int32(i)
			bv[i] = int32(2 * i)
		}
		if err := d.WriteI32s(a, av); err != nil {
			t.Fatal(err)
		}
		if err := d.WriteI32s(b, bv); err != nil {
			t.Fatal(err)
		}
		res, err := d.Launch(k, LaunchConfig{
			Grid: 2, Block: 64,
			Args: PackArgs(uint64(a), uint64(b), uint64(out), n),
		})
		if err != nil {
			t.Fatal(err)
		}
		got, err := d.ReadI32s(out, n)
		if err != nil {
			t.Fatal(err)
		}
		return res.Cycles, got
	}

	fresh := NewDevice(P100)
	wantCycles, wantOut := runOnce(fresh)

	d1 := AcquireDevice(P100)
	runOnce(d1)
	d1.Release()

	d2 := AcquireDevice(P100)
	if d2.FreeBytes() != d2.MemBytes() {
		t.Errorf("recycled device not empty: %d free of %d", d2.FreeBytes(), d2.MemBytes())
	}
	probe, err := d2.ReadBytes(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range probe {
		if b != 0 {
			t.Fatalf("recycled arena dirty at byte %d", i)
		}
	}
	gotCycles, gotOut := runOnce(d2)
	d2.Release()

	if gotCycles != wantCycles {
		t.Errorf("recycled device cycles %v != fresh %v", gotCycles, wantCycles)
	}
	for i := range wantOut {
		if gotOut[i] != wantOut[i] {
			t.Fatalf("recycled device output[%d] = %d, want %d", i, gotOut[i], wantOut[i])
		}
	}
	for i := range gotOut {
		if want := int32(3 * i); gotOut[i] != want {
			t.Fatalf("vecadd output[%d] = %d, want %d", i, gotOut[i], want)
		}
	}
}
