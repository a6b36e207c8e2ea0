package synth

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"gevo/internal/gpu"
	"gevo/internal/ir"
	"gevo/internal/rng"
)

// scenario is one fully generated kernel family instance: the kernel, its
// launch geometry, the dataset generator and the host-side oracle. The
// oracle mirrors the kernel's operation order exactly (same float
// additions in the same order, same integer widths), so base-program
// output and oracle output must agree bit for bit.
type scenario struct {
	fn     *ir.Function
	source []string
	grid   int
	block  int
	// gen produces the input buffer images for one dataset.
	gen func(r *rng.R) [][]byte
	// outLen is the output buffer size in bytes.
	outLen int
	// args packs the launch arguments from the device addresses of the
	// input buffers (in gen order) and the output buffer.
	args func(in []int64, out int64) []uint64
	// oracle computes the expected output bytes for a dataset.
	oracle func(in [][]byte) []byte
}

// dataset is one generated input instance plus its golden output.
type dataset struct {
	in     [][]byte
	golden []byte
}

// Workload is a generated scenario wired to the fitness/validation contract
// the evolutionary engine expects (it satisfies workload.Workload
// structurally; internal/workload registers it under its synth: name).
// Fitness runs the variant on the fitness dataset and demands byte-exact
// golden output; validation repeats that on an independently generated
// held-out dataset.
type Workload struct {
	spec Spec
	// name is spec.Name(), rendered once: the pool asks for it on every
	// evaluation.
	name     string
	sc       *scenario
	base     *ir.Module
	baseProg *gpu.Program
	fit      *dataset
	hold     *dataset
	// budget bounds dynamic instructions per launch, derived from the base
	// program's measured dynamic instruction count so mutation-induced
	// runaway loops die quickly at any problem size.
	budget int64
}

// New generates the scenario addressed by the spec: builds the kernel,
// verifies the module, generates both datasets, computes their oracle
// outputs, and cross-checks the oracle against the reference interpreter
// running the base program. Any disagreement is a generator bug and fails
// construction.
func New(sp Spec) (*Workload, error) {
	f := familyByName(sp.Family)
	if f == nil {
		return nil, fmt.Errorf("synth: unknown family %q (known: %s)", sp.Family, FamilyNames)
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.N == 0 {
		sp.N = f.defN
	}
	if err := sp.validate(f); err != nil {
		return nil, err
	}
	sc := f.build(sp, sp.shapeRng())
	name := sp.Name()
	m := &ir.Module{Name: name, Funcs: []*ir.Function{sc.fn}, Source: sc.source}
	// Strict verification: a generator has no business emitting unreachable
	// blocks, unlike a mutant (for which plain Verify tolerates them).
	if err := m.VerifyStrict(); err != nil {
		return nil, fmt.Errorf("synth: generated module %s fails verification: %w", name, err)
	}
	w := &Workload{spec: sp, name: name, sc: sc, base: m}
	prog, err := gpu.Prepare(m)
	if err != nil {
		return nil, fmt.Errorf("synth: %s: %w", name, err)
	}
	w.baseProg = prog

	for sel, slot := range []**dataset{&w.fit, &w.hold} {
		ds := &dataset{in: sc.gen(sp.dataRng(uint64(sel)))}
		ds.golden = sc.oracle(ds.in)
		if len(ds.golden) != sc.outLen {
			return nil, fmt.Errorf("synth: %s: oracle produced %d bytes, scenario declares %d", name, len(ds.golden), sc.outLen)
		}
		*slot = ds
	}

	// Oracle cross-check: the base program, executed by the reference
	// interpreter, must reproduce the host oracle bit for bit on both
	// datasets. The measured dynamic instruction count sizes the runaway
	// budget for search-time variants.
	for _, ds := range []*dataset{w.fit, w.hold} {
		res, out, err := w.launch(m, gpu.P100, ds, gpu.BackendInterp, 0, nil)
		if err != nil {
			return nil, fmt.Errorf("synth: %s: base program failed its oracle run: %w", name, err)
		}
		if i := firstDiff(out, ds.golden); i >= 0 {
			return nil, fmt.Errorf("synth: %s: base output disagrees with the host oracle at byte %d (got %#x, want %#x)",
				name, i, out[i], ds.golden[i])
		}
		if b := res.DynInstrs*budgetHeadroom + budgetFloor; b > w.budget {
			w.budget = b
		}
	}
	return w, nil
}

// Budget headroom: a mutant may legitimately be slower than the base, but a
// variant doing 32x the base's dynamic work is a runaway, not a candidate.
const (
	budgetHeadroom = 32
	budgetFloor    = int64(1 << 14)
)

// Name implements Workload: the canonical spec name.
func (w *Workload) Name() string { return w.name }

// Spec returns the generating spec.
func (w *Workload) Spec() Spec { return w.spec }

// Base implements Workload.
func (w *Workload) Base() *ir.Module { return w.base }

// Kernel returns the generated kernel's name.
func (w *Workload) Kernel() string { return w.sc.fn.Name }

// prepare short-circuits the content hash for the immutable base module,
// like the application workloads do.
func (w *Workload) prepare(m *ir.Module, st *gpu.EvalStats) (*gpu.Program, error) {
	if m == w.base && w.baseProg != nil {
		if st != nil {
			st.ProgramHits++
		}
		return w.baseProg, nil
	}
	return gpu.PrepareStats(m, st)
}

// Evaluate implements Workload: run the variant on the fitness dataset and
// demand byte-exact golden output; fitness is simulated kernel time.
func (w *Workload) Evaluate(m *ir.Module, arch *gpu.Arch) (float64, error) {
	return w.EvaluateCosted(m, arch, nil)
}

// EvaluateCosted implements workload.Costed: Evaluate with a per-evaluation
// stats handle threaded through the launch path and the program cache.
func (w *Workload) EvaluateCosted(m *ir.Module, arch *gpu.Arch, st *gpu.EvalStats) (float64, error) {
	return w.evaluate(m, arch, w.fit, gpu.BackendAuto, st)
}

// Validate implements Workload: the held-out dataset must also reproduce
// its golden output exactly.
func (w *Workload) Validate(m *ir.Module, arch *gpu.Arch) error {
	_, err := w.evaluate(m, arch, w.hold, gpu.BackendAuto, nil)
	return err
}

// EvaluateBackend is Evaluate on an explicit execution backend, without
// touching the process-wide default — the hook the differential corpus
// tests and the suite runner are built on.
func (w *Workload) EvaluateBackend(m *ir.Module, arch *gpu.Arch, b gpu.Backend) (float64, error) {
	return w.evaluate(m, arch, w.fit, b, nil)
}

func (w *Workload) evaluate(m *ir.Module, arch *gpu.Arch, ds *dataset, b gpu.Backend, st *gpu.EvalStats) (float64, error) {
	res, out, err := w.launchStats(m, arch, ds, b, w.budget, nil, st)
	if err != nil {
		return 0, err
	}
	if i := firstDiff(out, ds.golden); i >= 0 {
		return 0, &MismatchError{Name: w.Name(), Offset: i, Got: out[i], Want: ds.golden[i]}
	}
	return res.TimeMS, nil
}

// EvaluateProfiled is Evaluate plus a per-kernel instruction profile
// recorded through the reference interpreter — the workload.Profiler hook
// the diagnosis layer keys on. The fitness dataset and golden check are the
// same as Evaluate's; only the backend differs (profiling forces interp).
func (w *Workload) EvaluateProfiled(m *ir.Module, arch *gpu.Arch) (float64, map[string]*gpu.Profile, error) {
	prog, err := w.prepare(m, nil)
	if err != nil {
		return 0, nil, err
	}
	k := prog.Kernels[w.sc.fn.Name]
	if k == nil {
		return 0, nil, fmt.Errorf("synth: module lacks kernel %s", w.sc.fn.Name)
	}
	prof := gpu.NewProfile(k)
	res, out, err := w.launch(m, arch, w.fit, gpu.BackendInterp, w.budget, prof)
	if err != nil {
		return 0, nil, err
	}
	if i := firstDiff(out, w.fit.golden); i >= 0 {
		return 0, nil, &MismatchError{Name: w.Name(), Offset: i, Got: out[i], Want: w.fit.golden[i]}
	}
	return res.TimeMS, map[string]*gpu.Profile{w.sc.fn.Name: prof}, nil
}

// launch allocates the datasets on a fresh pooled device, runs the module's
// kernel once, and returns the launch result plus the output bytes.
func (w *Workload) launch(m *ir.Module, arch *gpu.Arch, ds *dataset, b gpu.Backend, budget int64, prof *gpu.Profile) (*gpu.Result, []byte, error) {
	return w.launchStats(m, arch, ds, b, budget, prof, nil)
}

func (w *Workload) launchStats(m *ir.Module, arch *gpu.Arch, ds *dataset, b gpu.Backend, budget int64, prof *gpu.Profile, st *gpu.EvalStats) (*gpu.Result, []byte, error) {
	prog, err := w.prepare(m, st)
	if err != nil {
		return nil, nil, err
	}
	k := prog.Kernels[w.sc.fn.Name]
	if k == nil {
		return nil, nil, fmt.Errorf("synth: module lacks kernel %s", w.sc.fn.Name)
	}
	d := gpu.AcquireDevice(arch)
	defer d.Release()
	d.Stats = st
	return w.run(d, k, ds, b, budget, prof)
}

// run copies the dataset into d's arena, launches k once and returns the
// launch result plus the output bytes. On an empty arena the addresses,
// and so the launch signature, are the same on every call.
func (w *Workload) run(d *gpu.Device, k *gpu.Kernel, ds *dataset, b gpu.Backend, budget int64, prof *gpu.Profile) (*gpu.Result, []byte, error) {
	addrs := make([]int64, len(ds.in))
	for i, img := range ds.in {
		base, err := d.Alloc(len(img))
		if err != nil {
			return nil, nil, err
		}
		if err := d.CopyIn(base, img); err != nil {
			return nil, nil, err
		}
		addrs[i] = base
	}
	outBase, err := d.Alloc(w.sc.outLen)
	if err != nil {
		return nil, nil, err
	}
	cfg := gpu.LaunchConfig{
		Grid: w.sc.grid, Block: w.sc.block,
		Args: w.sc.args(addrs, outBase), MaxDynInstr: budget, Backend: b,
		Profile: prof,
	}
	res, err := d.Launch(k, cfg)
	if err != nil {
		return nil, nil, err
	}
	out, err := d.ReadBytes(outBase, w.sc.outLen)
	if err != nil {
		return nil, nil, err
	}
	return res, out, nil
}

// MismatchError reports a variant whose output differs from the golden
// bytes — the synthetic analog of "fails one or more test cases".
type MismatchError struct {
	Name   string
	Offset int
	Got    byte
	Want   byte
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("%s: output mismatch at byte %d: %#x, want %#x", e.Name, e.Offset, e.Got, e.Want)
}

func firstDiff(got, want []byte) int {
	if bytes.Equal(got, want) {
		return -1
	}
	n := min(len(got), len(want))
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return i
		}
	}
	return n
}

// Little-endian typed buffer helpers shared by the family generators.

func f64Bytes(vals []float64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

func f64sOf(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func i64Bytes(vals []int64) []byte {
	out := make([]byte, 8*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
	return out
}

func i64sOf(b []byte) []int64 {
	out := make([]int64, len(b)/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}

func i32Bytes(vals []int32) []byte {
	out := make([]byte, 4*len(vals))
	for i, v := range vals {
		binary.LittleEndian.PutUint32(out[4*i:], uint32(v))
	}
	return out
}

func i32sOf(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
}

// rand01 maps the next generator draw to [0,1) the way the SIMCoV kernels
// do; dataset floats use it so values are well-scaled but arbitrary.
func rand01(r *rng.R) float64 {
	return float64(r.Uint64()>>11) * (1.0 / (1 << 53))
}
