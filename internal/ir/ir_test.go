package ir

import (
	"strings"
	"testing"
	"testing/quick"
)

// buildSample constructs a small function exercising most IR features.
func buildSample() *Function {
	b := NewBuilder("sample")
	pOut := b.Param("out", I64)
	pN := b.Param("n", I32)
	sh := b.SharedArray("buf", 64, 4)

	b.Block("entry")
	tid := b.Special(SpecialTID)
	cond := b.ICmp(PredLT, tid, pN)
	b.CondBr(cond, "loop", "exit")

	b.Block("loop")
	i := b.Phi(I32)
	acc := b.Phi(I32)
	i1 := b.Add(i.Result(), b.I32(1))
	acc1 := b.Add(acc.Result(), i.Result())
	b.Store(SpaceShared, acc1, b.SharedAddr(sh, tid, 4))
	b.Barrier()
	more := b.ICmp(PredLT, i1, pN)
	b.CondBr(more, "loop", "done")
	b.AddIncoming(i, "entry", b.I32(0))
	b.AddIncoming(i, "loop", i1)
	b.AddIncoming(acc, "entry", b.I32(0))
	b.AddIncoming(acc, "loop", acc1)

	b.Block("done")
	fin := b.Phi(I32, Incoming{Block: "loop", Val: acc1})
	v := b.Load(I32, SpaceShared, b.SharedAddr(sh, tid, 4))
	sum := b.Add(fin.Result(), v)
	fl := b.SIToFP(sum)
	fl2 := b.FMul(fl, ConstFloat(0.5))
	iv := b.FPToSI(I32, fl2)
	b.Store(SpaceGlobal, iv, b.GlobalIdx(pOut, tid, 4))
	b.Br("exit")

	b.Block("exit")
	b.Ret()
	return b.Finish()
}

func TestVerifySample(t *testing.T) {
	f := buildSample()
	if err := f.Verify(); err != nil {
		t.Fatalf("sample should verify: %v", err)
	}
}

func TestPrintParseRoundTrip(t *testing.T) {
	m := &Module{Name: "sample", Funcs: []*Function{buildSample()}}
	text := m.String()
	m2, err := Parse(text)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, text)
	}
	text2 := m2.String()
	if text != text2 {
		t.Errorf("round trip differs:\n--- first\n%s\n--- second\n%s", text, text2)
	}
	if err := m2.Verify(); err != nil {
		t.Errorf("parsed module fails verification: %v", err)
	}
}

func TestVerifyRejectsUseBeforeDef(t *testing.T) {
	f := buildSample()
	// Make the entry comparison use a value defined later (in "done").
	var late int
	for _, in := range f.BlockByName("done").Instrs {
		if in.Typ == I32 {
			late = in.UID
			break
		}
	}
	f.Blocks[0].Instrs[0].Args[0] = Reg(late, I32)
	if err := f.Verify(); err == nil {
		t.Fatal("use-before-def should fail verification")
	}
}

// TestVerifyUIDTables walks the edges of the UID-indexed tables: a UID at or
// past NextUID, a negative one, a duplicate, and operands referring outside
// the table or to a UID nothing carries must each fail cleanly, never index
// out of range.
func TestVerifyUIDTables(t *testing.T) {
	firstArg := func(f *Function) *Operand { return &f.Blocks[0].Instrs[0].Args[0] }
	for _, c := range []struct {
		name   string
		mutate func(f *Function)
		want   string
	}{
		{"UID past NextUID", func(f *Function) { f.Blocks[0].Instrs[0].UID = f.NextUID }, ">= NextUID"},
		{"negative UID", func(f *Function) { f.Blocks[0].Instrs[0].UID = -1 }, "negative UID"},
		{"duplicate UID", func(f *Function) { f.Blocks[0].Instrs[1].UID = f.Blocks[0].Instrs[0].UID }, "duplicate UID"},
		{"ref past the table", func(f *Function) { *firstArg(f) = Reg(f.NextUID+7, I32) }, "does not dominate"},
		{"negative ref", func(f *Function) { *firstArg(f) = Reg(-3, I32) }, "does not dominate"},
		{"ref to an unused UID", func(f *Function) { f.NextUID++; *firstArg(f) = Reg(f.NextUID-1, I32) }, "does not dominate"},
	} {
		f := buildSample()
		c.mutate(f)
		err := f.Verify()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Verify() = %v, want an error containing %q", c.name, err, c.want)
		}
	}
}

func TestVerifyRejectsTypeMismatch(t *testing.T) {
	f := buildSample()
	// Claim an i32 value is i1 in a branch condition.
	for _, blk := range f.Blocks {
		for _, in := range blk.Instrs {
			if in.Op == OpCondBr {
				// Point the condition at an i32-producing instruction.
				for _, in2 := range blk.Instrs {
					if in2.Typ == I32 {
						in.Args[0] = Reg(in2.UID, I1)
					}
				}
			}
		}
	}
	if err := f.Verify(); err == nil {
		t.Fatal("operand type mismatch should fail verification")
	}
}

func TestVerifyRejectsMissingTerminator(t *testing.T) {
	f := buildSample()
	blk := f.Blocks[0]
	blk.Instrs = blk.Instrs[:len(blk.Instrs)-1]
	if err := f.Verify(); err == nil {
		t.Fatal("missing terminator should fail verification")
	}
}

func TestVerifyRejectsUnknownSuccessor(t *testing.T) {
	f := buildSample()
	f.Blocks[0].Terminator().Succs[0] = "nowhere"
	if err := f.Verify(); err == nil {
		t.Fatal("unknown successor should fail verification")
	}
}

func TestVerifyRejectsPhiMissingIncoming(t *testing.T) {
	f := buildSample()
	loop := f.BlockByName("loop")
	loop.Instrs[0].Inc = loop.Instrs[0].Inc[:1] // drop one incoming
	if err := f.Verify(); err == nil {
		t.Fatal("phi with missing incoming should fail verification")
	}
}

func TestCloneIsDeep(t *testing.T) {
	f := buildSample()
	c := f.Clone()
	c.Blocks[0].Instrs[0].Args[0] = ConstInt(I32, 123)
	if f.Blocks[0].Instrs[0].Args[0].Equal(c.Blocks[0].Instrs[0].Args[0]) {
		t.Fatal("clone shares instruction storage with original")
	}
	if c.NextUID != f.NextUID {
		t.Fatal("clone must preserve NextUID")
	}
}

func TestDominators(t *testing.T) {
	f := buildSample()
	d := ComputeDom(f)
	g := NewCFG(f)
	cases := []struct {
		a, b string
		want bool
	}{
		{"entry", "loop", true},
		{"entry", "done", true},
		{"entry", "exit", true},
		{"loop", "done", true},
		{"done", "loop", false},
		{"loop", "exit", false}, // exit reachable from entry directly
		{"exit", "exit", true},
	}
	for _, c := range cases {
		if got := d.Dominates(c.a, c.b); got != c.want {
			t.Errorf("oracle Dominates(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
		ai, _ := g.BlockIndex(c.a)
		bi, _ := g.BlockIndex(c.b)
		if got := g.Dominates(ai, bi); got != c.want {
			t.Errorf("Dominates(%s, %s) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

func TestPostDominators(t *testing.T) {
	f := buildSample()
	p := ComputePostDom(f)
	g := NewCFG(f)
	for _, c := range []struct{ block, want string }{
		{"entry", "exit"}, {"loop", "done"}, {"exit", ""}, // "" = virtual exit
	} {
		if ip := p.IPdom(c.block); ip != c.want {
			t.Errorf("oracle ipdom(%s) = %q, want %q", c.block, ip, c.want)
		}
		bi, _ := g.BlockIndex(c.block)
		ip := ""
		if i := g.IPdom(bi); i >= 0 {
			ip = f.Blocks[i].Name
		}
		if ip != c.want {
			t.Errorf("ipdom(%s) = %q, want %q", c.block, ip, c.want)
		}
	}
}

func TestFindInsertRemove(t *testing.T) {
	f := buildSample()
	n := f.NumInstrs()
	pos, ok := f.Find(f.Blocks[1].Instrs[3].UID)
	if !ok || pos.Block != "loop" {
		t.Fatalf("Find = %+v, %v", pos, ok)
	}
	in := f.RemoveAt(pos)
	if in == nil || f.NumInstrs() != n-1 {
		t.Fatal("RemoveAt failed")
	}
	if !f.InsertAt(pos, in) || f.NumInstrs() != n {
		t.Fatal("InsertAt failed")
	}
	if got := f.InstrAt(pos); got != in {
		t.Fatal("instruction not restored at position")
	}
}

func TestConstPoolSortedDistinct(t *testing.T) {
	f := buildSample()
	pool := f.ConstPool()
	if len(pool) == 0 {
		t.Fatal("empty const pool")
	}
	for i := 1; i < len(pool); i++ {
		a, b := pool[i-1], pool[i]
		if a.Typ > b.Typ || (a.Typ == b.Typ && a.Const >= b.Const) {
			t.Fatalf("pool not sorted/distinct at %d: %v %v", i, a, b)
		}
	}
}

// TestOperandConstRoundTrip checks constant formatting survives the parser
// for arbitrary values (property-based).
func TestOperandConstRoundTrip(t *testing.T) {
	fn := func(v int64) bool {
		b := NewBuilder("k")
		p := b.Param("out", I64)
		b.Block("entry")
		b.Store(SpaceGlobal, b.I64(v), p)
		b.Ret()
		m := &Module{Name: "m", Funcs: []*Function{b.Finish()}}
		m2, err := Parse(m.String())
		if err != nil {
			return false
		}
		got := m2.Funcs[0].Blocks[0].Instrs[0].Args[0]
		return int64(got.Const) == v
	}
	if err := quick.Check(fn, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestParseRejectsGarbage checks the parser returns errors, not panics.
func TestParseRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"kernel f() {",
		"module m\nkernel f() shared x {",
		"module m\nkernel f() shared 0 {\nentry:\n  %0 = bogus\n}",
		"module m\nkernel f() shared 0 {\nentry:\n  %0 = add %1:i32\n}",
	} {
		if _, err := Parse(bad); err == nil && !strings.Contains(bad, "add") {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

// TestModuleNumInstrs reports the program-size metric the paper uses.
func TestModuleNumInstrs(t *testing.T) {
	m := &Module{Funcs: []*Function{buildSample()}}
	if m.NumInstrs() != buildSample().NumInstrs() {
		t.Fatal("module instruction count mismatch")
	}
	if m.NumInstrs() < 20 {
		t.Fatalf("sample suspiciously small: %d", m.NumInstrs())
	}
}

// TestVerifyPhiIncomingAndStrictness covers the structural checks layered
// on top of the dominance core: Verify rejects duplicate phi incomings
// (which would make an edge's parallel copy write one destination twice)
// while still tolerating unreachable blocks, and VerifyStrict rejects
// exactly those stranded blocks.
func TestVerifyPhiIncomingAndStrictness(t *testing.T) {
	// addOrphan appends a block no terminator branches to.
	addOrphan := func(f *Function) {
		f.Blocks = append(f.Blocks, &Block{Name: "orphan", Instrs: []*Instr{
			{UID: f.NextUID, Op: OpBr, Succs: []string{"exit"}},
		}})
		f.NextUID++
	}
	cases := []struct {
		name   string
		mutate func(*Function)
		verify func(*Function) error
		want   string // "" = must pass
	}{
		{
			name:   "strict accepts the fully reachable sample",
			mutate: func(f *Function) {},
			verify: (*Function).VerifyStrict,
		},
		{
			name: "duplicate phi incoming rejected",
			mutate: func(f *Function) {
				ph := f.BlockByName("loop").Instrs[0]
				ph.Inc = append(ph.Inc, ph.Inc[0])
			},
			verify: (*Function).Verify,
			want:   "duplicate incoming",
		},
		{
			name: "duplicate incoming with a different value rejected",
			mutate: func(f *Function) {
				ph := f.BlockByName("loop").Instrs[0]
				ph.Inc = append(ph.Inc, Incoming{Block: ph.Inc[0].Block, Val: ConstInt(I32, 7)})
			},
			verify: (*Function).Verify,
			want:   "duplicate incoming",
		},
		{
			name:   "plain verify tolerates an unreachable block",
			mutate: addOrphan,
			verify: (*Function).Verify,
		},
		{
			name:   "strict verify rejects an unreachable block",
			mutate: addOrphan,
			verify: (*Function).VerifyStrict,
			want:   "unreachable",
		},
		{
			name: "strict reports the verify failure first",
			mutate: func(f *Function) {
				addOrphan(f)
				f.Blocks[0].Terminator().Succs[0] = "nowhere"
			},
			verify: (*Function).VerifyStrict,
			want:   "unknown block",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := buildSample()
			tc.mutate(f)
			err := tc.verify(f)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("should verify: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatalf("verification should fail mentioning %q", tc.want)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}
