package ir

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
)

// buildLoop constructs the paper's Figure 3 mcf-style loop:
//
//	do { t = arc; u = load(t->tail); load(u->potential);
//	     arc = t + nr_group; } while (arc < K);
func buildLoop(t *testing.T) *Program {
	t.Helper()
	p := NewProgram("main")
	fb := NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0x10000) // arc
	e.MovI(15, 0x20000) // K
	loop := fb.Block("loop")
	loop.Mov(16, 14)      // A: t = arc
	loop.Ld(17, 16, 8)    // B: u = load(t->tail)
	loop.Ld(18, 17, 16)   // C: load(u->potential)
	loop.AddI(14, 16, 64) // D: arc = t + nr_group
	loop.Cmp(CondLT, 6, 7, 14, 15)
	loop.On(6).Br("loop") // E: while (arc < K)
	done := fb.Block("done")
	done.Halt()
	return p
}

func TestValidateOK(t *testing.T) {
	p := buildLoop(t)
	if err := p.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesBadTarget(t *testing.T) {
	p := buildLoop(t)
	p.Funcs[0].Blocks[1].Instrs[5].Target = "nowhere"
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted dangling branch target")
	}
}

func TestValidateCatchesDuplicateFunc(t *testing.T) {
	p := buildLoop(t)
	f := p.AddFunc("main")
	f.AddBlock("entry")
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate function name")
	}
}

func TestValidateCatchesDuplicateID(t *testing.T) {
	p := buildLoop(t)
	b := p.Funcs[0].Blocks[0]
	b.Append(b.Instrs[0]) // same *Instr appears twice -> duplicate ID
	if err := p.Validate(); err == nil {
		t.Fatal("Validate accepted duplicate instruction ID")
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	p := buildLoop(t)
	p.SetWord(0x10000, 42)
	text := Format(p)
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, text)
	}
	text2 := Format(q)
	if text != text2 {
		t.Fatalf("round trip mismatch:\n--- first ---\n%s\n--- second ---\n%s", text, text2)
	}
}

// TestParseDoesNotPinSource: every name a parsed program keeps (its entry,
// function names, block labels and branch and call targets) is a copy, not
// a substring of the source, so a cached program does not keep the whole
// submitted text alive.
func TestParseDoesNotPinSource(t *testing.T) {
	p := buildLoop(t)
	NewFunc(p, "callee").Block("entry").Ret(0)
	NewBlockBuilder(p, p.Funcs[0], p.Funcs[0].Blocks[0]).Call("callee")
	src := Format(p)
	q, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v\n%s", err, src)
	}
	lo := uintptr(unsafe.Pointer(unsafe.StringData(src)))
	hi := lo + uintptr(len(src))
	inSource := func(s string) bool {
		a := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return s != "" && a >= lo && a < hi
	}
	names := []string{q.Entry}
	targets := 0
	for _, f := range q.Funcs {
		names = append(names, f.Name)
		for _, b := range f.Blocks {
			names = append(names, b.Label)
			for _, in := range b.Instrs {
				if in.Target != "" {
					names = append(names, in.Target)
					targets++
				}
			}
		}
	}
	if targets < 2 {
		t.Fatalf("test program has %d targets, want a branch and a call", targets)
	}
	for _, n := range names {
		if inSource(n) {
			t.Errorf("name %q points into the source text", n)
		}
	}
}

func TestParseRejectsGarbage(t *testing.T) {
	cases := []string{
		"",
		"func f {\nentry:\n nop\n}",             // missing program header
		"program entry=main\nnop",               // instruction outside function
		"program entry=main\nfunc main {\n nop", // instr before label
		"program entry=main\nfunc main {\nentry:\n frob r1 = r2\n}",
		"program entry=main\nfunc main {\nentry:\n ld8 r1 = r2\n}", // bad mem operand
		"program entry=main\nfunc main {\nentry:\n br\n}",
		"program entry=main\nfunc main {\nentry:\n cmp.zz p1,p2 = r1, r2\n}",
		"program entry=main\nfunc main {\nentry:\n halt\n}\ndata {\n0x2003: 1\n}", // unaligned data address
	}
	// Trailing text after an operand-less mnemonic, and targets holding
	// whitespace or '='.
	for _, bad := range []string{
		"halt junk", "nop garbage = x", "kill 0",
		"br entry = x", "br entry x", "chk.c entry\tx", "spawn entry = x",
		"call b0 = f x", "call b0 = f=x", "movbr b1 = @f = x", "movbr b1 = @f x", "movbr b1 = @",
	} {
		cases = append(cases, "program entry=main\nfunc main {\nentry:\n "+bad+"\n halt\n}")
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse accepted %q", src)
		}
	}
	// A data section one page past the page cap is an ErrDataSpan.
	var sparse strings.Builder
	sparse.WriteString("program entry=main\nfunc main {\nentry:\n halt\n}\ndata {\n")
	for i := 0; i <= MaxParsedDataPages; i++ {
		fmt.Fprintf(&sparse, "0x%x: 1\n", 0x100000+i<<12)
	}
	if _, err := Parse(sparse.String()); !errors.Is(err, ErrDataSpan) {
		t.Errorf("Parse of a data section past the page cap: %v, want ErrDataSpan", err)
	}
}

// TestParseRelationlessCmp: cmp and fcmp without a ".cond" suffix still
// parse, as eq.
func TestParseRelationlessCmp(t *testing.T) {
	p, err := Parse("program entry=main\nfunc main {\nentry:\n cmp p1, p2 = r1, r2\n fcmp p3, p4 = f2, f3\n halt\n}")
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range p.Funcs[0].Blocks[0].Instrs[:2] {
		if in.Cond != CondEQ {
			t.Errorf("%s parsed with relation %v, want eq", in.Op, in.Cond)
		}
	}
}

func TestParsePredicatedAndPostInc(t *testing.T) {
	src := `program entry=main
func main formals=0 {
entry:
	ld8 r3 = [r4], 8
	(p6) br entry
	liw [3] = r5
	lir r6 = [2]
	movbr b2 = @main
	chk.c entry
	halt
}
`
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	ins := p.Funcs[0].Blocks[0].Instrs
	if ins[0].PostInc != 8 || ins[0].Rd != 3 || ins[0].Ra != 4 {
		t.Errorf("post-inc load parsed wrong: %+v", ins[0])
	}
	if ins[1].Qp != 6 || ins[1].Op != OpBr {
		t.Errorf("predicated branch parsed wrong: %+v", ins[1])
	}
	if ins[2].Imm != 3 || ins[2].Ra != 5 {
		t.Errorf("liw parsed wrong: %+v", ins[2])
	}
	if ins[3].Imm != 2 || ins[3].Rd != 6 {
		t.Errorf("lir parsed wrong: %+v", ins[3])
	}
	if ins[4].Target != "main" || ins[4].Bd != 2 {
		t.Errorf("movbr@ parsed wrong: %+v", ins[4])
	}
	if ins[5].Op != OpChk || ins[5].Target != "entry" {
		t.Errorf("chk.c parsed wrong: %+v", ins[5])
	}
}

// TestUsesDefs pins the location lists of every opcode and operand form,
// in order: the qualifying predicate first, then operands in syntax order,
// with reads and writes of the hardwired r0, p0, f0 and f1 omitted.
func TestUsesDefs(t *testing.T) {
	gr := func(rs ...Reg) []Loc {
		var l []Loc
		for _, r := range rs {
			l = append(l, GRLoc(r))
		}
		return l
	}
	type usesDefs struct {
		in         Instr
		uses, defs []Loc
	}
	cases := []usesDefs{
		{Instr{Op: OpNop}, nil, nil},
		{Instr{Op: OpAdd, Rd: 3, Ra: 0, Rb: 0}, nil, gr(3)},    // r0 reads omitted
		{Instr{Op: OpAdd, Rd: 0, Ra: 1, Rb: 2}, gr(1, 2), nil}, // r0 write omitted
		{Instr{Op: OpAdd, Qp: 5, Rd: 3, Ra: 1, Rb: 2}, []Loc{PRLoc(5), GRLoc(1), GRLoc(2)}, gr(3)},
		{Instr{Op: OpAdd, Rd: 3, Ra: 1, Rb: 2, Imm: 9, UseImm: true}, gr(1), gr(3)}, // Rb ignored under UseImm
		{Instr{Op: OpMov, Rd: 3, Ra: 1}, gr(1), gr(3)},
		{Instr{Op: OpMov, Rd: 0, Ra: 0}, nil, nil},
		{Instr{Op: OpMovI, Rd: 3, Imm: 7}, nil, gr(3)},
		{Instr{Op: OpMovI, Qp: 2, Rd: 0, Imm: 7}, []Loc{PRLoc(2)}, nil},
		{Instr{Op: OpCmp, Pd1: 6, Pd2: 7, Ra: 1, Rb: 2}, gr(1, 2), []Loc{PRLoc(6), PRLoc(7)}},
		{Instr{Op: OpCmp, Pd1: 6, Pd2: 7, Ra: 1, Rb: 2, Imm: 4, UseImm: true}, gr(1), []Loc{PRLoc(6), PRLoc(7)}},
		{Instr{Op: OpCmp, Pd1: 6, Pd2: 0, Ra: 0, Rb: 2}, gr(2), []Loc{PRLoc(6)}}, // p0 sink
		{Instr{Op: OpCmp, Pd1: 0, Pd2: 7, Ra: 1, Rb: 0}, gr(1), []Loc{PRLoc(7)}},
		{Instr{Op: OpLd, Rd: 3, Ra: 4, Disp: 8}, gr(4), gr(3)},
		{Instr{Op: OpLd, Rd: 3, Ra: 4, PostInc: 8}, gr(4), gr(3, 4)},
		{Instr{Op: OpLd, Rd: 0, Ra: 4, PostInc: -8}, gr(4), gr(4)},
		{Instr{Op: OpLd, Rd: 3, Ra: 0, PostInc: 8}, nil, gr(3)},
		{Instr{Op: OpSt, Ra: 4, Rb: 5}, gr(4, 5), nil},
		{Instr{Op: OpSt, Ra: 4, Rb: 0, Disp: -16}, gr(4), nil},
		{Instr{Op: OpLfetch, Ra: 9}, gr(9), nil},
		{Instr{Op: OpLfetch, Ra: 0, Disp: 64}, nil, nil},
		{Instr{Op: OpBr, Qp: 6, Target: "x"}, []Loc{PRLoc(6)}, nil},
		{Instr{Op: OpBr, Target: "x"}, nil, nil},
		{Instr{Op: OpCall, Bd: 0, Target: "f"}, nil, []Loc{BRLoc(0)}},
		{Instr{Op: OpCallB, Bd: 0, Bs: 2}, []Loc{BRLoc(2)}, []Loc{BRLoc(0)}},
		{Instr{Op: OpRet, Bs: 0}, []Loc{BRLoc(0)}, nil},
		{Instr{Op: OpRet, Qp: 1, Bs: 3}, []Loc{PRLoc(1), BRLoc(3)}, nil},
		{Instr{Op: OpMovBR, Bd: 1, Ra: 9}, gr(9), []Loc{BRLoc(1)}},
		{Instr{Op: OpMovBR, Bd: 1, Ra: 0}, nil, []Loc{BRLoc(1)}},
		{Instr{Op: OpMovBR, Bd: 1, Target: "f"}, nil, []Loc{BRLoc(1)}},
		{Instr{Op: OpMovBR, Bd: 1, Ra: 9, Target: "f"}, nil, []Loc{BRLoc(1)}}, // @f form ignores Ra
		{Instr{Op: OpMovFromBR, Rd: 5, Bs: 2}, []Loc{BRLoc(2)}, gr(5)},
		{Instr{Op: OpChk, Target: "s"}, nil, nil},
		{Instr{Op: OpSpawn, Qp: 4, Target: "s"}, []Loc{PRLoc(4)}, nil},
		{Instr{Op: OpLiw, Imm: 1, Ra: 9}, gr(9), nil},
		{Instr{Op: OpLiw, Imm: 1, Ra: 0}, nil, nil},
		{Instr{Op: OpLir, Rd: 9, Imm: 1}, nil, gr(9)},
		{Instr{Op: OpLir, Rd: 0, Imm: 1}, nil, nil},
		{Instr{Op: OpKill}, nil, nil},
		{Instr{Op: OpHalt, Qp: 3}, []Loc{PRLoc(3)}, nil},
		{Instr{Op: OpFAdd, Fd: 2, Fa: 3, Fb: 4}, []Loc{FRLoc(3), FRLoc(4)}, []Loc{FRLoc(2)}},
		{Instr{Op: OpFAdd, Fd: 1, Fa: 0, Fb: 1}, nil, nil}, // f0/f1 sinks
		{Instr{Op: OpFSub, Fd: 2, Fa: 3, Fb: 0}, []Loc{FRLoc(3)}, []Loc{FRLoc(2)}},
		{Instr{Op: OpFMul, Fd: 0, Fa: 1, Fb: 4}, []Loc{FRLoc(4)}, nil},
		{Instr{Op: OpFMA, Fd: 2, Fa: 3, Fb: 4, Fc: 5}, []Loc{FRLoc(3), FRLoc(4), FRLoc(5)}, []Loc{FRLoc(2)}},
		{Instr{Op: OpFMA, Qp: 7, Fd: 2, Fa: 0, Fb: 4, Fc: 1}, []Loc{PRLoc(7), FRLoc(4)}, []Loc{FRLoc(2)}},
		{Instr{Op: OpFLd, Fd: 2, Ra: 4, Disp: 8}, gr(4), []Loc{FRLoc(2)}},
		{Instr{Op: OpFLd, Fd: 1, Ra: 0}, nil, nil},
		{Instr{Op: OpFSt, Ra: 4, Fa: 2}, []Loc{GRLoc(4), FRLoc(2)}, nil},
		{Instr{Op: OpFSt, Ra: 0, Fa: 0}, nil, nil},
		{Instr{Op: OpFCmp, Pd1: 6, Pd2: 7, Fa: 2, Fb: 3}, []Loc{FRLoc(2), FRLoc(3)}, []Loc{PRLoc(6), PRLoc(7)}},
		{Instr{Op: OpFCmp, Pd1: 0, Pd2: 7, Fa: 1, Fb: 3}, []Loc{FRLoc(3)}, []Loc{PRLoc(7)}},
		{Instr{Op: OpSetF, Fd: 2, Ra: 4}, gr(4), []Loc{FRLoc(2)}},
		{Instr{Op: OpSetF, Fd: 0, Ra: 0}, nil, nil},
		{Instr{Op: OpGetF, Rd: 5, Fa: 2}, []Loc{FRLoc(2)}, gr(5)},
		{Instr{Op: OpGetF, Rd: 0, Fa: 1}, nil, nil},
	}
	// Both second-operand forms of every ALU opcode.
	for op := OpAdd; op <= OpShr; op++ {
		cases = append(cases,
			usesDefs{Instr{Op: op, Rd: 3, Ra: 1, Rb: 2}, gr(1, 2), gr(3)},
			usesDefs{Instr{Op: op, Rd: 3, Ra: 1, Imm: 5, UseImm: true}, gr(1), gr(3)})
	}
	seen := map[Op]bool{}
	for _, c := range cases {
		seen[c.in.Op] = true
		gotU := c.in.AppendUses(nil)
		gotD := c.in.AppendDefs(nil)
		if !reflect.DeepEqual(gotU, c.uses) {
			t.Errorf("%s: uses = %v, want %v", c.in.String(), gotU, c.uses)
		}
		if !reflect.DeepEqual(gotD, c.defs) {
			t.Errorf("%s: defs = %v, want %v", c.in.String(), gotD, c.defs)
		}
	}
	for op := Op(0); op < NumOps; op++ {
		if !seen[op] {
			t.Errorf("no case for %s", op)
		}
	}
}

// TestGRReadsAndDest pins the general-register fields the opcode table
// names as read and as the destination: FP operands are no GR reads,
// getf's Rd is a destination, and a post-increment base is a read only.
func TestGRReadsAndDest(t *testing.T) {
	cases := []struct {
		in    Instr
		reads []string // field names
		dest  bool     // Rd is the destination
	}{
		{Instr{Op: OpAdd, Rd: 3, Ra: 1, Rb: 2}, []string{"Ra", "Rb"}, true},
		{Instr{Op: OpAdd, Rd: 3, Ra: 1, Rb: 2, UseImm: true}, []string{"Ra"}, true},
		{Instr{Op: OpLd, Rd: 3, Ra: 4, PostInc: 8}, []string{"Ra"}, true},
		{Instr{Op: OpSt, Ra: 4, Rb: 5}, []string{"Ra", "Rb"}, false},
		{Instr{Op: OpMovBR, Bd: 1, Ra: 9}, []string{"Ra"}, false},
		{Instr{Op: OpMovBR, Bd: 1, Ra: 9, Target: "f"}, nil, false},
		{Instr{Op: OpLir, Rd: 9, Imm: 1}, nil, true},
		{Instr{Op: OpFAdd, Fd: 2, Fa: 3, Fb: 4, Ra: 7}, nil, false},
		{Instr{Op: OpFMA, Fd: 2, Fa: 3, Fb: 4, Fc: 5, Ra: 7}, nil, false},
		{Instr{Op: OpFCmp, Pd1: 1, Pd2: 2, Fa: 3, Fb: 4, Ra: 7}, nil, false},
		{Instr{Op: OpGetF, Rd: 5, Fa: 2, Ra: 7}, nil, true},
		{Instr{Op: OpSetF, Fd: 2, Ra: 7}, []string{"Ra"}, false},
		{Instr{Op: OpFSt, Ra: 4, Fa: 2}, []string{"Ra"}, false},
	}
	for _, c := range cases {
		in := c.in
		var got []string
		for _, r := range in.AppendGRReads(nil) {
			switch r {
			case &in.Ra:
				got = append(got, "Ra")
			case &in.Rb:
				got = append(got, "Rb")
			default:
				got = append(got, "?")
			}
		}
		if !reflect.DeepEqual(got, c.reads) {
			t.Errorf("%s: GR reads %v, want %v", in.String(), got, c.reads)
		}
		if d := in.GRDest(); (d == &in.Rd) != c.dest || (d != nil && d != &in.Rd) {
			t.Errorf("%s: GRDest = %p, want Rd: %v", in.String(), d, c.dest)
		}
	}
}

func TestLocRoundTrip(t *testing.T) {
	for r := 0; r < NumRegs; r++ {
		if got, ok := GRLoc(Reg(r)).IsGR(); !ok || got != Reg(r) {
			t.Fatalf("GR loc round trip failed for r%d", r)
		}
	}
	for p := 0; p < NumPreds; p++ {
		if got, ok := PRLoc(PR(p)).IsPR(); !ok || got != PR(p) {
			t.Fatalf("PR loc round trip failed for p%d", p)
		}
	}
	for b := 0; b < NumBRs; b++ {
		if got, ok := BRLoc(BR(b)).IsBR(); !ok || got != BR(b) {
			t.Fatalf("BR loc round trip failed for b%d", b)
		}
	}
	if _, ok := GRLoc(5).IsPR(); ok {
		t.Fatal("GR loc claimed to be PR")
	}
}

func TestLinkLayoutAndTargets(t *testing.T) {
	p := buildLoop(t)
	im, err := Link(p)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	if len(im.Code) != p.NumInstrs() {
		t.Fatalf("code length %d, want %d", len(im.Code), p.NumInstrs())
	}
	if im.Entry != 0 {
		t.Fatalf("entry pc = %d, want 0", im.Entry)
	}
	loopStart := im.BlockStarts["main.loop"]
	br := im.Code[loopStart+5]
	if br.I.Op != OpBr || int(br.Tgt) != loopStart {
		t.Fatalf("back edge resolved to %d, want %d", br.Tgt, loopStart)
	}
	if im.BlockKey(loopStart) != "main.loop" {
		t.Fatalf("BlockKey(%d) = %q", loopStart, im.BlockKey(loopStart))
	}
}

func TestLinkCrossFunctionSpawn(t *testing.T) {
	p := buildLoop(t)
	fb := NewFunc(p, "slices")
	s := fb.Block("slice1")
	s.Kill()
	main := p.Funcs[0].Blocks[0]
	sp := &Instr{Op: OpSpawn, Target: "slices.slice1"}
	p.Assign(sp)
	main.InsertAt(0, sp)
	im, err := Link(p)
	if err != nil {
		t.Fatalf("Link: %v", err)
	}
	want := im.BlockStarts["slices.slice1"]
	if int(im.Code[0].Tgt) != want {
		t.Fatalf("spawn target = %d, want %d", im.Code[0].Tgt, want)
	}
}

func TestCloneIsDeepAndPreservesIDs(t *testing.T) {
	p := buildLoop(t)
	p.SetWord(8, 9)
	q := p.Clone()
	// Same IDs, different instruction objects.
	for fi := range p.Funcs {
		for bi := range p.Funcs[fi].Blocks {
			for ii := range p.Funcs[fi].Blocks[bi].Instrs {
				a := p.Funcs[fi].Blocks[bi].Instrs[ii]
				b := q.Funcs[fi].Blocks[bi].Instrs[ii]
				if a == b {
					t.Fatal("clone shares instruction pointers")
				}
				if a.ID != b.ID {
					t.Fatalf("clone changed ID %d -> %d", a.ID, b.ID)
				}
			}
		}
	}
	q.Funcs[0].Blocks[0].Instrs[0].Imm = 999
	if p.Funcs[0].Blocks[0].Instrs[0].Imm == 999 {
		t.Fatal("mutating clone affected original")
	}
	// Fresh IDs in the clone don't collide with the original's.
	in := &Instr{Op: OpNop}
	q.Assign(in)
	if _, _, found := p.InstrByID(in.ID); found != nil {
		t.Fatalf("clone allocated colliding ID %d", in.ID)
	}
}

func TestInstrByID(t *testing.T) {
	p := buildLoop(t)
	want := p.Funcs[0].Blocks[1].Instrs[2]
	f, b, in := p.InstrByID(want.ID)
	if in != want || f.Name != "main" || b.Label != "loop" {
		t.Fatalf("InstrByID(%d) = %v/%v/%v", want.ID, f, b, in)
	}
	if _, _, in := p.InstrByID(99999); in != nil {
		t.Fatal("InstrByID found nonexistent ID")
	}
}

// randomInstr generates a random valid instruction for the round-trip
// property test. Branch-like ops target the fixed label "entry".
func randomInstr(r *rand.Rand) *Instr {
	ops := []Op{OpNop, OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpShl, OpShr,
		OpMov, OpMovI, OpCmp, OpLd, OpSt, OpLfetch, OpBr, OpRet, OpMovBR,
		OpMovFromBR, OpChk, OpSpawn, OpLiw, OpLir, OpKill, OpHalt}
	in := &Instr{Op: ops[r.Intn(len(ops))]}
	in.Qp = PR(r.Intn(8))
	in.Rd = Reg(1 + r.Intn(NumRegs-1))
	in.Ra = Reg(1 + r.Intn(NumRegs-1))
	in.Rb = Reg(1 + r.Intn(NumRegs-1))
	in.Pd1 = PR(1 + r.Intn(NumPreds-1))
	in.Pd2 = PR(1 + r.Intn(NumPreds-1))
	in.Bs = BR(r.Intn(NumBRs))
	in.Bd = BR(r.Intn(NumBRs))
	in.Cond = Cond(r.Intn(8))
	in.Imm = int64(r.Intn(1 << 16))
	switch in.Op {
	case OpAdd, OpSub, OpMul, OpAnd, OpOr, OpXor, OpCmp:
		in.UseImm = r.Intn(2) == 0
	case OpShl, OpShr:
		in.UseImm = true
		in.Imm = int64(r.Intn(63))
	case OpLd:
		in.Disp = int64(r.Intn(256)) - 128
		if r.Intn(2) == 0 {
			in.PostInc = int64(1 + r.Intn(64))
			in.Disp = 0 // post-inc form has no displacement in the syntax
		}
	case OpSt, OpLfetch:
		in.Disp = int64(r.Intn(256)) - 128
	case OpBr, OpChk, OpSpawn:
		in.Target = "entry"
	case OpMovBR:
		if r.Intn(2) == 0 {
			in.Target = "main"
		}
	case OpLiw, OpLir:
		in.Imm = int64(r.Intn(16))
	}
	return in
}

// TestQuickAsmRoundTrip: property — formatting then parsing any valid
// instruction reproduces it exactly (modulo ID).
func TestQuickAsmRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 2000}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := NewProgram("main")
		fb := NewFunc(p, "main")
		bb := fb.Block("entry")
		n := 1 + r.Intn(20)
		for i := 0; i < n; i++ {
			in := randomInstr(r)
			p.Assign(in)
			bb.B.Append(in)
		}
		text := Format(p)
		q, err := Parse(text)
		if err != nil {
			t.Logf("parse error: %v\n%s", err, text)
			return false
		}
		a, b := p.Funcs[0].Blocks[0].Instrs, q.Funcs[0].Blocks[0].Instrs
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			x, y := *a[i], *b[i]
			x.ID, y.ID = 0, 0
			// Unused fields are not serialized; compare via re-format.
			if formatInstr(&x) != formatInstr(&y) {
				t.Logf("mismatch: %q vs %q", formatInstr(&x), formatInstr(&y))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestFormatContainsDataSection(t *testing.T) {
	p := buildLoop(t)
	p.SetWord(0x40, 7)
	text := Format(p)
	if !strings.Contains(text, "data {") || !strings.Contains(text, "0x40: 7") {
		t.Fatalf("data section missing:\n%s", text)
	}
}

// TestHasSideEffect: one row per opcode. Stores, liw, calls, returns,
// chk.c, spawn, halt and kill may never enter a p-slice.
func TestHasSideEffect(t *testing.T) {
	want := map[Op]bool{
		OpNop: false, OpAdd: false, OpSub: false, OpMul: false, OpAnd: false,
		OpOr: false, OpXor: false, OpShl: false, OpShr: false, OpMov: false,
		OpMovI: false, OpCmp: false, OpLd: false, OpSt: true, OpLfetch: false,
		OpBr: false, OpCall: true, OpCallB: true, OpRet: true, OpMovBR: false,
		OpMovFromBR: false, OpChk: true, OpSpawn: true, OpLiw: true, OpLir: false,
		OpKill: true, OpHalt: true, OpFAdd: false, OpFSub: false, OpFMul: false,
		OpFMA: false, OpFLd: false, OpFSt: true, OpFCmp: false, OpSetF: false,
		OpGetF: false,
	}
	if len(want) != int(NumOps) {
		t.Fatalf("%d rows for %d opcodes", len(want), NumOps)
	}
	for op, w := range want {
		if got := (&Instr{Op: op}).HasSideEffect(); got != w {
			t.Errorf("%s: HasSideEffect = %v, want %v", op, got, w)
		}
	}
}

func TestReserveIDs(t *testing.T) {
	p := NewProgram("main")
	p.ReserveIDs(100)
	in := &Instr{Op: OpNop}
	p.Assign(in)
	if in.ID != 101 {
		t.Fatalf("ID after ReserveIDs(100) = %d, want 101", in.ID)
	}
	p.ReserveIDs(50) // never moves backward
	in2 := &Instr{Op: OpNop}
	p.Assign(in2)
	if in2.ID != 102 {
		t.Fatalf("ID = %d, want 102", in2.ID)
	}
}

func TestBlockInsertAtAndTerminator(t *testing.T) {
	p := NewProgram("main")
	fb := NewFunc(p, "main")
	b := fb.Block("entry")
	b.Nop()
	b.Halt()
	in := &Instr{Op: OpMovI, Rd: 14, Imm: 1}
	p.Assign(in)
	b.B.InsertAt(1, in)
	if b.B.Instrs[1] != in || len(b.B.Instrs) != 3 {
		t.Fatalf("InsertAt failed: %v", b.B.Instrs)
	}
	if b.B.Terminator().Op != OpHalt {
		t.Fatal("Terminator wrong")
	}
	empty := &Block{}
	if empty.Terminator() != nil {
		t.Fatal("empty block has a terminator")
	}
}
