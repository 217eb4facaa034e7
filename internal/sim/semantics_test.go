package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/sim/threaded"
)

// archWant is the expected architectural state of the main thread after a
// semantics case halts. Every location not listed must hold its initial
// value: zero, except the live-in input buffer, which starts at
// semanticsInLIB.
type archWant struct {
	r   map[ir.Reg]uint64
	p   []ir.PR // predicates that end true; every other one ends false
	b   map[ir.BR]uint64
	f   map[ir.FR]uint64 // bit patterns, so NaNs and signed zeros compare exactly
	lib map[int]uint64   // outgoing live-in buffer slots
	mem map[uint64]uint64
}

// word turns a signed literal into the register word it is stored as.
func word(v int64) uint64 { return uint64(v) }

// semanticsInLIB is the incoming live-in buffer every case starts with, so
// lir has something to read on the main thread.
func semanticsInLIB() (in [ir.LIBSlots]uint64) {
	for i := range in {
		in[i] = 0x100 + uint64(i)
	}
	return in
}

// semanticsData is the initial data segment of every case.
const semanticsData = `
data {
	0x10000: 11
	0x10008: 22
	0x10010: 0x4000000000000000
}
`

// semanticsCases is the opcode specification: one literal expected state per
// group of opcodes, written out by hand rather than derived from any
// executor. Each body runs as main's code, followed by halt.
var semanticsCases = []struct {
	name  string
	body  string
	extra string // further functions
	want  archWant
}{
	{
		name: "alu register forms",
		body: `
	movi r1 = 7
	movi r2 = -3
	add r3 = r1, r2
	sub r4 = r2, r1
	mul r5 = r1, r2
	and r6 = r1, r2
	or r7 = r1, r2
	xor r8 = r1, r2
	mov r9 = r2`,
		want: archWant{r: map[ir.Reg]uint64{1: 7, 2: word(-3), 3: 4, 4: word(-10), 5: word(-21), 6: 5, 7: word(-1), 8: word(-6), 9: word(-3)}},
	},
	{
		name: "alu immediate forms",
		body: `
	movi r1 = 100
	add r2 = r1, -1
	sub r3 = r1, 250
	mul r4 = r1, 3
	and r5 = r1, 0x24
	or r6 = r1, 3
	xor r7 = r1, 0xff`,
		want: archWant{r: map[ir.Reg]uint64{1: 100, 2: 99, 3: word(-150), 4: 300, 5: 0x24, 6: 103, 7: 155}},
	},
	{
		name: "shift counts of 64 and more wrap modulo 64",
		body: `
	movi r1 = -1
	movi r2 = 64
	movi r3 = 65
	shl r4 = r1, r2
	shr r5 = r1, r3
	shl r6 = r1, 127
	shr r7 = r1, 64
	shr r8 = r1, 63
	movi r9 = 1
	shl r10 = r9, r3`,
		want: archWant{r: map[ir.Reg]uint64{1: word(-1), 2: 64, 3: 65, 4: word(-1), 5: math.MaxInt64, 6: 1 << 63, 7: word(-1), 8: 1, 9: 1, 10: 2}},
	},
	{
		name: "writes to the hardwired r0, f0 and f1 are dropped",
		body: `
	movi r1 = 5
	add r0 = r1, r1
	movi r0 = 9
	mov r0 = r1
	lir r0 = [2]
	movfbr r0 = b0
	getf r0 = f1
	add r2 = r0, r1
	setf f0 = r1
	fadd f1 = f1, f1
	fadd f2 = f1, f1
	getf r3 = f1
	getf r4 = f0
	ldfd f0 = [r0+65552]
	ld8 r0 = [r0+65536]`,
		want: archWant{
			r: map[ir.Reg]uint64{1: 5, 2: 5, 3: 0x3ff0000000000000, 4: 0},
			f: map[ir.FR]uint64{2: 0x4000000000000000},
		},
	},
	{
		name: "signed and unsigned integer compares on negative values",
		body: `
	movi r1 = -1
	movi r2 = 1
	cmp.lt p1, p2 = r1, r2
	cmp.ltu p3, p4 = r1, r2
	cmp.geu p5, p6 = r1, r2
	cmp.le p7, p8 = r1, r1
	cmp.gt p9, p10 = r2, r1
	cmp.ge p11, p12 = r1, r2
	cmp.eq p13, p14 = r1, -1
	cmp.ne p15, p16 = r1, -1
	cmp.lt p17, p18 = r1, 0
	cmp.ltu p19, p20 = r1, 0
	cmp.geu p21, p22 = r1, 0`,
		want: archWant{
			r: map[ir.Reg]uint64{1: word(-1), 2: 1},
			p: []ir.PR{1, 4, 5, 7, 9, 12, 13, 16, 17, 20, 21},
		},
	},
	{
		name: "compares into p0 drop that write; aliased destinations keep the complement",
		body: `
	movi r1 = 1
	cmp.ne p0, p1 = r1, r1
	cmp.eq p2, p0 = r1, r1
	cmp.eq p0, p0 = r1, 0
	cmp.ne p3, p3 = r1, r1
	cmp.eq p4, p4 = r1, 1
	fcmp.ge p0, p5 = f0, f1
	fcmp.eq p6, p0 = f1, f1
	(p0) add r2 = r1, 1`,
		want: archWant{r: map[ir.Reg]uint64{1: 1, 2: 2}, p: []ir.PR{1, 2, 3, 5, 6}},
	},
	{
		name: "compare feeding a loop branch, both senses",
		body: `
	movi r1 = 0
up:
	add r1 = r1, 1
	cmp.lt p6, p7 = r1, 3
	(p6) br up
down:
	add r2 = r2, 1
	cmp.ge p9, p8 = r2, 4
	(p8) br down
out:
	nop`,
		want: archWant{r: map[ir.Reg]uint64{1: 3, 2: 4}, p: []ir.PR{7, 9}},
	},
	{
		name: "fcmp on NaN, and ltu and geu fold onto lt and ge",
		body: `
	movi r1 = 0x7ff8000000000000
	setf f2 = r1
	movi r2 = 0x4000000000000000
	setf f3 = r2
	fsub f4 = f0, f1
	fcmp.eq p1, p2 = f2, f2
	fcmp.ne p3, p4 = f2, f2
	fcmp.lt p5, p6 = f2, f3
	fcmp.ge p7, p8 = f2, f3
	fcmp.le p9, p10 = f3, f2
	fcmp.ltu p11, p12 = f4, f3
	fcmp.geu p13, p14 = f4, f3
	fcmp.le p15, p16 = f3, f3
	fcmp.gt p17, p18 = f3, f4
	fcmp.ltu p19, p20 = f2, f3`,
		want: archWant{
			r: map[ir.Reg]uint64{1: 0x7ff8000000000000, 2: 0x4000000000000000},
			f: map[ir.FR]uint64{2: 0x7ff8000000000000, 3: 0x4000000000000000, 4: 0xbff0000000000000},
			p: []ir.PR{2, 3, 6, 8, 10, 11, 14, 15, 17, 20},
		},
	},
	{
		name: "fp arithmetic and setf and getf bit moves",
		body: `
	movi r1 = 0x4008000000000000
	setf f2 = r1
	fadd f3 = f2, f1
	fsub f4 = f2, f1
	fmul f5 = f2, f2
	fma f6 = f2, f2, f1
	getf r2 = f6
	movi r3 = 0x7ff0000000000001
	setf f7 = r3
	getf r4 = f7
	movi r5 = -2
	setf f8 = r5
	getf r6 = f8
	setf f9 = r0`,
		want: archWant{
			r: map[ir.Reg]uint64{1: 0x4008000000000000, 2: 0x4024000000000000, 3: 0x7ff0000000000001,
				4: 0x7ff0000000000001, 5: word(-2), 6: word(-2)},
			f: map[ir.FR]uint64{2: 0x4008000000000000, 3: 0x4010000000000000, 4: 0x4000000000000000,
				5: 0x4022000000000000, 6: 0x4024000000000000, 7: 0x7ff0000000000001, 8: word(-2)},
		},
	},
	{
		name: "loads, post-increment loads and stores",
		body: `
	movi r1 = 0x10000
	ld8 r2 = [r1]
	ld8 r3 = [r1+8]
	mov r4 = r1
	ld8 r4 = [r4], 8
	mov r5 = r1
	ld8 r6 = [r5], 16
	mov r7 = r1
	ld8 r0 = [r7], 8
	ld8 r8 = [r0+65536], 8
	st8 [r1+24] = r3
	ldfd f2 = [r1+16]
	stfd [r1+32] = f2
	stfd [r1+40] = f1
	lfetch [r1+48]`,
		want: archWant{
			r: map[ir.Reg]uint64{1: 0x10000, 2: 11, 3: 22, 4: 19, 5: 0x10010, 6: 11, 7: 0x10008, 8: 11},
			f: map[ir.FR]uint64{2: 0x4000000000000000},
			mem: map[uint64]uint64{0x10000: 11, 0x10008: 22, 0x10010: 0x4000000000000000,
				0x10018: 22, 0x10020: 0x4000000000000000, 0x10028: 0x3ff0000000000000, 0x10030: 0},
		},
	},
	{
		name: "liw and lir slots are masked to the buffer size",
		body: `
	movi r1 = 42
	liw [3] = r1
	movi r2 = 43
	liw [18] = r2
	liw [4] = r0
	lir r3 = [17]
	lir r4 = [5]`,
		want: archWant{
			r:   map[ir.Reg]uint64{1: 42, 2: 43, 3: 0x101, 4: 0x105},
			lib: map[int]uint64{3: 42, 2: 43},
		},
	},
	{
		name: "branch registers, movbr @func, call, callb and ret",
		body: `
	movi r1 = 77
	movbr b1 = r1
	movfbr r2 = b1
	movbr b2 = @leaf
	movfbr r3 = b2
	call b0 = leaf
back:
	callb b0 = b2
again:
	nop`,
		extra: `
func leaf formals=0 {
entry:
	add r5 = r5, 1
	ret b0
}`,
		want: archWant{
			r: map[ir.Reg]uint64{1: 77, 2: 77, 3: 9, 5: 2},
			b: map[ir.BR]uint64{0: 7, 1: 77, 2: 9},
		},
	},
	{
		name: "nullified instructions have no effect",
		body: `
	movi r1 = 1
	movi r10 = 0x10000
	cmp.eq p6, p7 = r1, 0
	(p6) add r2 = r1, 5
	(p7) add r3 = r1, 5
	(p6) movi r4 = 9
	(p6) cmp.eq p8, p9 = r1, r1
	(p6) fadd f2 = f1, f1
	(p6) setf f3 = r1
	(p6) liw [0] = r1
	(p6) movbr b1 = r1
	(p6) st8 [r10] = r1
	(p6) ld8 r5 = [r10], 8
	(p6) ldfd f4 = [r10+16]
	(p6) br skip
fall:
	movi r6 = 3
skip:
	movi r7 = 4
	(p6) halt
h:
	(p6) kill
k:
	(p6) call b3 = leaf
c:
	movi r8 = 5`,
		extra: `
func leaf formals=0 {
entry:
	ret b3
}`,
		want: archWant{
			r:   map[ir.Reg]uint64{1: 1, 10: 0x10000, 3: 6, 6: 3, 7: 4, 8: 5},
			p:   []ir.PR{7},
			mem: map[uint64]uint64{0x10000: 11},
		},
	},
}

// archRun runs a predecoded case to its halt from the given incoming
// live-in buffer and returns the main thread's final state and memory.
type archRun func(t *testing.T, dp *decode.Program, in [ir.LIBSlots]uint64) (*threaded.Ctx, *mem.Memory)

func semanticsExecutors() map[string]archRun {
	interp := func(runs bool) archRun {
		return func(t *testing.T, dp *decode.Program, in [ir.LIBSlots]uint64) (*threaded.Ctx, *mem.Memory) {
			m := NewPredecoded(testInOrder(), dp)
			m.noSpec = true
			m.main().InLIB = in
			if runs {
				m.runs = ThreadedProgram(dp).Runs
			}
			if _, err := m.interpret(1000); err != nil {
				t.Fatal(err)
			}
			return &m.main().Ctx, m.Mem
		}
	}
	engine := func(cfg Config) archRun {
		return func(t *testing.T, dp *decode.Program, in [ir.LIBSlots]uint64) (*threaded.Ctx, *mem.Memory) {
			m := NewPredecoded(cfg, dp)
			m.main().InLIB = in
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.TimedOut || res.MainKilled {
				t.Fatalf("run did not halt cleanly: %+v", res)
			}
			return &m.main().Ctx, m.Mem
		}
	}
	return map[string]archRun{
		"chains":   interp(true),
		"stepwise": interp(false),
		"in-order": engine(testInOrder()),
		"ooo":      engine(testOOO()),
	}
}

// TestOpcodeSemantics is the opcode specification: every opcode's effect on
// registers, predicates, branch registers, FP registers, the live-in buffer
// and memory, checked as literal values on every executor — the
// interpreter with its fused runs ("chains": chains of pure steps, the
// InterpretPredecoded loop), the interpreter per PC and both cycle engines.
func TestOpcodeSemantics(t *testing.T) {
	for _, c := range semanticsCases {
		t.Run(c.name, func(t *testing.T) {
			src := "program entry=main\nfunc main formals=0 {\nentry:" + c.body + "\n\thalt\n}\n" + c.extra + semanticsData
			p, err := ir.Parse(src)
			if err != nil {
				t.Fatal(err)
			}
			img, err := ir.Link(p)
			if err != nil {
				t.Fatal(err)
			}
			dp := Predecode(img)
			want := threaded.Ctx{InLIB: semanticsInLIB()}
			for r, v := range c.want.r {
				want.Regs[r] = v
			}
			for _, pr := range c.want.p {
				want.Preds[pr] = true
			}
			for b, v := range c.want.b {
				want.BRs[b] = v
			}
			for f, v := range c.want.f {
				want.FRegs[f] = math.Float64frombits(v)
			}
			for i, v := range c.want.lib {
				want.OutLIB[i] = v
			}
			for name, run := range semanticsExecutors() {
				// One subtest per executor, so a run that fails to halt
				// on one of them still leaves the others checked.
				t.Run(name, func(t *testing.T) {
					got, gm := run(t, dp, semanticsInLIB())
					if errs := diffArch(got, &want); len(errs) > 0 {
						t.Errorf("\n\t%s", strings.Join(errs, "\n\t"))
					}
					for a, v := range c.want.mem {
						if g := gm.Load(a); g != v {
							t.Errorf("mem[%#x] = %#x, want %#x", a, g, v)
						}
					}
				})
			}
		})
	}
}

// diffArch lists every architectural location where got differs from want.
func diffArch(got, want *threaded.Ctx) []string {
	var errs []string
	add := func(what string, i int, g, w uint64) {
		if g != w {
			errs = append(errs, fmt.Sprintf("%s%d = %#x, want %#x", what, i, g, w))
		}
	}
	for i := range want.Regs {
		add("r", i, got.Regs[i], want.Regs[i])
	}
	for i := range want.Preds {
		if got.Preds[i] != want.Preds[i] {
			errs = append(errs, fmt.Sprintf("p%d = %v, want %v", i, got.Preds[i], want.Preds[i]))
		}
	}
	for i := range want.BRs {
		add("b", i, got.BRs[i], want.BRs[i])
	}
	for i := range want.FRegs {
		add("f", i, math.Float64bits(got.FRegs[i]), math.Float64bits(want.FRegs[i]))
	}
	for i := range want.OutLIB {
		add("outlib", i, got.OutLIB[i], want.OutLIB[i])
	}
	return errs
}
