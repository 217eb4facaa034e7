package sim

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
)

// TestParseModel pins every accepted model spelling; serve job keys and
// the command-line flags all parse through it.
func TestParseModel(t *testing.T) {
	for name, want := range map[string]Model{"in-order": InOrder, "io": InOrder, "ooo": OOO, "out-of-order": OOO} {
		if m, err := ParseModel(name); err != nil || m != want {
			t.Errorf("%s: %v %v, want %v", name, m, err, want)
		}
	}
	if _, err := ParseModel("vliw"); err == nil {
		t.Error("accepted an unknown model")
	}
}

// tinyMem returns a scaled-down memory system so that small unit-test
// workloads exercise every level of the hierarchy quickly.
func tinyMem() mem.Config {
	c := mem.Default()
	c.L1Size = 1 << 10
	c.L2Size = 4 << 10
	c.L3Size = 16 << 10
	return c
}

// runProgram links p and runs it on a new machine under cfg. A run that
// breaks the run rule (Result.Err) returns its partial Result with the error.
func runProgram(cfg Config, p *ir.Program) (*Result, error) {
	img, err := ir.Link(p)
	if err != nil {
		return nil, err
	}
	res, err := New(cfg, img).Run()
	if err != nil {
		return nil, err
	}
	return res, res.Err()
}

func testInOrder() Config {
	c := DefaultInOrder()
	c.Mem = tinyMem()
	c.MaxCycles = 50_000_000
	return c
}

func testOOO() Config {
	c := DefaultOOO()
	c.Mem = tinyMem()
	c.MaxCycles = 50_000_000
	return c
}

// arithProgram computes a few values and stores them.
func arithProgram() *ir.Program {
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 6)
	e.MovI(15, 7)
	e.Mul(16, 14, 15)  // 42
	e.AddI(17, 16, 58) // 100
	e.Sub(18, 17, 14)  // 94
	e.ShlI(19, 15, 3)  // 56
	e.Xor(20, 18, 19)  // 94^56
	e.CmpI(ir.CondLT, 6, 7, 16, 100)
	e.On(6).AddI(21, 16, 1) // 43 (predicated on)
	e.MovI(22, 0x1000)
	e.St(22, 0, 16)
	e.St(22, 8, 20)
	e.St(22, 16, 21)
	e.Halt()
	return p
}

func TestInterpretArith(t *testing.T) {
	img, err := ir.Link(arithProgram())
	if err != nil {
		t.Fatal(err)
	}
	r, err := InterpretPredecoded(testInOrder(), Predecode(img), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if r.Regs[16] != 42 || r.Regs[17] != 100 || r.Regs[21] != 43 {
		t.Fatalf("regs: r16=%d r17=%d r21=%d", r.Regs[16], r.Regs[17], r.Regs[21])
	}
	if r.Mem.Load(0x1000) != 42 || r.Mem.Load(0x1008) != 94^56 {
		t.Fatal("stores missing")
	}
}

func TestEnginesMatchInterpreter(t *testing.T) {
	img, err := ir.Link(arithProgram())
	if err != nil {
		t.Fatal(err)
	}
	ref, err := InterpretPredecoded(testInOrder(), Predecode(img), 1000)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		m := New(cfg, img)
		res, err := m.Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.TimedOut {
			t.Fatalf("%v timed out", cfg.Model)
		}
		for a := uint64(0x1000); a <= 0x1010; a += 8 {
			if m.Mem.Load(a) != ref.Mem.Load(a) {
				t.Fatalf("%v: mem[%#x] = %d, want %d", cfg.Model, a, m.Mem.Load(a), ref.Mem.Load(a))
			}
		}
		if res.MainInstrs != ref.Instrs {
			t.Fatalf("%v: %d instrs, interpreter %d", cfg.Model, res.MainInstrs, ref.Instrs)
		}
	}
}

func TestDeterminism(t *testing.T) {
	p := chaseProgram(500, false)
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		r1, err := runProgram(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := runProgram(cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Cycles != r2.Cycles || r1.MainInstrs != r2.MainInstrs {
			t.Fatalf("%v nondeterministic: %d vs %d cycles", cfg.Model, r1.Cycles, r2.Cycles)
		}
	}
}

// chaseProgram builds the paper's Figure 3 workload: a strided scan over an
// arc array where each arc holds a pointer to a random node whose field is
// then loaded (t->tail->potential). The recurrence (arc = t + nr_group) is
// pure arithmetic, so a chaining p-slice can run far ahead of the 2-miss
// main-loop iteration. With ssp set, the binary carries a hand-built
// chaining slice in the Figure 7 layout, triggered by a chk.c in the loop.
func chaseProgram(n int, ssp bool) *ir.Program {
	p := ir.NewProgram("main")
	arcBase := uint64(0x100000)
	nodeBase := arcBase + uint64(n)*64 + 0x10000
	perm := rand.New(rand.NewSource(42)).Perm(n)
	for i := 0; i < n; i++ {
		node := nodeBase + uint64(perm[i])*64
		p.SetWord(arcBase+uint64(i)*64+8, node) // arc.tail
		p.SetWord(node+16, uint64(i))           // node.potential
	}
	endK := int64(arcBase + uint64(n)*64)
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, int64(arcBase)) // arc
	e.MovI(15, endK)           // K
	e.MovI(20, 0)              // sum
	loop := fb.Block("loop")
	if ssp {
		loop.Chk("stub1")
	} else {
		loop.Nop() // padding the post-pass tool would replace (Figure 7)
	}
	loop.Mov(16, 14)    // A: t = arc
	loop.Ld(17, 16, 8)  // B: u = load(t->tail)
	loop.Ld(18, 17, 16) // C: load(u->potential)   <- delinquent
	loop.Add(20, 20, 18)
	loop.AddI(14, 16, 64) // D: arc = t + nr_group
	loop.Cmp(ir.CondLT, 6, 7, 14, 15)
	loop.On(6).Br("loop") // E
	done := fb.Block("done")
	done.MovI(22, 0x2000)
	done.St(22, 0, 20)
	done.Halt()
	if ssp {
		// Attachment (Figure 7): the stub copies live-ins to the LIB and
		// spawns; the chaining slice is the do-across prefetching loop of
		// Figure 5(b): induction + chain spawn first (critical sub-slice),
		// then the loads/prefetch (non-critical sub-slice).
		stub := fb.Block("stub1")
		stub.Liw(0, 14) // live-in: arc
		stub.Liw(1, 15) // live-in: K
		stub.Spawn("slice1")
		slice := fb.Block("slice1")
		slice.Lir(21, 0)       // arc
		slice.Lir(25, 1)       // K
		slice.AddI(22, 21, 64) // D': next arc
		slice.Liw(0, 22)
		slice.Liw(1, 25)
		slice.Cmp(ir.CondLT, 6, 7, 22, 25)
		slice.On(6).Spawn("slice1") // E': chain
		slice.Ld(23, 21, 8)         // B': tail
		slice.Lfetch(23, 16)        // C': prefetch potential
		slice.Kill()
	}
	return p
}

func TestSSPSpeedsUpInOrderChase(t *testing.T) {
	base, err := runProgram(testInOrder(), chaseProgram(2000, false))
	if err != nil {
		t.Fatal(err)
	}
	enh, err := runProgram(testInOrder(), chaseProgram(2000, true))
	if err != nil {
		t.Fatal(err)
	}
	if enh.Spawns < 500 {
		t.Fatalf("chaining produced only %d spawns", enh.Spawns)
	}
	speedup := float64(base.Cycles) / float64(enh.Cycles)
	if speedup < 1.2 {
		t.Fatalf("SSP speedup = %.2f (base %d, ssp %d cycles), want >= 1.2",
			speedup, base.Cycles, enh.Cycles)
	}
	// The speedup must come from where the paper says it does: reduced
	// L3-miss stall cycles on the main thread (Figure 10), with the
	// misses absorbed by the speculative threads.
	if enh.Breakdown[CatL3]*3 > base.Breakdown[CatL3]*2 {
		t.Fatalf("L3-miss stall cycles did not drop enough: base %d, ssp %d",
			base.Breakdown[CatL3], enh.Breakdown[CatL3])
	}
	// And the main loop's loads now see partial hits on lines the slice
	// already requested.
	var partials uint64
	for _, s := range enh.Hier.ByLoad() {
		for lvl := mem.L2; lvl <= mem.Mem; lvl++ {
			partials += s.Hits[lvl][1]
		}
	}
	if partials == 0 {
		t.Fatal("no partial hits recorded in the SSP run")
	}
}

func TestSSPPreservesArchitecturalState(t *testing.T) {
	// The enhanced binary must compute exactly the same result (§2).
	for _, ssp := range []bool{false, true} {
		p := chaseProgram(300, ssp)
		for _, cfg := range []Config{testInOrder(), testOOO()} {
			img, err := ir.Link(p)
			if err != nil {
				t.Fatal(err)
			}
			m := New(cfg, img)
			if _, err := m.Run(); err != nil {
				t.Fatal(err)
			}
			want := uint64(300 * 299 / 2)
			if got := m.Mem.Load(0x2000); got != want {
				t.Fatalf("ssp=%v %v: sum = %d, want %d", ssp, cfg.Model, got, want)
			}
		}
	}
}

func TestOOOToleratesMissesBetterThanInOrder(t *testing.T) {
	// Independent-strided loads: OOO should overlap them, in-order stalls
	// on each use.
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0x100000)
	e.MovI(15, 0)
	e.MovI(16, 2000)
	loop := fb.Block("loop")
	loop.Ld(17, 14, 0)
	loop.Add(18, 18, 17) // use stalls in-order
	loop.AddI(14, 14, 64)
	loop.AddI(15, 15, 1)
	loop.Cmp(ir.CondLT, 6, 7, 15, 16)
	loop.On(6).Br("loop")
	d := fb.Block("done")
	d.Halt()
	io, err := runProgram(testInOrder(), p)
	if err != nil {
		t.Fatal(err)
	}
	ooo, err := runProgram(testOOO(), p)
	if err != nil {
		t.Fatal(err)
	}
	if float64(io.Cycles)/float64(ooo.Cycles) < 1.5 {
		t.Fatalf("OOO %d vs in-order %d cycles: expected >= 1.5x", ooo.Cycles, io.Cycles)
	}
}

func TestBreakdownSumsToCycles(t *testing.T) {
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		for _, ssp := range []bool{false, true} {
			res, err := runProgram(cfg, chaseProgram(400, ssp))
			if err != nil {
				t.Fatal(err)
			}
			var sum int64
			for _, v := range res.Breakdown {
				sum += v
			}
			if sum != res.Cycles {
				t.Fatalf("%v ssp=%v: breakdown sums to %d, cycles %d", cfg.Model, ssp, sum, res.Cycles)
			}
			if res.Breakdown[CatL3] == 0 && !ssp {
				t.Fatalf("%v: pointer chase shows no L3-miss stall cycles: %v", cfg.Model, res.Breakdown)
			}
		}
	}
}

func TestSpecStoresSuppressed(t *testing.T) {
	p := chaseProgram(100, true)
	// Inject a store into the slice block.
	f := p.FuncByName("main")
	sl := f.BlockByLabel("slice1")
	st := &ir.Instr{Op: ir.OpSt, Ra: 21, Rb: 21, Disp: 8}
	p.Assign(st)
	sl.InsertAt(2, st)
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	m := New(testInOrder(), img)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawns == 0 {
		t.Fatal("no speculative threads ran")
	}
	if res.SpecStores == 0 {
		t.Fatal("speculative store not detected")
	}
	// Node payloads are untouched: sum still correct.
	if got := m.Mem.Load(0x2000); got != 100*99/2 {
		t.Fatalf("speculative store altered state: sum=%d", got)
	}
}

func TestRunawaySpecThreadKilled(t *testing.T) {
	p := chaseProgram(50, true)
	f := p.FuncByName("main")
	sl := f.BlockByLabel("slice1")
	// Make the slice spin forever: branch to itself instead of kill.
	for _, in := range sl.Instrs {
		if in.Op == ir.OpKill {
			in.Op = ir.OpBr
			in.Target = "slice1"
		}
	}
	cfg := testInOrder()
	cfg.MaxSpecInstrs = 500
	res, err := runProgram(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecInstrs == 0 {
		t.Fatal("speculative thread never ran")
	}
	if res.TimedOut {
		t.Fatal("runaway speculative thread hung the machine")
	}
}

func TestChkWithoutFreeContextIsNop(t *testing.T) {
	p := chaseProgram(50, true)
	cfg := testInOrder()
	cfg.Contexts = 1 // only the main thread
	res, err := runProgram(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.ChkTaken != 0 || res.Spawns != 0 {
		t.Fatalf("chk/spawn fired with no free contexts: %+v", res)
	}
}

func TestSpawnsIgnoredWhenSaturated(t *testing.T) {
	res, err := runProgram(testInOrder(), chaseProgram(2000, true))
	if err != nil {
		t.Fatal(err)
	}
	if res.SpawnsIgnored == 0 {
		t.Skip("no spawn saturation in this configuration")
	}
}

func TestProfileCounts(t *testing.T) {
	cfg := testInOrder()
	cfg.Profile = true
	p := chaseProgram(200, false)
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := New(cfg, img).Run()
	if err != nil {
		t.Fatal(err)
	}
	loopStart := img.BlockStarts["main.loop"]
	if res.PCCount[loopStart] != 200 {
		t.Fatalf("loop head executed %d times, want 200", res.PCCount[loopStart])
	}
	if res.PCCount[img.Entry] != 1 {
		t.Fatalf("entry executed %d times", res.PCCount[img.Entry])
	}
}

func TestIndirectCallEdgeCapture(t *testing.T) {
	p := ir.NewProgram("main")
	tf := ir.NewFunc(p, "target")
	tb := tf.Block("entry")
	tb.MovI(ir.RegRet, 99)
	tb.Ret(0)
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovBRFunc(2, "target")
	call := e.CallB(0, 2)
	e.MovI(22, 0x3000)
	e.St(22, 0, ir.RegRet)
	e.Halt()
	cfg := testInOrder()
	cfg.Profile = true
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, img)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	edges := res.CallEdges[call.ID]
	if edges == nil || edges[img.FuncEntries["target"]] != 1 {
		t.Fatalf("call edges = %v", res.CallEdges)
	}
	if m.Mem.Load(0x3000) != 99 {
		t.Fatal("indirect call did not execute")
	}
}

func TestCallsAndReturnsAcrossEngines(t *testing.T) {
	// sum = f(3) + f(4) where f(x) = x*x, with b0 spilled around the call.
	p := ir.NewProgram("main")
	ff := ir.NewFunc(p, "f")
	ff.F.NumFormals = 1
	fe := ff.Block("entry")
	fe.Mul(ir.RegRet, ir.RegArg0, ir.RegArg0)
	fe.Ret(0)
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(ir.RegArg0, 3)
	e.Call("f")
	e.Mov(20, ir.RegRet)
	e.MovI(ir.RegArg0, 4)
	e.Call("f")
	e.Add(20, 20, ir.RegRet)
	e.MovI(22, 0x4000)
	e.St(22, 0, 20)
	e.Halt()
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		img, err := ir.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		m := New(cfg, img)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got := m.Mem.Load(0x4000); got != 25 {
			t.Fatalf("%v: result = %d, want 25", cfg.Model, got)
		}
	}
}

// TestQuickDifferentialEngines: property — random straight-line programs
// produce identical architectural state on the interpreter, the in-order
// engine, and the OOO engine.
func TestQuickDifferentialEngines(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		p := ir.NewProgram("main")
		fb := ir.NewFunc(p, "main")
		e := fb.Block("entry")
		for i := 0; i < 40; i++ {
			rd := ir.Reg(14 + r.Intn(16))
			ra := ir.Reg(14 + r.Intn(16))
			rb := ir.Reg(14 + r.Intn(16))
			switch r.Intn(8) {
			case 0:
				e.MovI(rd, int64(r.Intn(1<<30)))
			case 1:
				e.Add(rd, ra, rb)
			case 2:
				e.Sub(rd, ra, rb)
			case 3:
				e.Mul(rd, ra, rb)
			case 4:
				e.XorI(rd, ra, int64(r.Intn(1<<16)))
			case 5:
				e.MovI(30, int64(0x100000+8*r.Intn(64)))
				e.St(30, 0, ra)
			case 6:
				e.MovI(30, int64(0x100000+8*r.Intn(64)))
				e.Ld(rd, 30, 0)
			case 7:
				e.CmpI(ir.CondLT, 6, 7, ra, int64(r.Intn(100)))
				e.On(6).AddI(rd, ra, 1)
			}
		}
		e.Halt()
		img, err := ir.Link(p)
		if err != nil {
			t.Log(err)
			return false
		}
		ref, err := InterpretPredecoded(testInOrder(), Predecode(img), 10_000)
		if err != nil {
			t.Log(err)
			return false
		}
		for _, cfg := range []Config{testInOrder(), testOOO()} {
			m := New(cfg, img)
			if _, err := m.Run(); err != nil {
				t.Log(err)
				return false
			}
			for reg := 14; reg < 31; reg++ {
				if m.main().Regs[reg] != ref.Regs[reg] {
					t.Logf("seed %d %v: r%d = %d, want %d", seed, cfg.Model, reg, m.main().Regs[reg], ref.Regs[reg])
					return false
				}
			}
			for a := uint64(0x100000); a < 0x100000+8*64; a += 8 {
				if m.Mem.Load(a) != ref.Mem.Load(a) {
					t.Logf("seed %d %v: mem[%#x] mismatch", seed, cfg.Model, a)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// execLog is an exec hook that counts what it is told about, split by
// thread kind and by SSP opcode, and records its place in a shared order.
type execLog struct {
	id          int
	order       *[]int
	main, spec  int64
	lfetch, chk int64
	mainPC      []uint64
}

func (l *execLog) Exec(m *Machine, t *Thread, pc int) {
	if l.order != nil && len(*l.order) < 4 {
		*l.order = append(*l.order, l.id)
	}
	if t.spec {
		l.spec++
	} else {
		l.main++
		l.mainPC[pc]++
	}
	switch m.code[pc].Op {
	case ir.OpLfetch:
		l.lfetch++
	case ir.OpChk:
		l.chk++
	}
}

// TestAttachExecSeesInterleaving: hooks installed with AttachExec see the
// interleaved stream of main and speculative instructions, SSP opcodes
// included; two hooks fire in attachment order, and alongside the profiler
// each sees exactly the main-thread PCs the profile counts.
func TestAttachExecSeesInterleaving(t *testing.T) {
	cfg := testInOrder()
	cfg.Profile = true
	dp := Predecode(mustLink(t, chaseProgram(120, true)))
	m := NewPredecoded(cfg, dp)
	var order []int
	a := &execLog{id: 1, order: &order, mainPC: make([]uint64, len(dp.Code))}
	b := &execLog{id: 2, order: &order, mainPC: make([]uint64, len(dp.Code))}
	m.AttachExec(a)
	m.AttachExec(b)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(order, []int{1, 2, 1, 2}) {
		t.Fatalf("hooks fired in order %v, want attachment order", order)
	}
	if a.main == 0 || a.spec == 0 {
		t.Fatalf("hook saw %d main and %d speculative instructions, want both", a.main, a.spec)
	}
	if a.lfetch == 0 || a.chk == 0 {
		t.Fatalf("hook saw %d lfetch and %d chk.c, want both", a.lfetch, a.chk)
	}
	if a.main != b.main || a.spec != b.spec || a.lfetch != b.lfetch || a.chk != b.chk {
		t.Fatalf("chained hooks disagree: %d/%d/%d/%d vs %d/%d/%d/%d",
			a.main, a.spec, a.lfetch, a.chk, b.main, b.spec, b.lfetch, b.chk)
	}
	if !slices.Equal(a.mainPC, res.PCCount) || !slices.Equal(b.mainPC, res.PCCount) {
		t.Fatal("a chained hook's main-thread PC counts differ from the profile's")
	}
}

func TestFPSemanticsAcrossEngines(t *testing.T) {
	// An FP kernel mixing fma, cross-file moves, predicated control on
	// fcmp, and FP memory traffic: both engines must match the
	// interpreter bit-for-bit.
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0x100000)
	e.MovI(15, 0)
	e.SetF(10, ir.RegZero) // acc = 0.0
	// Seed memory with float bit patterns.
	for i := 0; i < 64; i++ {
		p.SetWord(0x100000+uint64(i)*8, uint64(0x3ff0000000000000)+uint64(i)<<40)
	}
	loop := fb.Block("loop")
	loop.FLd(3, 14, 0)
	loop.FMA(10, 3, 1, 10) // acc += x (via fma x*1.0+acc)
	loop.FMul(4, 3, 3)
	loop.FCmp(ir.CondGT, 8, 9, 4, 10)
	loop.On(8).AddI(16, 16, 1)
	loop.FSt(14, 512, 4)
	loop.AddI(14, 14, 8)
	loop.AddI(15, 15, 1)
	loop.CmpI(ir.CondLT, 6, 7, 15, 64)
	loop.On(6).Br("loop")
	d := fb.Block("done")
	d.GetF(20, 10)
	d.MovI(22, 0x2000)
	d.St(22, 0, 20)
	d.St(22, 8, 16)
	d.Halt()

	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := InterpretPredecoded(testInOrder(), Predecode(img), 1_000_000)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		m := New(cfg, img)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		for a := uint64(0x2000); a <= 0x2008; a += 8 {
			if m.Mem.Load(a) != ref.Mem.Load(a) {
				t.Fatalf("%v: mem[%#x] = %#x, want %#x", cfg.Model, a, m.Mem.Load(a), ref.Mem.Load(a))
			}
		}
	}
}

func TestFPUnitsAreAStructuralResource(t *testing.T) {
	// Eight independent FP adds per iteration vs eight independent int
	// adds: with only 2 FP units vs 4 int units, the FP loop needs more
	// cycles on the in-order model.
	build := func(fp bool) *ir.Program {
		p := ir.NewProgram("main")
		fb := ir.NewFunc(p, "main")
		e := fb.Block("entry")
		e.MovI(15, 0)
		loop := fb.Block("loop")
		for i := 0; i < 8; i++ {
			if fp {
				loop.FAdd(ir.FR(10+i), ir.FR(10+i), 1)
			} else {
				loop.AddI(ir.Reg(40+i), ir.Reg(40+i), 1)
			}
		}
		loop.AddI(15, 15, 1)
		loop.CmpI(ir.CondLT, 6, 7, 15, 2000)
		loop.On(6).Br("loop")
		fb.Block("done").Halt()
		return p
	}
	fpRes, err := runProgram(testInOrder(), build(true))
	if err != nil {
		t.Fatal(err)
	}
	intRes, err := runProgram(testInOrder(), build(false))
	if err != nil {
		t.Fatal(err)
	}
	if fpRes.Cycles <= intRes.Cycles {
		t.Fatalf("FP loop (%d cycles) not limited by its 2 units vs int loop (%d)",
			fpRes.Cycles, intRes.Cycles)
	}
}

func TestSpecUtilizationHistogram(t *testing.T) {
	res, err := runProgram(testInOrder(), chaseProgram(800, true))
	if err != nil {
		t.Fatal(err)
	}
	var total, busy int64
	for k, c := range res.SpecActiveHist {
		total += c
		if k > 0 {
			busy += c
		}
	}
	if total != res.Cycles {
		t.Fatalf("histogram covers %d cycles of %d", total, res.Cycles)
	}
	if busy == 0 {
		t.Fatal("SSP run shows no speculative-context utilization")
	}
	base, err := runProgram(testInOrder(), chaseProgram(800, false))
	if err != nil {
		t.Fatal(err)
	}
	for k, c := range base.SpecActiveHist {
		if k > 0 && c > 0 {
			t.Fatalf("baseline run claims %d cycles with %d spec threads", c, k)
		}
	}
}

func TestLIBSlotMaskingAndSnapshot(t *testing.T) {
	// The live-in buffer is a snapshot at spawn time: parent writes after
	// the spawn must not leak into the child ("eliminating the
	// possibility of inter-thread hazards where a register may be
	// overwritten before a child thread has read it", §2.1). Slot indices
	// wrap at the buffer size.
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 111)
	e.Liw(0, 14)
	e.MovI(15, 222)
	e.Liw(16, 15) // slot 16 wraps to slot 0 (libSlots = 16): overwrites
	e.MovI(14, 333)
	e.Liw(1, 14)
	e.Chk("stub")
	e.MovI(16, 999)
	e.Liw(0, 16) // after the spawn: child must not see 999
	spin := fb.Block("spin")
	spin.AddI(20, 20, 1)
	spin.CmpI(ir.CondLT, 6, 7, 20, 2000)
	spin.On(6).Br("spin")
	done := fb.Block("done")
	done.Halt()
	stub := fb.Block("stub")
	stub.Spawn("slice")
	slice := fb.Block("slice")
	slice.Lir(40, 0) // expect 222 (slot 16 wrapped over the 111)
	slice.Lir(41, 1) // expect 333
	slice.MovI(42, 0x5000)
	// Speculative stores are suppressed, so report via... nothing; instead
	// spin long enough to stay alive and let the test read registers? The
	// machine isn't exposed per-thread, so encode the check in control
	// flow: kill quickly if values are right, loop forever (runaway kill)
	// otherwise.
	slice.CmpI(ir.CondEQ, 8, 9, 40, 222)
	slice.On(9).Br("slice_bad")
	s2 := fb.Block("slice2")
	s2.CmpI(ir.CondEQ, 10, 11, 41, 333)
	s2.On(11).Br("slice_bad")
	s3 := fb.Block("slice_ok")
	s3.Kill()
	bad := fb.Block("slice_bad")
	bad.AddI(43, 43, 1)
	bad.Br("slice_bad")
	cfg := testInOrder()
	cfg.MaxSpecInstrs = 100_000
	res, err := runProgram(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawns != 1 {
		t.Fatalf("spawns = %d", res.Spawns)
	}
	// The good path kills after ~8 instructions; the bad path burns until
	// the runaway guard.
	if res.SpecInstrs > 100 {
		t.Fatalf("slice saw wrong live-ins (ran %d speculative instructions)", res.SpecInstrs)
	}
}

func TestChkResumesAfterStub(t *testing.T) {
	// After the stub's spawn, the main thread resumes at the instruction
	// after chk.c — not at the stub's fallthrough (Figure 7).
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 1)
	e.Chk("stub")
	e.AddI(14, 14, 10) // must execute exactly once
	e.MovI(22, 0x2000)
	e.St(22, 0, 14)
	e.Halt()
	stub := fb.Block("stub")
	stub.AddI(14, 14, 100) // stub runs on the main thread
	stub.Liw(0, 14)
	stub.Spawn("slice")
	slice := fb.Block("slice")
	slice.Kill()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		m := New(cfg, img)
		if _, err := m.Run(); err != nil {
			t.Fatal(err)
		}
		if got := m.Mem.Load(0x2000); got != 111 {
			t.Fatalf("%v: result = %d, want 111 (chk resume broken)", cfg.Model, got)
		}
	}
}

func TestNullifiedBranchTrainsNotTaken(t *testing.T) {
	// A conditional branch whose predicate is false must train the
	// predictor as not-taken and never redirect.
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0)
	loop := fb.Block("loop")
	loop.CmpI(ir.CondEQ, 6, 7, 14, -1) // always false
	loop.On(6).Br("trap")
	loop.AddI(14, 14, 1)
	loop.CmpI(ir.CondLT, 8, 9, 14, 3000)
	loop.On(8).Br("loop")
	d := fb.Block("done")
	d.MovI(22, 0x2000)
	d.St(22, 0, 14)
	d.Halt()
	trap := fb.Block("trap")
	trap.MovI(22, 0x2000)
	trap.MovI(23, 0xdead)
	trap.St(22, 0, 23)
	trap.Halt()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	m := New(testInOrder(), img)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(0x2000); got != 3000 {
		t.Fatalf("result = %#x, want 3000", got)
	}
	// The never-taken branch settles quickly; total mispredicts stay low.
	if res.Mispredicts > 100 {
		t.Fatalf("%d mispredicts on a trivially biased pattern", res.Mispredicts)
	}
}

func TestMemPortsLimitThroughput(t *testing.T) {
	// Six independent L1-resident loads per iteration vs six independent
	// int adds: with 2 memory ports vs 4 int units the load loop needs
	// more cycles even though everything hits the cache.
	build := func(loads bool) *ir.Program {
		p := ir.NewProgram("main")
		for i := 0; i < 8; i++ {
			p.SetWord(0x1000+uint64(i)*8, uint64(i))
		}
		fb := ir.NewFunc(p, "main")
		e := fb.Block("entry")
		e.MovI(14, 0x1000)
		e.MovI(15, 0)
		loop := fb.Block("loop")
		for i := 0; i < 6; i++ {
			if loads {
				loop.Ld(ir.Reg(20+i), 14, int64(i)*8)
			} else {
				loop.AddI(ir.Reg(20+i), ir.Reg(20+i), 1)
			}
		}
		loop.AddI(15, 15, 1)
		loop.CmpI(ir.CondLT, 6, 7, 15, 3000)
		loop.On(6).Br("loop")
		fb.Block("done").Halt()
		return p
	}
	ld, err := runProgram(testInOrder(), build(true))
	if err != nil {
		t.Fatal(err)
	}
	alu, err := runProgram(testInOrder(), build(false))
	if err != nil {
		t.Fatal(err)
	}
	if ld.Cycles <= alu.Cycles {
		t.Fatalf("load loop (%d cycles) not port-limited vs ALU loop (%d)", ld.Cycles, alu.Cycles)
	}
}

func TestContextCountScaling(t *testing.T) {
	// More speculative contexts means more chaining overlap: 2 contexts
	// (1 speculative) must not beat 4 contexts on the chaining workload.
	p := chaseProgram(1500, true)
	two := testInOrder()
	two.Contexts = 2
	four := testInOrder()
	r2, err := runProgram(two, p)
	if err != nil {
		t.Fatal(err)
	}
	r4, err := runProgram(four, p)
	if err != nil {
		t.Fatal(err)
	}
	if r4.Cycles > r2.Cycles*105/100 {
		t.Fatalf("4 contexts (%d cycles) slower than 2 (%d)", r4.Cycles, r2.Cycles)
	}
	// Eight contexts keep working correctly too.
	eight := testInOrder()
	eight.Contexts = 8
	img, _ := ir.Link(p)
	m := New(eight, img)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	if got := m.Mem.Load(0x2000); got != 1500*1499/2 {
		t.Fatalf("8-context checksum = %d", got)
	}
}

// TestRunProgramWatchdogContract: on watchdog expiry the run rule must give
// an error while the Result stays a readable partial result, so callers can
// report the statistics collected so far alongside the failure.
func TestRunProgramWatchdogContract(t *testing.T) {
	for _, base := range []Config{testInOrder(), testOOO()} {
		cfg := base
		cfg.MaxCycles = 50
		res, err := runProgram(cfg, chaseProgram(64, false))
		if re := (*RunError)(nil); !errors.As(err, &re) || re.Reason != "watchdog" {
			t.Fatalf("%v: error %v on watchdog expiry, want a watchdog RunError", cfg.Model, err)
		}
		if res == nil {
			t.Fatalf("%v: nil result on watchdog expiry", cfg.Model)
		}
		if !res.TimedOut {
			t.Fatalf("%v: TimedOut not set", cfg.Model)
		}
		if res.Cycles != 50 {
			t.Fatalf("%v: partial result reports %d cycles, want 50", cfg.Model, res.Cycles)
		}
	}
}

// TestRunProgramMainKillContract: thread_kill_self on the main thread ends
// the run with MainKilled set and a run-rule error (instead of spinning
// until the watchdog on the in-order model, or silently halting on the OOO
// model — the cross-engine divergence the differential layer flushed out).
func TestRunProgramMainKillContract(t *testing.T) {
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(16, 1)
	e.Kill()
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		res, err := runProgram(cfg, p)
		if re := (*RunError)(nil); !errors.As(err, &re) || re.Reason != "main-kill" {
			t.Fatalf("%v: error %v on main-thread kill, want a main-kill RunError", cfg.Model, err)
		}
		if res == nil || !res.MainKilled {
			t.Fatalf("%v: MainKilled not reported", cfg.Model)
		}
		if res.TimedOut {
			t.Fatalf("%v: run spun until the watchdog", cfg.Model)
		}
	}
}

// TestInterpreterRunErrors: both interpreter paths — with runs
// (InterpretPredecoded) and per PC (InterpretStepwise) — report a
// main-thread kill and the instruction limit as a *RunError with reasons
// main-kill and instr-limit.
func TestInterpreterRunErrors(t *testing.T) {
	kill := ir.NewProgram("main")
	k := ir.NewFunc(kill, "main").Block("entry")
	k.MovI(14, 1)
	k.Kill()
	spin := ir.NewProgram("main")
	s := ir.NewFunc(spin, "main").Block("loop")
	s.AddI(14, 14, 1)
	s.Br("loop")
	paths := []struct {
		name string
		run  func(Config, *decode.Program, int64) (*InterpResult, error)
	}{{"chains", InterpretPredecoded}, {"stepwise", InterpretStepwise}}
	for _, c := range []struct {
		prog   *ir.Program
		reason string
		msg    string
	}{
		{kill, "main-kill", "sim: main thread executed kill at pc 1"},
		{spin, "instr-limit", "sim: interpretation exceeded 100 instructions"},
	} {
		dp := Predecode(mustLink(t, c.prog))
		for _, p := range paths {
			_, err := p.run(testInOrder(), dp, 100)
			var re *RunError
			if !errors.As(err, &re) || re.Reason != c.reason || err.Error() != c.msg {
				t.Errorf("%s/%s: err = %v (%T), want a *RunError %q: %s", p.name, c.reason, err, err, c.reason, c.msg)
			}
		}
	}
}
