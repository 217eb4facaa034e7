package sim

import (
	"testing"

	"ssp/internal/ir"
)

// missLoop builds a loop of n independent strided misses with a dependent
// use (the OOO latency-tolerance workload).
func missLoop(n int) *ir.Program {
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0x100000)
	e.MovI(15, 0)
	e.MovI(16, int64(n))
	loop := fb.Block("loop")
	loop.Ld(17, 14, 0)
	loop.Add(18, 18, 17)
	loop.AddI(14, 14, 64)
	loop.AddI(15, 15, 1)
	loop.Cmp(ir.CondLT, 6, 7, 15, 16)
	loop.On(6).Br("loop")
	d := fb.Block("done")
	d.Halt()
	return p
}

func runCfg(t *testing.T, cfg Config, p *ir.Program) *Result {
	t.Helper()
	res, err := runProgram(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestOOOWindowSizeMatters(t *testing.T) {
	p := missLoop(1500)
	big := testOOO()
	small := testOOO()
	small.ROBSize = 8
	small.RSSize = 8
	rb := runCfg(t, big, p)
	rs := runCfg(t, small, p)
	if float64(rs.Cycles) < 1.5*float64(rb.Cycles) {
		t.Fatalf("shrinking the window barely hurt: %d vs %d cycles", rs.Cycles, rb.Cycles)
	}
}

func TestOOORSLimitMatters(t *testing.T) {
	// With a large ROB but a tiny reservation station, wakeup can only
	// see a few instructions: memory-level parallelism collapses.
	p := missLoop(1500)
	wide := testOOO()
	narrow := testOOO()
	narrow.RSSize = 2
	rw := runCfg(t, wide, p)
	rn := runCfg(t, narrow, p)
	if rn.Cycles <= rw.Cycles {
		t.Fatalf("RS=2 (%d cycles) not slower than RS=18 (%d)", rn.Cycles, rw.Cycles)
	}
}

func TestOOOFillBufferLimitsMLP(t *testing.T) {
	p := missLoop(1500)
	wide := testOOO()
	narrow := testOOO()
	narrow.Mem.FillBufferEntries = 2
	rw := runCfg(t, wide, p)
	rn := runCfg(t, narrow, p)
	if float64(rn.Cycles) < 1.3*float64(rw.Cycles) {
		t.Fatalf("2-entry fill buffer barely hurt: %d vs %d", rn.Cycles, rw.Cycles)
	}
}

func TestMispredictPenaltyVisible(t *testing.T) {
	// A data-dependent unpredictable branch pattern vs. an always-taken
	// one: the former must mispredict much more.
	build := func(chaotic bool) *ir.Program {
		p := ir.NewProgram("main")
		// Pseudo-random bits via an LCG.
		fb := ir.NewFunc(p, "main")
		e := fb.Block("entry")
		e.MovI(14, 12345) // lcg state
		e.MovI(15, 0)     // i
		loop := fb.Block("loop")
		loop.MulI(14, 14, 1103515245)
		loop.AddI(14, 14, 12345)
		loop.ShrI(16, 14, 16)
		if chaotic {
			loop.AndI(16, 16, 1)
		} else {
			loop.MovI(16, 1)
		}
		loop.CmpI(ir.CondEQ, 8, 9, 16, 1)
		loop.On(8).AddI(17, 17, 1)
		loop.On(9).AddI(17, 17, 2) // balanced predicated work
		loop.CmpI(ir.CondEQ, 10, 11, 16, 0)
		loop.On(10).Br("skip")
		mid := fb.Block("mid")
		mid.AddI(18, 18, 1)
		skip := fb.Block("skip")
		skip.AddI(15, 15, 1)
		skip.CmpI(ir.CondLT, 6, 7, 15, 4000)
		skip.On(6).Br("loop")
		d := fb.Block("done")
		d.Halt()
		return p
	}
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		rc := runCfg(t, cfg, build(true))
		rs := runCfg(t, cfg, build(false))
		if rc.Mispredicts < 4*rs.Mispredicts {
			t.Fatalf("%v: chaotic branch mispredicted %d times vs steady %d",
				cfg.Model, rc.Mispredicts, rs.Mispredicts)
		}
		if rc.Cycles <= rs.Cycles {
			t.Fatalf("%v: mispredictions cost nothing (%d vs %d cycles)",
				cfg.Model, rc.Cycles, rs.Cycles)
		}
	}
}

func TestSpawnCooldownThrottlesChk(t *testing.T) {
	p := chaseProgram(800, true)
	free := testInOrder()
	free.SpawnCooldown = 0
	cold := testInOrder()
	cold.SpawnCooldown = 100_000_000 // effectively one trigger
	rf := runCfg(t, free, p)
	rc := runCfg(t, cold, p)
	if rc.ChkTaken > 1 {
		t.Fatalf("cooldown did not throttle: %d chk taken", rc.ChkTaken)
	}
	if rf.ChkTaken <= rc.ChkTaken {
		t.Fatalf("no-cooldown run took %d chks, cooled run %d", rf.ChkTaken, rc.ChkTaken)
	}
}

func TestOOORetirementIsInOrder(t *testing.T) {
	// A long-latency load followed by cheap instructions: the window must
	// hold the cheap work until the load retires (ROB pressure visible
	// as cycles scaling with ROB size when the window fills).
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0x100000)
	e.MovI(15, 0)
	loop := fb.Block("loop")
	loop.Ld(17, 14, 0) // miss
	for i := 0; i < 20; i++ {
		loop.AddI(18, 18, 1) // independent cheap work
	}
	loop.AddI(14, 14, 64)
	loop.AddI(15, 15, 1)
	loop.CmpI(ir.CondLT, 6, 7, 15, 500)
	loop.On(6).Br("loop")
	fb.Block("done").Halt()
	tiny := testOOO()
	tiny.ROBSize = 24 // smaller than one iteration + the miss shadow
	big := testOOO()
	rt := runCfg(t, tiny, p)
	rb := runCfg(t, big, p)
	if rt.Cycles <= rb.Cycles {
		t.Fatalf("ROB=24 (%d cycles) not slower than ROB=255 (%d)", rt.Cycles, rb.Cycles)
	}
}

func TestPrefetchDroppedWhenFillBufferFull(t *testing.T) {
	// Saturate the fill buffer with demand misses while issuing
	// prefetches: the prefetches must be droppable, never stalling or
	// displacing demand fills.
	p := ir.NewProgram("main")
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, 0x100000)
	e.MovI(19, 0x900000)
	e.MovI(15, 0)
	loop := fb.Block("loop")
	loop.Ld(17, 14, 0)
	loop.Lfetch(19, 0)
	loop.AddI(19, 19, 64)
	loop.AddI(14, 14, 64)
	loop.AddI(15, 15, 1)
	loop.CmpI(ir.CondLT, 6, 7, 15, 800)
	loop.On(6).Br("loop")
	fb.Block("done").Halt()
	cfg := testOOO()
	cfg.Mem.FillBufferEntries = 2
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	m := New(cfg, img)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TimedOut {
		t.Fatal("timed out")
	}
	if m.Hier.DroppedPrefetches == 0 {
		t.Fatal("no prefetches dropped under fill-buffer pressure")
	}
}

func TestOOOSMTSharesIssueBandwidth(t *testing.T) {
	// With a speculative thread running, the main thread gets half the
	// issue bandwidth; a compute-bound main loop must slow down.
	build := func(ssp bool) *ir.Program {
		p := ir.NewProgram("main")
		fb := ir.NewFunc(p, "main")
		e := fb.Block("entry")
		e.MovI(15, 0)
		if ssp {
			e.Chk("stub")
		}
		loop := fb.Block("loop")
		for i := 0; i < 12; i++ {
			loop.AddI(ir.Reg(16+i), ir.Reg(16+i), 1)
		}
		loop.AddI(15, 15, 1)
		loop.CmpI(ir.CondLT, 6, 7, 15, 5000)
		loop.On(6).Br("loop")
		d := fb.Block("done")
		d.Halt()
		if ssp {
			stub := fb.Block("stub")
			stub.Spawn("spin")
			spin := fb.Block("spin")
			// A speculative thread that spins forever (capped by
			// MaxSpecInstrs) consuming bandwidth.
			spin.AddI(40, 40, 1)
			spin.Br("spin")
		}
		return p
	}
	cfg := testOOO()
	cfg.MaxSpecInstrs = 1 << 30
	base := runCfg(t, cfg, build(false))
	shared := runCfg(t, cfg, build(true))
	if float64(shared.Cycles) < 1.3*float64(base.Cycles) {
		t.Fatalf("SMT sharing invisible: %d vs %d cycles", shared.Cycles, base.Cycles)
	}
}
