package sim

import (
	"math/rand"
	"testing"
	"testing/quick"

	"ssp/internal/ir"
	"ssp/internal/sim/threaded"
)

// refSelect is the per-context selection scan pickSpec replaced: from the
// cursor, visit every context once, skip main and the ineligible, take up to
// ThreadsPerCycle-1 threads, and move the cursor past each pick (the index
// of the next visit is recomputed from the moved cursor).
func refSelect(ctxs, tpc, rr int, eligible uint64) (int, []int) {
	var picks []int
	n := 1
	for scan, picked := 0, 0; scan < ctxs && picked < tpc-1 && n < maxSelect; scan++ {
		idx := (rr + scan) % ctxs
		if idx == 0 || eligible&(1<<idx) == 0 {
			continue
		}
		picks = append(picks, idx)
		n++
		picked++
		rr = (idx + 1) % ctxs
	}
	return rr, picks
}

// TestQuickPickSpec: property — selection over the eligible mask picks the
// same threads in the same order and leaves the cursor where the
// per-context scan did, for every context count, selection width, cursor
// and eligible set.
func TestQuickPickSpec(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ctxs := 1 + r.Intn(64)
		m := &Machine{Cfg: Config{ThreadsPerCycle: 1 + r.Intn(maxSelect)}, threads: make([]*Thread, ctxs)}
		for i := range m.threads {
			m.threads[i] = &Thread{activation: activation{idx: i}}
		}
		for trial := 0; trial < 50; trial++ {
			eligible := r.Uint64() & (^uint64(0) >> (64 - ctxs)) &^ 1
			if r.Intn(3) == 0 {
				eligible &= r.Uint64() & r.Uint64() // sparse sets
			}
			rr := r.Intn(ctxs)
			wantRR, want := refSelect(ctxs, m.Cfg.ThreadsPerCycle, rr, eligible)
			var sel [maxSelect]*Thread
			gotRR, n := m.pickSpec(rr, eligible, &sel, 1)
			if gotRR != wantRR || n-1 != len(want) || m.stepRR(rr, eligible) != wantRR {
				t.Logf("ctxs %d tpc %d rr %d eligible %#x: got rr %d n %d, want rr %d picks %v",
					ctxs, m.Cfg.ThreadsPerCycle, rr, eligible, gotRR, n, wantRR, want)
				return false
			}
			for i, idx := range want {
				if sel[1+i].idx != idx {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// RespawnProgram is a main loop that spawns one slice per iteration and
// stalls on a cold load; the slice reads r23 before writing it (a stale
// scoreboard from the context's previous activation would stall it there),
// blocks on a cold load of its own, and is killed with a second cold load
// still outstanding.
func RespawnProgram(iters int) *ir.Program {
	p := ir.NewProgram("main")
	base := int64(0x100000)
	fb := ir.NewFunc(p, "main")
	e := fb.Block("entry")
	e.MovI(14, base)
	e.MovI(15, base+int64(iters)*4096)
	e.MovI(20, 0)
	loop := fb.Block("loop")
	loop.Liw(0, 14)
	loop.Spawn("slice")
	loop.Ld(17, 14, 0)
	loop.Add(20, 20, 17)
	loop.AddI(14, 14, 4096)
	loop.Cmp(ir.CondLT, 6, 7, 14, 15)
	loop.On(6).Br("loop")
	done := fb.Block("done")
	done.MovI(22, 0x2000)
	done.St(22, 0, 20)
	done.Halt()
	slice := fb.Block("slice")
	slice.Lir(21, 0)
	slice.AddI(24, 23, 1) // r23 is the previous activation's load target
	slice.Ld(23, 21, 64)
	slice.AddI(24, 23, 1) // blocks on the cold load
	slice.Ld(25, 21, 128) // left outstanding at the kill
	slice.Kill()
	return p
}

// TestStartThreadClearsContext: a context whose last activation was killed
// with loads outstanding comes back from startThread with every scoreboard
// slot, every Ctx field (but the handed-over live-ins) and the wake cache
// zero, and Reset leaves every context's scoreboard zero.
func TestStartThreadClearsContext(t *testing.T) {
	cfg := testInOrder()
	cfg.Contexts = 2
	dp := Predecode(mustLink(t, RespawnProgram(20)))
	m := NewPredecoded(cfg, dp)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Spawns < 2 {
		t.Fatalf("only %d spawns: the context was never reused", res.Spawns)
	}
	c, parent := m.threads[1], m.main()
	outstanding := false
	for _, e := range c.sb.slot {
		if e.loadLevel != 0 && e.ready > m.now {
			outstanding = true
		}
	}
	if c.active || !outstanding || c.Regs == ([ir.NumRegs]uint64{}) {
		t.Fatalf("last activation (active %v) left no outstanding load or no registers to clear", c.active)
	}
	parent.OutLIB[0] = 0xfeed
	m.startThread(c, 7, parent)
	if c.sb != (scoreboard{}) {
		t.Error("scoreboard slots survived the respawn")
	}
	if c.Ctx != (threaded.Ctx{InLIB: parent.OutLIB}) {
		t.Errorf("Ctx survived the respawn: %+v", c.Ctx)
	}
	if c.wakePC != 0 || c.wakeAt != 0 || c.wakeLevel != 0 || c.waiting(m.now) {
		t.Errorf("wake cache survived the respawn: pc %d at %d level %d", c.wakePC, c.wakeAt, c.wakeLevel)
	}
	if c.pc != 7 || !c.active || !c.spec || c.instrs != 0 || len(c.pending) != 0 {
		t.Errorf("respawned context: pc %d active %v spec %v instrs %d pending %d", c.pc, c.active, c.spec, c.instrs, len(c.pending))
	}
	// Every scoreboard write marks its slot, so Reset's dirty-slot clear
	// leaves the main thread's scoreboard, written by the whole run, zero.
	if m.main().sb == (scoreboard{}) {
		t.Fatal("the main thread wrote no scoreboard slot")
	}
	if err := m.Reset(cfg, dp); err != nil {
		t.Fatal(err)
	}
	for i, th := range m.threads {
		if th.sb != (scoreboard{}) {
			t.Errorf("context %d: scoreboard slots survived Reset", i)
		}
	}
}

// jumpWatch counts fast-forward jumps taken while context 1 holds a
// speculative thread blocked on its scoreboard (answered from the wake
// cache).
type jumpWatch struct{ blocked int }

func (*jumpWatch) Cycle(*Machine, *Thread, CycleStats) {}

func (w *jumpWatch) Skip(m *Machine, _ *Thread, _ CycleStats, _ int64) {
	if c := m.threads[1]; c.active && c.spec && c.waiting(m.now) {
		w.blocked++
	}
}

// TestRespawnAcrossJump: respawnProgram really exercises what
// TestRespawnStrategyEquivalence holds equal across strategies — jumps
// taken while the speculative thread waits on its load, and its one
// context reused by the next spawn.
func TestRespawnAcrossJump(t *testing.T) {
	cfg := testInOrder()
	cfg.Contexts = 2
	cfg.FastForward = true
	m := NewPredecoded(cfg, Predecode(mustLink(t, RespawnProgram(20))))
	w := new(jumpWatch)
	m.SetCycleHooks(w)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if w.blocked == 0 || res.Spawns < 2 {
		t.Fatalf("%d jumps over a blocked speculative thread, %d spawns on one context", w.blocked, res.Spawns)
	}
}

// cycleCounter is a per-cycle observer that does not implement
// CycleSkipper.
type cycleCounter struct{ n int64 }

func (c *cycleCounter) Cycle(*Machine, *Thread, CycleStats) { c.n++ }

// TestPerCycleHookDisablesFastForward: a cycle hook that cannot bulk-skip
// turns fast-forwarding off on its machine, so it sees every simulated
// cycle, and the run takes the cycles the fast-forwarded run takes.
func TestPerCycleHookDisablesFastForward(t *testing.T) {
	cfg := testInOrder()
	cfg.FastForward = true
	dp := Predecode(mustLink(t, chaseProgram(200, false)))
	ff, err := NewPredecoded(cfg, dp).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ff.FastForwards == 0 {
		t.Fatal("the pointer chase never fast-forwarded")
	}
	m := NewPredecoded(cfg, dp)
	var c cycleCounter
	m.SetCycleHooks(&c)
	res, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.FastForwards != 0 || c.n != res.Cycles || res.Cycles != ff.Cycles {
		t.Fatalf("observed run: %d jumps, hook saw %d of %d cycles (fast-forwarded run: %d)",
			res.FastForwards, c.n, res.Cycles, ff.Cycles)
	}
}
