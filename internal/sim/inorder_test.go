package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"ssp/internal/ir"
	"ssp/internal/sim/threaded"
)

// refSelect is the per-context selection scan the engines' pick replaced,
// at Table 1's two threads per cycle: from the cursor, visit every context
// once, skip main and the ineligible, take the first thread left, and move
// the cursor past it. It returns the new cursor and the pick, or -1.
func refSelect(ctxs, rr int, eligible uint64) (int, int) {
	for scan := 0; scan < ctxs; scan++ {
		if idx := (rr + scan) % ctxs; idx != 0 && eligible&(1<<idx) != 0 {
			return (idx + 1) % ctxs, idx
		}
	}
	return rr, -1
}

// refReplay is the cursor after k refSelect passes over a static eligible
// set, by orbit detection: the cursor's next value is a function of its
// current one, so its orbit repeats within ctxs+1 passes.
func refReplay(ctxs, rr int, eligible uint64, k int64) int {
	firstAt := map[int]int64{}
	var orbit []int
	for i := int64(0); i < k; i++ {
		if f, ok := firstAt[rr]; ok {
			return orbit[f+(k-f)%(i-f)]
		}
		firstAt[rr] = i
		orbit = append(orbit, rr)
		rr, _ = refSelect(ctxs, rr, eligible)
	}
	return rr
}

// TestQuickPickSpec: property — the engines' SMT front end picks the same
// speculative thread as the per-context scan, splits the issue width the
// same way and leaves the cursor where the scan did, and fast-forward's
// closed-form replay of k passes lands the cursor where k passes do, for
// every context count, cursor and eligible set: every k up to three times
// the context count, iterated, and one k above 2^40 against orbit detection.
func TestQuickPickSpec(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		ctxs := 1 + r.Intn(64)
		m := &Machine{Cfg: Config{IssueWidth: 6}, threads: make([]*Thread, ctxs)}
		for i := range m.threads {
			m.threads[i] = &Thread{activation: activation{idx: i}}
		}
		for trial := 0; trial < 50; trial++ {
			eligible := r.Uint64() & (^uint64(0) >> (64 - ctxs)) &^ 1
			if r.Intn(3) == 0 {
				eligible &= r.Uint64() & r.Uint64() // sparse sets
			}
			rr := r.Intn(ctxs)
			wantRR, want := refSelect(ctxs, rr, eligible)
			wantN, wantSlots := 2, 3
			if want < 0 {
				wantN, wantSlots = 1, 6
			}
			m.rr = rr
			var sel [2]*Thread
			n, slots := m.selectThreads(&sel, eligible)
			if m.rr != wantRR || n != wantN || slots != wantSlots || sel[0] != m.threads[0] ||
				(want >= 0 && sel[1].idx != want) {
				t.Logf("ctxs %d rr %d eligible %#x: got rr %d n %d slots %d, want rr %d pick %d",
					ctxs, rr, eligible, m.rr, n, slots, wantRR, want)
				return false
			}
			iter := rr
			for k := int64(0); k <= 3*int64(ctxs); k++ {
				m.rr = rr
				m.advanceRR(k, eligible)
				if m.rr != iter {
					t.Logf("ctxs %d rr %d eligible %#x: %d passes replay to %d, iterated %d", ctxs, rr, eligible, k, m.rr, iter)
					return false
				}
				iter, _ = refSelect(ctxs, iter, eligible)
			}
			k := int64(1)<<40 + r.Int63n(1<<20)
			m.rr = rr
			m.advanceRR(k, eligible)
			if want := refReplay(ctxs, rr, eligible, k); m.rr != want {
				t.Logf("ctxs %d rr %d eligible %#x: %d passes replay to %d, orbit %d", ctxs, rr, eligible, k, m.rr, want)
				return false
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

// jumpWatch counts fast-forward jumps that leave context 1 holding a
// speculative thread blocked on its scoreboard (answered from the wake
// cache).
type jumpWatch struct{ blocked int }

func (*jumpWatch) Cycle(*Machine) {}

func (w *jumpWatch) Jump(m *Machine, _ int64) {
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

// clockWatch counts the cycles a cycle observer is told about.
type clockWatch struct{ cycles, jumps, jumped int64 }

func (c *clockWatch) Cycle(*Machine) { c.cycles++ }

func (c *clockWatch) Jump(_ *Machine, k int64) { c.jumps++; c.jumped += k }

// TestCycleObserverOnlyObserves: an attached cycle observer is told about
// every simulated cycle and every jump, and changes nothing — on both
// engines, fast-forwarded or not, the observed run's Result, jumps included,
// is the unobserved run's.
func TestCycleObserverOnlyObserves(t *testing.T) {
	dp := Predecode(mustLink(t, chaseProgram(200, true)))
	for _, base := range []Config{testInOrder(), testOOO()} {
		for _, ff := range []bool{false, true} {
			cfg := base
			cfg.FastForward = ff
			want, err := NewPredecoded(cfg, dp).Run()
			if err != nil {
				t.Fatal(err)
			}
			m := NewPredecoded(cfg, dp)
			var c clockWatch
			m.SetCycleHooks(&c)
			got, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if ff && got.FastForwards == 0 {
				t.Fatalf("%v: the pointer chase never fast-forwarded", cfg.Model)
			}
			if c.cycles+c.jumped != got.Cycles || c.jumps != got.FastForwards || c.jumped != got.FastForwardedCycles {
				t.Fatalf("%v ff=%v: observer saw %d cycles and %d jumps over %d, run took %d cycles and %d jumps over %d",
					cfg.Model, ff, c.cycles, c.jumps, c.jumped, got.Cycles, got.FastForwards, got.FastForwardedCycles)
			}
			if got.Cycles != want.Cycles || got.Breakdown != want.Breakdown || got.FastForwards != want.FastForwards ||
				!slices.Equal(got.SpecActiveHist, want.SpecActiveHist) {
				t.Fatalf("%v ff=%v: observed run differs: %d cycles %v vs %d cycles %v",
					cfg.Model, ff, got.Cycles, got.Breakdown, want.Cycles, want.Breakdown)
			}
		}
	}
}

// TestProgressHooksCadence: a run publishing its progress gives the same
// Result as one without, and leaves the published count within 64 cycles of
// Result.Cycles — on both engines, fast-forwarded or not.
func TestProgressHooksCadence(t *testing.T) {
	dp := Predecode(mustLink(t, chaseProgram(200, true)))
	for _, base := range []Config{testInOrder(), testOOO()} {
		for _, ff := range []bool{false, true} {
			cfg := base
			cfg.FastForward = ff
			want, err := NewPredecoded(cfg, dp).Run()
			if err != nil {
				t.Fatal(err)
			}
			m := NewPredecoded(cfg, dp)
			var c atomic.Int64
			m.SetCycleHooks(ProgressHooks{C: &c})
			got, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%v ff=%v: run with progress hooks differs: %+v vs %+v", cfg.Model, ff, got, want)
			}
			if n := c.Load(); n <= 0 || n > got.Cycles || got.Cycles-n >= 64 {
				t.Fatalf("%v ff=%v: progress %d after a %d-cycle run", cfg.Model, ff, n, got.Cycles)
			}
		}
	}
}
