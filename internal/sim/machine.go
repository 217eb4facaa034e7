package sim

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"sync/atomic"

	"ssp/internal/ir"
	"ssp/internal/sim/bpred"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/sim/threaded"
)

// libSlots is the number of live-in buffer slots per context (the modelled
// RSE backing-store window). The paper's slices need ~3-5 live-ins
// (Table 2).
const libSlots = ir.LIBSlots

// Thread is one hardware thread context: the state of its current
// activation, and the per-context buffers that outlive activations.
type Thread struct {
	activation

	// sb is the in-order scoreboard. It survives activations, like win: a
	// spawn clears only the slots the context's last activation wrote
	// instead of zeroing the whole array with the activation.
	sb scoreboard

	// pending tracks the main thread's outstanding cache fills for the
	// Figure 10 accounting, which reads only the main thread's; pendDeep and
	// pendNext cache over it. Speculative contexts leave it empty.
	pending []pendingFill

	// OOO state (nil on the in-order model).
	win *window
}

// activation is a thread context's per-activation state, zeroed by every
// spawn on the context. Its architectural state — register files,
// predicates, branch registers, live-in buffers — is the embedded
// threaded.Ctx, the same structure the closure-threaded execution core's
// compiled closures write, so the engines can run specialized steps against
// thread state with no copying or indirection.
type activation struct {
	// The fields the cycle loops read for every selected thread come
	// first, ahead of the 2 KB of architectural state, so that selection
	// and a blocked thread's issue attempt touch one host cache line.
	idx    int
	active bool
	spec   bool
	// wakeLevel, wakePC and wakeAt are the scoreboard wake cache: when
	// the instruction at wakePC blocked on the scoreboard, wakeAt is the
	// ready cycle of its first unready source and wakeLevel that source's
	// loadLevel. While the thread is still at wakePC and the clock is
	// before wakeAt the instruction is still blocked on the same source —
	// only the thread's own issue writes its scoreboard, and to issue
	// wakePC the clock must reach wakeAt — so the issue path and the
	// fast-forward probe answer from here without reading the scoreboard.
	// A zero wakeAt (fresh activation) never hits.
	wakeLevel uint8
	pc        int
	// frontStallUntil blocks issue/dispatch until the given cycle
	// (misprediction refill, spawn flush, thread startup).
	frontStallUntil int64
	wakePC          int
	wakeAt          int64
	instrs          int64

	threaded.Ctx

	// resumePC is where the main thread resumes after a chk.c stub, set
	// when the exception is taken and consumed by the stub's spawn
	// (Figure 7: "The main thread resumes its normal execution after
	// executing the stub block as its recovery code").
	resumePC int

	// lastChkTaken rate-limits chk.c exceptions (Config.SpawnCooldown).
	lastChkTaken int64

	// pendDeep and pendNext cache the deepest level among the thread's
	// pending fills and their earliest readyAt: until the clock reaches
	// pendNext no fill completes, so deepestOutstanding answers from the
	// cache instead of rescanning. The zero pendNext of a fresh activation
	// forces one rescan, which also sets it.
	pendDeep mem.Level
	pendNext int64
}

// sbEntry is one in-order scoreboard slot: the cycle its location becomes
// ready and, while an outstanding load produces it, the satisfying memory
// level + 1 (0 for ALU results and L1 hits).
type sbEntry struct {
	ready     int64
	loadLevel uint8
}

// scoreboard is the in-order scoreboard: one slot per architectural
// location, as an array of pairs rather than two parallel arrays (the issue
// loop touches ready and loadLevel of the same location back to back).
//
// dirty marks the slots written since the last clear; an activation writes
// a handful of the NumLocs slots, so the next spawn on the context (and
// Reset) zeroes only those. Every write goes through set.
type scoreboard struct {
	slot  [ir.NumLocs]sbEntry
	dirty [(ir.NumLocs + 63) / 64]uint64
}

// set writes slot loc and marks it dirty.
func (s *scoreboard) set(loc ir.Loc, e sbEntry) {
	s.slot[loc] = e
	s.dirty[loc>>6] |= 1 << (loc & 63)
}

// clear zeroes every slot marked dirty.
func (s *scoreboard) clear() {
	for w, word := range s.dirty {
		for ; word != 0; word &= word - 1 {
			s.slot[w<<6|bits.TrailingZeros64(word)] = sbEntry{}
		}
		s.dirty[w] = 0
	}
}

// stall returns the first source of d that is not ready at now, or nil.
func (s *scoreboard) stall(d *decode.Decoded, now int64) *sbEntry {
	for _, loc := range d.Uses[:d.NU] {
		if e := &s.slot[loc]; e.ready > now {
			return e
		}
	}
	return nil
}

// waiting reports whether the wake cache proves t still blocked on the
// scoreboard at now.
func (t *Thread) waiting(now int64) bool {
	return t.pc == t.wakePC && now < t.wakeAt
}

// wakeLoad returns the wake cache's blocking source as issueInOrder reports
// it: whether an outstanding load produces it, and from which level.
func (t *Thread) wakeLoad() (mem.Level, bool) {
	if t.wakeLevel == 0 {
		return 0, false
	}
	return mem.Level(t.wakeLevel - 1), true
}

// block fills the wake cache: the instruction at pc waits on source e.
func (t *Thread) block(pc int, e *sbEntry) {
	t.wakePC, t.wakeAt, t.wakeLevel = pc, e.ready, e.loadLevel
}

// Instrs returns how many instructions the thread has executed in its
// current activation (reset on every spawn). External oracles — the
// safety-budget hook in internal/check — read it from an ExecHooks callback,
// which fires before the count includes the instruction being executed.
func (t *Thread) Instrs() int64 { return t.instrs }

// Speculative reports whether the thread runs a p-slice rather than the main
// program.
func (t *Thread) Speculative() bool { return t.spec }

type pendingFill struct {
	readyAt int64
	level   mem.Level
}

// addFill records an outstanding cache fill of the main thread, folding it
// into the cached deepest level and earliest completion. A speculative
// thread's fills are not recorded: nothing reads them.
func (t *Thread) addFill(readyAt int64, level mem.Level) {
	if t.spec {
		return
	}
	if len(t.pending) == 0 || level > t.pendDeep {
		t.pendDeep = level
	}
	if len(t.pending) == 0 || readyAt < t.pendNext {
		t.pendNext = readyAt
	}
	t.pending = append(t.pending, pendingFill{readyAt: readyAt, level: level})
}

// deepestOutstanding returns the deepest level among outstanding fills, or
// (0,false) when none remain. Once a fill has completed (now reaches
// pendNext), completed entries are compacted away and the cache rebuilt.
// Afterwards every pending fill is outstanding and pendNext is the earliest
// completion among them.
func (t *Thread) deepestOutstanding(now int64) (mem.Level, bool) {
	if now >= t.pendNext {
		out := t.pending[:0]
		var deepest mem.Level
		next := ffNoEvent
		for _, p := range t.pending {
			if p.readyAt > now {
				out = append(out, p)
				deepest = max(deepest, p.level)
				next = min(next, p.readyAt)
			}
		}
		t.pending, t.pendDeep, t.pendNext = out, deepest, next
	}
	return t.pendDeep, len(t.pending) > 0
}

// Machine simulates one program on one machine model. Its execution core is
// predecoded: architectural execution runs the image's compiled pure steps
// and a handler table for memory and control instructions, over the dense
// decode.Decoded sidecar, never through ir.Instr.
type Machine struct {
	Cfg  Config
	Img  *ir.Image
	Mem  *mem.Memory
	Hier *mem.Hierarchy
	Pred *bpred.Predictor

	// code is the predecoded sidecar (shared, immutable) with the trap
	// record at index trap = len(image code) (decode.Program.Exec), and lat
	// the machine's resolution of the config-independent latency classes.
	code []decode.Decoded
	trap int
	lat  [decode.NumLatClasses]int64
	// units is both engines' per-cycle function-unit budget by class.
	units fuBudget

	threads []*Thread
	now     int64
	res     Result
	// ef is execArch's scratch effect slot (see exec.go).
	ef archEffect

	// steps is the per-PC pure-step array of the image's closure-threaded
	// compile: for instructions with no memory, control, or machine-level
	// effect it is the only definition of their semantics. Shared and
	// immutable, memoized on the decode.Program.
	steps []threaded.Step
	// runs is the image's fused runs on the interpreter's machine
	// (InterpretPredecoded) and nil everywhere else.
	runs []threaded.Run

	// exec and cycle are the instrumentation hook points (hooks.go), both
	// nil unless something is attached: exec for the profiler or an
	// external oracle, cycle for a clock observer.
	exec  ExecHooks
	cycle CycleHooks

	// noSpec suppresses all speculative-thread creation: chk.c never takes
	// its exception and spawn requests are counted but ignored. It is the
	// interpreter's explicit "no speculation" mode — unlike occupying the
	// spare contexts, it leaves the context-utilization accounting honest.
	noSpec bool

	// stop is the cancellation flag behind RunContext: an AfterFunc on the
	// run's context sets it, and the engines poll it between cycles (the OOO
	// engine every iteration, the in-order engine every 64 cycles), so a
	// cancelled run returns within 64 simulated cycles or one fast-forward
	// hop. It costs runs without a cancellable context at most one
	// predictable load-and-branch per cycle.
	stop atomic.Bool

	mainDone bool
	rr       int // round-robin cursor over speculative threads
	// liveSpec counts active speculative threads and specMask holds them
	// (bit i = threads[i]), both maintained at the single
	// activation/deactivation points (startThread/killThread). They let
	// the per-cycle paths skip thread selection, select over the mask
	// instead of walking every context, and index the utilization
	// histogram; Conservation's sum(SpecActiveHist) == Cycles invariant
	// cross-checks liveSpec every run.
	liveSpec int
	specMask uint64
}

// New builds a machine for the image under the given configuration,
// predecoding the image privately. Callers running several machines over the
// same image should Predecode once and share it via NewPredecoded.
func New(cfg Config, img *ir.Image) *Machine {
	return NewPredecoded(cfg, decode.Predecode(img))
}

// Predecode lowers a linked image into the shareable form NewPredecoded
// consumes. The result is immutable: any number of machines, across models
// and goroutines, may execute it concurrently.
func Predecode(img *ir.Image) *decode.Program { return decode.Predecode(img) }

// ThreadedProgram returns the closure-threaded compile of a predecoded
// image, building it at most once per decode.Program (the compile is
// memoized on the sidecar, so sharing the decode shares the steps and runs).
// Machines do this on Reset; exp.Suite calls it eagerly so matrix cells
// never pay the compile inside a timed run.
func ThreadedProgram(dp *decode.Program) *threaded.Program {
	return dp.Threaded(func() any { return threaded.Compile(dp) }).(*threaded.Program)
}

// NewPredecoded builds a machine over an already-predecoded image.
// A machine built for an invalid configuration (Config.Validate) reports the
// error from Run.
func NewPredecoded(cfg Config, dp *decode.Program) *Machine {
	m := &Machine{
		Mem:  mem.NewMemory(),
		Pred: bpred.New(),
	}
	_ = m.Reset(cfg, dp) // an invalid cfg fails Run with the same error
	return m
}

// Reset returns the machine to its just-constructed state over a (possibly
// different) configuration and predecoded image, reusing every allocation
// whose shape still fits: the memory's page frames and radix layout, the
// hierarchy (when the cache geometry is unchanged), the thread contexts and
// their per-thread buffers, and the branch predictor tables. A Reset machine
// runs bit-for-bit identically to a freshly constructed one — the
// check.StrategyEquivalence gate and the strategy sweep enforce this — which
// is what lets exp.Suite pool machines across matrix cells.
//
// Results returned by earlier runs stay valid: Run detaches the hierarchy
// statistics, and Reset allocates fresh histogram/profile slices instead of
// clearing the ones previous Results still reference.
//
// An invalid configuration (Config.Validate) is recorded but builds nothing;
// Reset returns its error, and so does every Run until a valid Reset.
func (m *Machine) Reset(cfg Config, dp *decode.Program) error {
	m.Cfg = cfg
	if err := cfg.Validate(); err != nil {
		return err
	}
	m.Img = dp.Img
	m.code, m.trap = dp.Exec(), len(dp.Code)
	m.steps = ThreadedProgram(dp).Steps
	m.units = fuBudget{
		decode.FUNone: cfg.IssueWidth,
		decode.FUInt:  cfg.IntUnits,
		decode.FUMem:  cfg.MemPorts,
		decode.FUBr:   cfg.BrUnits,
		decode.FUFP:   cfg.FPUnits,
	}
	m.lat = [decode.NumLatClasses]int64{
		decode.Lat1:   1,
		decode.Lat2:   2,
		decode.LatMul: cfg.MulLat,
		decode.LatFP:  cfg.FPLat,
		decode.LatLIB: cfg.LIBCopyLat,
	}
	if m.Hier != nil && mem.SameGeometry(m.Hier.Cfg, cfg.Mem) {
		m.Hier.Cfg = cfg.Mem
		m.Hier.Reset()
	} else {
		m.Hier = mem.NewHierarchy(cfg.Mem)
	}
	m.Hier.PresizeLoads(dp.MaxID + 1)
	m.Mem.Reset()
	m.Mem.Install(dp.Img.Data)
	m.Pred.Reset()
	if len(m.threads) != cfg.Contexts {
		m.threads = make([]*Thread, cfg.Contexts)
		for i := range m.threads {
			m.threads[i] = &Thread{activation: activation{idx: i, resumePC: -1, lastChkTaken: -1 << 40}}
		}
	} else {
		for i, t := range m.threads {
			t.activation = activation{idx: i, resumePC: -1, lastChkTaken: -1 << 40}
			t.sb.clear()
			t.pending = t.pending[:0]
			if cfg.Model != OOO {
				t.win = nil
			}
		}
	}
	m.now = 0
	m.stop.Store(false)
	m.res = Result{}
	m.ef = archEffect{}
	m.exec = nil
	m.cycle = nil
	m.noSpec = false
	m.mainDone = false
	m.rr = 0
	m.liveSpec = 0
	m.specMask = 0
	if cfg.Profile {
		m.res.PCCount = make([]uint64, len(dp.Code))
		m.res.CallEdges = make(map[int]map[int]uint64)
		m.AttachExec(profileHooks{})
	}
	// Buckets 0..Contexts: normally at most Contexts-1 speculative threads
	// exist (the main thread holds context 0), but a freed main context can
	// be rebound speculatively, so the histogram covers every context being
	// speculative. Sizing it Contexts (and guarding the index) silently
	// dropped that last bucket, breaking sum(SpecActiveHist) == Cycles.
	m.res.SpecActiveHist = make([]int64, cfg.Contexts+1)
	return nil
}

// main returns the main thread (context 0).
func (m *Machine) main() *Thread { return m.threads[0] }

// freeContext returns an inactive context, or nil.
func (m *Machine) freeContext() *Thread {
	for _, t := range m.threads {
		if !t.active {
			return t
		}
	}
	return nil
}

// startThread initializes a speculative thread at the target PC, handing it
// the parent's outgoing live-in buffer — the inter-thread communication path
// through the RSE backing store (§2.1).
func (m *Machine) startThread(c *Thread, pc int, parent *Thread) {
	// The scoreboard and OOO window keep their backing arrays across the
	// context's lifetimes, so steady-state spawning allocates nothing and
	// zeroes only what the last activation wrote.
	c.sb.clear()
	c.activation = activation{idx: c.idx, active: true, spec: true, pc: pc, resumePC: -1}
	m.liveSpec++
	m.specMask |= 1 << c.idx
	c.InLIB = parent.OutLIB
	c.frontStallUntil = m.now + m.Cfg.SpawnStartup
	if m.Cfg.Model == OOO {
		c.win = c.win.reset(m.Cfg.ROBSize, m.Cfg.RSSize)
	}
}

// killThread frees a context. The thread's window is kept for reuse by the
// next thread started on this context.
func (m *Machine) killThread(t *Thread) {
	if t.active && t.spec {
		m.liveSpec--
		m.specMask &^= 1 << t.idx
	}
	t.active = false
}

// countInstr counts one executed instruction of t and reports whether it
// exhausts a speculative activation's budget: >= so an activation executes
// at most MaxSpecInstrs instructions, exactly the budget the safety verifier
// certifies against (ssp.AnalyzeSafety), never that plus one. Both engines
// count every speculative instruction here; the in-order engine settles a
// batch of the main thread's pure steps at once instead.
func (m *Machine) countInstr(t *Thread) bool {
	t.instrs++
	if !t.spec {
		m.res.MainInstrs++
		return false
	}
	m.res.SpecInstrs++
	return t.instrs >= m.Cfg.MaxSpecInstrs
}

// Run executes the program to completion of the main thread and returns the
// result. It dispatches on the configured model.
func (m *Machine) Run() (*Result, error) { return m.RunContext(context.Background()) }

// ErrInterrupted is returned by a run stopped with Interrupt when the run's
// context (if any) is still live — the interrupt, not the context, ended it.
var ErrInterrupted = errors.New("sim: run interrupted")

// Interrupt asks a running machine to stop at its engine's next stop check
// (every cycle on the OOO engine, every 64 cycles on the in-order one). It
// is safe to call from any goroutine, the machine's own hooks included.
// RunContext uses it as the context's AfterFunc; direct callers without a
// cancelled context get ErrInterrupted back from the run.
func (m *Machine) Interrupt() { m.stop.Store(true) }

// RunContext is Run under a context: when ctx is cancelled or its deadline
// expires, the engine stops at the next cycle-loop iteration — within one
// simulated cycle, or one fast-forward hop when the timing core is jumping —
// and RunContext returns nil and ctx.Err() instead of running on to the
// watchdog limit. A cancelled machine holds a half-finished run; Reset
// restores it completely (check.StrategyEquivalence proves Reset equals
// fresh construction), but pooling layers discard it anyway and only recycle
// machines from clean completions.
func (m *Machine) RunContext(ctx context.Context) (*Result, error) {
	if ctx.Done() != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		m.stop.Store(false)
		cancel := context.AfterFunc(ctx, m.Interrupt)
		defer cancel()
	}
	if err := m.Cfg.Validate(); err != nil {
		return nil, err
	}
	m.main().active = true
	m.main().pc = m.Img.Entry
	switch m.Cfg.Model {
	case InOrder:
		m.runInOrder()
	case OOO:
		m.runOOO()
	default:
		return nil, fmt.Errorf("sim: unknown model %v", m.Cfg.Model)
	}
	if m.stop.Load() && !m.mainDone && !m.res.TimedOut {
		// The engine bailed out at the stop check; the context, not the
		// program, ended this run. (A run that completed or timed out in
		// the same cycle the context fired still reports its real outcome.)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, ErrInterrupted
	}
	m.res.Cycles = m.now
	// Detach the statistics so the Result stays valid when the machine is
	// Reset and reused for another run (exp.Suite pools machines).
	m.res.Hier = m.Hier.DetachStats()
	m.res.FinalRegs = m.main().Regs
	m.res.MemChecksum = m.Mem.Checksum()
	r := m.res
	return &r, nil
}
