// Package check is the differential and invariant validation subsystem for
// the SSP toolchain. The paper's central safety claim (§2) is that adaptation
// "does not alter the architectural state of the main thread", and the whole
// evaluation rests on three engines — the functional interpreter, the
// in-order model, and the OOO model — agreeing on what a program does while
// disagreeing only on when. This package asserts exactly that, in layers:
//
//  1. Differential: the same linked image, executed by the interpreter and
//     both cycle models, yields identical final main-thread registers,
//     memory checksum, and (for programs without SSP attachments, whose
//     architectural path is timing-independent) retired main-thread
//     instruction counts.
//  2. Metamorphic: an adapted program's main-thread architectural state
//     equals the original's under both machine models, and its speculative
//     threads never attempt a store (Result.SpecStores == 0).
//  3. Conservation: every sim.Result is internally consistent — the cycle
//     breakdown and the context-utilization histogram each sum to Cycles,
//     cache hit counts reconcile with access counts at every level, the
//     spawn accounting covers every taken chk.c, and a profiled run's
//     per-PC counts sum to the retired main-thread instructions.
//  4. Strategy: no host-side execution strategy changes a Result
//     (StrategyEquivalence).
//  5. Safety: every slice's static budget certificate holds on both engines
//     (SafetyEquivalence), and every injected violation is rejected.
//  6. Lift: adapting a lifted image, and relifting an adapted one, keep the
//     image (LiftEquivalence).
//
// Seed runs every layer on one workloads.RandomProgram, so any violation
// reproduces from its seed alone (cmd/sspcheck -seed N). One lattice runner
// makes every engine run of the package; the other layers read its runs.
package check

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"ssp/internal/ir"
	"ssp/internal/lift"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// maxInterpInstrs bounds functional interpretation of checked programs.
const maxInterpInstrs = 100_000_000

// Configs returns the machine configurations a check run exercises: the
// in-order and OOO models, on the scaled-down test memory system when tiny
// is set (the configuration used by cmd/sspcheck and the test suites).
func Configs(tiny bool) []sim.Config {
	io, oo := sim.DefaultInOrder(), sim.DefaultOOO()
	if tiny {
		io.UseTinyMem()
		oo.UseTinyMem()
	}
	return []sim.Config{io, oo}
}

// hasSSP reports whether the program carries SSP attachments (chk.c or
// spawn); their trigger timing is machine-dependent, so instruction counts
// and the reserved scratch register may legitimately differ across engines.
func hasSSP(p *ir.Program) bool {
	found := false
	for _, f := range p.Funcs {
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
			if in.Op == ir.OpChk || in.Op == ir.OpSpawn {
				found = true
			}
		})
	}
	return found
}

// compareRegs diffs two main-thread register files, optionally skipping the
// SSP scratch register (stubs stage the countdown bound through it on the
// main thread, so it diverges between original and adapted runs by design).
func compareRegs(a, b [ir.NumRegs]uint64, skipScratch bool, what string) error {
	for r := 0; r < ir.NumRegs; r++ {
		if skipScratch && ir.Reg(r) == ssp.ScratchGR {
			continue
		}
		if a[r] != b[r] {
			return fmt.Errorf("%s: r%d = %#x vs %#x", what, r, a[r], b[r])
		}
	}
	return nil
}

// Differential applies the differential layer to one program: the lattice
// runner at its reference point (each cycle model on a fresh machine, and
// the interpreter, bounded by maxInstrs), then referenceChecks.
func Differential(cfgs []sim.Config, p *ir.Program, maxInstrs int64) error {
	r := newRunner(cfgs, maxInstrs, nil)
	if err := r.add(p, nil); err != nil {
		return err
	}
	if err := r.walk(lattice[:1]...); err != nil {
		return err
	}
	return r.referenceChecks()
}

// MetamorphicResults applies the metamorphic invariant to two results that
// were already computed on the same machine model and inputs: the adapted
// run must reproduce the original's main-thread architectural state
// (registers minus the reserved scratch, memory checksum) and its
// speculative threads must never store. Seed applies it to the strategy
// layer's reference runs, and the closed-loop tuner gates every round with
// it.
func MetamorphicResults(orig, adapted *sim.Result) error {
	if err := compareRegs(adapted.FinalRegs, orig.FinalRegs, true, "adapted vs original"); err != nil {
		return fmt.Errorf("check: metamorphic: %w", err)
	}
	if adapted.MemChecksum != orig.MemChecksum {
		return fmt.Errorf("check: metamorphic: adapted memory checksum %#x, original %#x", adapted.MemChecksum, orig.MemChecksum)
	}
	if adapted.SpecStores != 0 {
		return fmt.Errorf("check: metamorphic: speculative threads attempted %d stores", adapted.SpecStores)
	}
	return nil
}

// Conservation asserts the internal-consistency invariants of one simulation
// result (layer 3).
func Conservation(res *sim.Result) error {
	var bd int64
	for _, c := range res.Breakdown {
		bd += c
	}
	if bd != res.Cycles {
		return fmt.Errorf("check: conservation: breakdown sums to %d, cycles %d", bd, res.Cycles)
	}
	var hist int64
	for _, c := range res.SpecActiveHist {
		hist += c
	}
	if hist != res.Cycles {
		return fmt.Errorf("check: conservation: utilization histogram sums to %d, cycles %d", hist, res.Cycles)
	}
	if res.Hier != nil {
		if err := reconcile(&res.Hier.Totals, "totals"); err != nil {
			return err
		}
		var perLoad uint64
		for id, s := range res.Hier.ByLoad() {
			if err := reconcile(s, fmt.Sprintf("load %d", id)); err != nil {
				return err
			}
			perLoad += s.Accesses
		}
		if perLoad != res.Hier.Totals.Accesses {
			return fmt.Errorf("check: conservation: per-load accesses sum to %d, totals %d", perLoad, res.Hier.Totals.Accesses)
		}
	}
	// A profiled run counts each retired main-thread instruction at its PC
	// exactly once; the profile's frequencies rest on this.
	if res.PCCount != nil {
		var n uint64
		for _, c := range res.PCCount {
			n += c
		}
		if n != uint64(res.MainInstrs) {
			return fmt.Errorf("check: conservation: profile counts sum to %d, main instrs %d", n, res.MainInstrs)
		}
	}
	// Every taken chk.c redirects the main thread into a straight-line stub
	// that ends in spawn, so — on runs that finished — each taken check
	// produced a spawn attempt (started or ignored); chained slices only
	// add to the left side.
	if res.Err() == nil && res.Spawns+res.SpawnsIgnored < res.ChkTaken {
		return fmt.Errorf("check: conservation: %d spawns + %d ignored < %d chk.c taken", res.Spawns, res.SpawnsIgnored, res.ChkTaken)
	}
	return nil
}

// reconcile asserts hits+misses reconcile with accesses for one load stat:
// every counted access lands in exactly one (level, full/partial) bucket.
func reconcile(s *mem.LoadStat, what string) error {
	var hits uint64
	for lvl := range s.Hits {
		hits += s.Hits[lvl][0] + s.Hits[lvl][1]
	}
	if hits != s.Accesses {
		return fmt.Errorf("check: conservation: %s: %d bucketed accesses, %d counted", what, hits, s.Accesses)
	}
	return nil
}

// point is one execution strategy of the StrategyEquivalence lattice: the
// fast-forward knob, where the predecoded image comes from, which machine
// runs it, and whether the profiling exec hook is attached.
type point struct {
	ff           bool // Config.FastForward: stall jumps vs per-cycle timing
	freshDecode  bool // a private Predecode (and threaded compile) vs the shared one
	freshMachine bool // a newly built machine vs the one Reset machine
	profile      bool // Config.Profile: per-PC counts and call edges
}

func (pt point) String() string {
	return fmt.Sprintf("ff=%s decode=%s machine=%s%s", pick(pt.ff, "on", "off"), pick(pt.freshDecode, "fresh", "shared"),
		pick(pt.freshMachine, "fresh", "reset"), pick(pt.profile, " profile=on", ""))
}

func pick(b bool, yes, no string) string {
	if b {
		return yes
	}
	return no
}

// profiled is how the experiment suite takes its in-order baseline and
// profile, and how Seed takes the original's: a profiled run.
var profiled = point{ff: true, profile: true}

// lattice lists every point in run order. The first is the reference the
// others are compared against: per-cycle timing over the shared decode on a
// newly built machine.
var lattice = []point{
	{freshMachine: true},
	{ff: true, freshDecode: true, freshMachine: true},
	{}, {ff: true},
	profiled,
}

// StrategyEquivalence asserts that no host-side execution strategy changes
// a result: for every configured model and every given program, each
// lattice point must match the reference on the whole sim.Result
// (SameTiming), and every run must pass the run rule and conservation. The
// points are FastForward off and on over the shared decode, one fresh
// private decode (ff=on), and one profiled run (ff=on), whose PCCount and
// CallEdges SameTiming does not compare: a profiled baseline is the
// unprofiled one plus its profile. All shared-decode points after the
// reference run on one machine, Reset between runs and walked point-major
// over the (model, program) cells, so it crosses model and program switches
// both ways and every FastForward/profile change. The Figure 10 breakdown
// and the utilization histogram are part of every compared Result: the
// engines account them inline on every run, with no mode that leaves them
// out. The interpreter with its fused runs (sim.InterpretPredecoded) is also
// checked against its per-PC loop (sim.InterpretStepwise). A failure names its cell and both points,
// e.g. "ooo prog 1 ff=on decode=shared machine=reset vs ff=off
// decode=shared machine=fresh: cycles 813 vs 812". Seed's differential,
// metamorphic and dynamic safety checks read the reference runs rather than
// making their own.
func StrategyEquivalence(cfgs []sim.Config, progs ...*ir.Program) error {
	_, err := strategyEquivalence(cfgs, nil, progs...)
	return err
}

// perturbFunc alters one lattice point's Result before it is checked, so
// tests can show every check actually reads it.
type perturbFunc func(cfg sim.Config, prog int, pt point, r *sim.Result)

// strategyEquivalence is StrategyEquivalence that also returns the runner,
// whose reference runs the other layers read. A non-nil perturb alters every
// point's Result before it is checked.
func strategyEquivalence(cfgs []sim.Config, perturb perturbFunc, progs ...*ir.Program) (*runner, error) {
	r := newRunner(cfgs, maxInterpInstrs, perturb)
	for _, p := range progs {
		if err := r.add(p, nil); err != nil {
			return nil, err
		}
	}
	return r, r.walk(lattice...)
}

// runner is the lattice runner: the programs added so far, and the Result
// of every cell it ran. Its shared-decode points run on one Reset machine.
type runner struct {
	cfgs      []sim.Config
	maxInstrs int64 // the interpreter's instruction bound
	perturb   perturbFunc
	progs     []*ir.Program
	dps       []*decode.Program
	interps   []*sim.InterpResult
	budgets   [][]map[string]int64 // [pi][ci]: the budget oracle's, nil for none
	runs      map[cell]*sim.Result
	shared    *sim.Machine
}

// cell is one run of the lattice: point pt of model cfgs[ci] on progs[pi].
type cell struct {
	pt     point
	ci, pi int
}

func newRunner(cfgs []sim.Config, maxInstrs int64, perturb perturbFunc) *runner {
	return &runner{cfgs: cfgs, maxInstrs: maxInstrs, perturb: perturb, runs: make(map[cell]*sim.Result)}
}

// add links and predecodes p, with its certified budgets per model (nil for
// none); its interpreter with runs must agree with the per-PC loop.
func (r *runner) add(p *ir.Program, budgets []map[string]int64) error {
	pi := len(r.progs)
	img, err := ir.Link(p)
	if err != nil {
		return fmt.Errorf("check: strategy: link prog %d: %w", pi, err)
	}
	dp := sim.Predecode(img)
	ref, err := sim.InterpretStepwise(r.cfgs[0], dp, r.maxInstrs)
	if err != nil {
		return fmt.Errorf("check: strategy: prog %d per-PC interpreter: %w", pi, err)
	}
	thr, err := sim.InterpretPredecoded(r.cfgs[0], dp, r.maxInstrs)
	if err == nil {
		err = compareRegs(thr.Regs, ref.Regs, false, "regs")
	}
	if err == nil && (thr.Instrs != ref.Instrs || thr.Mem.Checksum() != ref.Mem.Checksum()) {
		err = fmt.Errorf("%d instrs, checksum %#x vs %d, %#x", thr.Instrs, thr.Mem.Checksum(), ref.Instrs, ref.Mem.Checksum())
	}
	if err != nil {
		return fmt.Errorf("check: strategy: prog %d interpreter with runs vs per-PC loop: %w", pi, err)
	}
	r.progs, r.dps, r.interps = append(r.progs, p), append(r.dps, dp), append(r.interps, thr)
	r.budgets = append(r.budgets, budgets)
	return nil
}

// walk runs pts point-major over every (model, program) cell, skipping the
// cells an earlier walk ran. A cell's reference, lattice[0], must run first.
func (r *runner) walk(pts ...point) error {
	for _, pt := range pts {
		for ci := range r.cfgs {
			for pi := range r.progs {
				if c := (cell{pt, ci, pi}); r.runs[c] == nil {
					res, err := r.exec(c)
					if err != nil {
						return err
					}
					r.runs[c] = res
				}
			}
		}
	}
	return nil
}

// ref returns the reference run of model ci on program pi.
func (r *runner) ref(ci, pi int) *sim.Result { return r.runs[cell{lattice[0], ci, pi}] }

// exec makes one cell's run and checks it: the budget oracle at the
// reference point, the run rule, conservation, and SameTiming elsewhere.
func (r *runner) exec(c cell) (*sim.Result, error) {
	cfg, dp := r.cfgs[c.ci], r.dps[c.pi]
	cfg.FastForward, cfg.Profile = c.pt.ff, c.pt.profile
	if c.pt.freshDecode {
		dp = sim.Predecode(dp.Img)
	}
	m := r.shared
	if c.pt.freshMachine || m == nil {
		m = sim.NewPredecoded(cfg, dp)
	} else if err := m.Reset(cfg, dp); err != nil {
		return nil, fmt.Errorf("check: strategy: %w", err)
	}
	if !c.pt.freshMachine {
		r.shared = m
	}
	var oracle *budgetOracle
	if c.pt == lattice[0] && r.budgets[c.pi] != nil {
		oracle = &budgetOracle{budgets: r.budgets[c.pi][c.ci]}
		m.AttachExec(oracle)
	}
	name := fmt.Sprintf("%v prog %d %v", cfg.Model, c.pi, c.pt)
	res, err := m.Run()
	if err != nil {
		return nil, fmt.Errorf("check: strategy: %s: %w", name, err)
	}
	if oracle != nil && oracle.err != nil {
		return nil, fmt.Errorf("check: safety: %s: dynamic oracle: %w", name, oracle.err)
	}
	if r.perturb != nil {
		r.perturb(r.cfgs[c.ci], c.pi, c.pt, res)
	}
	if err = res.Err(); err == nil {
		err = Conservation(res)
	}
	if err == nil && c.pt != lattice[0] {
		if err = SameTiming(res, r.ref(c.ci, c.pi)); err != nil {
			name += " vs " + lattice[0].String()
		}
	}
	if err != nil {
		return nil, fmt.Errorf("check: strategy: %s: %w", name, err)
	}
	return res, nil
}

// SameTiming diffs two results field by field, excluding only the
// FastForwards/FastForwardedCycles strategy counters (which describe how the
// host got there, not where the simulated machine ended up) and the
// profile's PCCount and CallEdges (which only a profiled run records).
// Errors read "<field> <a> vs <b>".
func SameTiming(a, b *sim.Result) error {
	if err := compareRegs(a.FinalRegs, b.FinalRegs, false, "regs"); err != nil {
		return err
	}
	for _, c := range []struct {
		what string
		a, b uint64
	}{
		{"cycles", uint64(a.Cycles), uint64(b.Cycles)},
		{"main instrs", uint64(a.MainInstrs), uint64(b.MainInstrs)},
		{"spec instrs", uint64(a.SpecInstrs), uint64(b.SpecInstrs)},
		{"spawns", uint64(a.Spawns), uint64(b.Spawns)},
		{"spawns ignored", uint64(a.SpawnsIgnored), uint64(b.SpawnsIgnored)},
		{"chk taken", uint64(a.ChkTaken), uint64(b.ChkTaken)},
		{"mispredicts", uint64(a.Mispredicts), uint64(b.Mispredicts)},
		{"spec stores", uint64(a.SpecStores), uint64(b.SpecStores)},
		{"memory checksum", a.MemChecksum, b.MemChecksum},
		{"prefetches issued", a.Hier.PrefetchIssued, b.Hier.PrefetchIssued},
		{"prefetches useful", a.Hier.PrefetchUseful, b.Hier.PrefetchUseful},
		{"prefetches dropped", a.Hier.DroppedPrefetches, b.Hier.DroppedPrefetches},
	} {
		if c.a != c.b {
			return fmt.Errorf("%s %d vs %d", c.what, c.a, c.b)
		}
	}
	if a.Breakdown != b.Breakdown {
		return fmt.Errorf("breakdown %v vs %v", a.Breakdown, b.Breakdown)
	}
	if !slices.Equal(a.SpecActiveHist, b.SpecActiveHist) {
		return fmt.Errorf("utilization histogram %v vs %v", a.SpecActiveHist, b.SpecActiveHist)
	}
	if a.Hier.Totals != b.Hier.Totals {
		return fmt.Errorf("memory totals %+v vs %+v", a.Hier.Totals, b.Hier.Totals)
	}
	aLoads, bLoads := a.Hier.ByLoad(), b.Hier.ByLoad()
	if len(aLoads) != len(bLoads) {
		return fmt.Errorf("per-load stat count %d vs %d", len(aLoads), len(bLoads))
	}
	for id, as := range aLoads {
		if bs := bLoads[id]; bs == nil || *as != *bs {
			return fmt.Errorf("per-load stats for load %d %+v vs %+v", id, as, bs)
		}
	}
	return nil
}

// Seed drives every validation layer from one seed, and one lattice runner
// makes all of its engine runs. It generates a random program and runs the
// original's reference and profiled points, profiling it from the profiled
// in-order run. It adapts the original under each distinct option set of
// {ssp.DefaultOptions(), seedOptions(seed)} (ssp.Adapt certifies every
// slice itself); each adapted program passes the static speculation-safety
// layer, and the adversarial sweep when it has slices. After the lift layer,
// the runner runs every remaining cell, with the budget oracle on each
// adapted program's reference run; there the adapted programs reach what an
// original never does: budget enforcement, kill paths, round-robin replay
// under stall jumps, per-thread buffer reuse and the prefetch window.
// referenceChecks then applies the differential and metamorphic layers. The
// same seed always reproduces the same verdict.
func Seed(seed int64, cfgs []sim.Config) error {
	return runSeed(seed, cfgs, nil, nil)
}

// runSeed is Seed with test hooks: perturb as in strategyEquivalence, and
// shrink, which alters each adapted program's certified budgets.
func runSeed(seed int64, cfgs []sim.Config, perturb perturbFunc, shrink func([]map[string]int64)) error {
	p := workloads.RandomProgram(seed)
	r := newRunner(cfgs, maxInterpInstrs, perturb)
	err := r.add(p, nil)
	if err == nil {
		err = r.walk(lattice[0], profiled)
	}
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	run := r.runs[cell{profiled, 0, 0}]
	prof := profile.FromResult(p, r.dps[0].Img, cfgs[0].Mem, run)
	opts := []ssp.Options{ssp.DefaultOptions()}
	if o := seedOptions(seed); o != opts[0] {
		opts = append(opts, o)
	}
	for i, opt := range opts {
		fail := func(what string, err error) error {
			return fmt.Errorf("seed %d: options %d: %s%w", seed, i, what, err)
		}
		adapted, rep, err := ssp.Adapt(p, prof, opt, fmt.Sprintf("seed%d", seed))
		if err == nil && rep.Safety == nil {
			err = errors.New("the report carries no safety certificate")
		}
		if err != nil {
			return fail("adapt: ", err)
		}
		b, err := SafetyEquivalence(cfgs, adapted)
		if err != nil {
			return fail("", err)
		}
		if rep.NumSlices() > 0 {
			if err := ssp.CheckUnsafe(adapted, cfgs[0].MaxSpecInstrs); err != nil {
				return fail("adversarial: ", err)
			}
		}
		if shrink != nil {
			shrink(b)
		}
		if err := r.add(adapted, b); err != nil {
			return fail("", err)
		}
	}
	err = LiftEquivalence(cfgs[0], opts, p, run, r.progs[1:]...)
	if err == nil {
		err = r.walk(lattice...)
	}
	if err == nil {
		err = r.referenceChecks()
	}
	if err != nil {
		return fmt.Errorf("seed %d: %w", seed, err)
	}
	return nil
}

// referenceChecks applies the differential and metamorphic layers to the
// runner's reference runs. On every model each program's run must end with
// its interpreter run's main-thread registers (minus the SSP scratch
// register if the program has SSP attachments) and memory checksum, and an
// SSP-free program's must retire exactly its main-thread instructions. Each
// adapted program progs[1:] must also keep the original progs[0]'s
// main-thread state with no speculative store. The original is checked
// first, so each adapted program is compared with a run already known to be
// right.
func (r *runner) referenceChecks() error {
	for pi, q := range r.progs {
		ref := r.interps[pi]
		ssped, sum := hasSSP(q), ref.Mem.Checksum()
		for ci, cfg := range r.cfgs {
			res, cell := r.ref(ci, pi), fmt.Sprintf("%v prog %d", cfg.Model, pi)
			if pi > 0 {
				if err := MetamorphicResults(r.ref(ci, 0), res); err != nil {
					return fmt.Errorf("%s: %w", cell, err)
				}
			}
			err := compareRegs(res.FinalRegs, ref.Regs, ssped, "regs vs interpreter")
			if err == nil && res.MemChecksum != sum {
				err = fmt.Errorf("memory checksum %#x, interpreter %#x", res.MemChecksum, sum)
			}
			if err == nil && !ssped && res.MainInstrs != ref.Instrs {
				err = fmt.Errorf("retired %d main instrs, interpreter %d", res.MainInstrs, ref.Instrs)
			}
			if err != nil {
				return fmt.Errorf("check: differential %s: %w", cell, err)
			}
		}
	}
	return nil
}

// LiftEquivalence is the binary-only layer. The paper builds SSP as a
// post-pass so the same tool can run "when the source code is not
// available" (§2.2). That holds exactly when lifting a linked image loses
// nothing the tool or the engines use, so two round trips must keep the
// image, compared by decode.Program.Digest (every decoded field, every
// block leader and the data image):
//   - Link(Lift(Link(q))) is q's image, for orig and every adapted program.
//     Only the adapted programs carry chk.c, spawn, stub and slice blocks.
//   - profiling and adapting Lift(Link(orig)) under opts[i] gives the image
//     that adapting orig under opts[i] gave, adapted[i]. The first trip
//     gives the lifted original orig's image and instruction IDs, so its
//     profile comes from profiled, orig's profiled run under cfg.
func LiftEquivalence(cfg sim.Config, opts []ssp.Options, orig *ir.Program, profiled *sim.Result, adapted ...*ir.Program) error {
	if len(opts) != len(adapted) {
		return fmt.Errorf("check: lift: %d option sets for %d adapted programs", len(opts), len(adapted))
	}
	var lifted *ir.Program
	for i, q := range append([]*ir.Program{orig}, adapted...) {
		back, err := relift(q)
		if err != nil {
			return err
		}
		if err := sameImage(back, q); err != nil {
			return fmt.Errorf("check: lift: prog %d round trip: %w", i, err)
		}
		if i == 0 {
			lifted = back
		}
	}
	img, err := ir.Link(lifted)
	if err != nil {
		return fmt.Errorf("check: lift: link: %w", err)
	}
	prof := profile.FromResult(lifted, img, cfg.Mem, profiled)
	for i, opt := range opts {
		la, _, err := ssp.Adapt(lifted, prof, opt, "lifted")
		if err == nil {
			err = sameImage(la, adapted[i])
		}
		if err != nil {
			return fmt.Errorf("check: lift: adapting the lifted original under options %d: %w", i, err)
		}
	}
	return nil
}

// relift returns Lift(Link(p)).
func relift(p *ir.Program) (*ir.Program, error) {
	img, err := ir.Link(p)
	if err != nil {
		return nil, fmt.Errorf("check: lift: link: %w", err)
	}
	q, err := lift.Lift(img)
	if err != nil {
		return nil, fmt.Errorf("check: lift: %w", err)
	}
	return q, nil
}

// sameImage reports whether two programs link to images with equal digests.
func sameImage(got, want *ir.Program) error {
	var d [2][sha256.Size]byte
	for i, p := range []*ir.Program{got, want} {
		img, err := ir.Link(p)
		if err != nil {
			return fmt.Errorf("link: %w", err)
		}
		d[i] = sim.Predecode(img).Digest()
	}
	if d[0] != d[1] {
		return fmt.Errorf("image digest %x, want %x", d[0][:8], d[1][:8])
	}
	return nil
}

// seedOptions is the seed-derived adaptation option mix. About one seed in
// five draws exactly the defaults, so Seed adapts it once.
func seedOptions(seed int64) ssp.Options {
	r := rand.New(rand.NewSource(seed))
	opt := ssp.DefaultOptions()
	opt.Chaining = r.Intn(4) != 0
	opt.LoopRotation = r.Intn(4) != 0
	opt.CondPrediction = r.Intn(4) != 0
	opt.SpeculativeSlicing = r.Intn(4) != 0
	if r.Intn(3) == 0 {
		opt.ChainUnroll = 2 + r.Intn(2)
	}
	return opt
}
