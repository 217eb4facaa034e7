// Package exp regenerates every table and figure of the paper's evaluation
// (§4): Figure 2 (perfect-memory and perfect-delinquent-load speedup
// bounds), Table 2 (slice characteristics), Figure 8 (SSP speedups on the
// in-order and OOO models), Figure 9 (where delinquent loads are satisfied),
// Figure 10 (cycle breakdowns), the §4.5 automatic-vs-hand comparison, and
// the ablations of the design choices called out in DESIGN.md.
//
// A Suite is the one cache of the profile → adapt → relink → run flow
// (Figure 1): stages of singleflight cells — program, binary, run, and
// under the run stage the simulation itself, keyed by the content of the
// image it executes — that the figure drivers, the closed-loop tuner, and
// the serving layer all resolve through, so duplicate in-flight requests
// coalesce onto one computation and identical images, however they were
// produced, are simulated once. The suite's Workers slots bound the machines
// it runs at once, whoever asked for them.
// RunAll fans the experiment matrix out over a worker pool; the figure
// drivers use it to presimulate their cells in parallel before the (cheap,
// cache-hitting) serial table-assembly loops.
package exp

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"sync"
	"time"

	"ssp/internal/check"
	"ssp/internal/handtuned"
	"ssp/internal/ir"
	"ssp/internal/profile"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/ssp"
	"ssp/internal/workloads"
)

// Scale selects experiment sizing.
type Scale int

const (
	// ScaleTest shrinks caches and working sets so the whole suite runs
	// in seconds (unit tests, quick looks).
	ScaleTest Scale = iota
	// ScalePaper uses the Table 1 machine and working sets larger than
	// the 3MB L3, like the paper's runs.
	ScalePaper
)

func (s Scale) String() string {
	if s == ScaleTest {
		return "test"
	}
	return "paper"
}

// ParseScale maps a scale name, "paper" or "test", to its Scale.
func ParseScale(name string) (Scale, error) {
	switch name {
	case "paper":
		return ScalePaper, nil
	case "test":
		return ScaleTest, nil
	}
	return 0, fmt.Errorf("unknown scale %q (want paper or test)", name)
}

// Build builds a built-in benchmark at s: at its experiment size at paper
// scale, at its test size at test scale. The second result is the checksum
// the program leaves at workloads.ResultAddr. Every program the suite and the
// tools build is sized here.
func Build(bench string, s Scale) (*ir.Program, uint64, error) {
	spec, err := workloads.ByName(bench)
	if err != nil {
		return nil, 0, err
	}
	n := spec.Scale
	if s == ScaleTest {
		n = spec.TestScale
	}
	p, want := spec.Build(n)
	return p, want, nil
}

// Variant names a binary/machine treatment of a benchmark. Each is a preset
// onto the pipeline's keys: a binary treatment (the original program, the
// hand adaptation, or the tool with preset options) plus a memory treatment.
type Variant string

const (
	VarBase     Variant = "base"
	VarSSP      Variant = "ssp"
	VarHand     Variant = "hand"
	VarPerfMem  Variant = "perfmem"
	VarPerfDel  Variant = "perfdel"
	VarNoChain  Variant = "ssp-nochain"
	VarNoRotate Variant = "ssp-norotate"
	VarNoPred   Variant = "ssp-nopred"
	VarNoSpec   Variant = "ssp-nospec"
	// VarUnroll is the chain-unrolling extension (Options.ChainUnroll=2):
	// the automated version of what the paper's hand adaptation did.
	VarUnroll Variant = "ssp-unroll2"
)

// RunKey identifies one cell of the experiment matrix: a benchmark run as a
// particular variant on a particular machine model.
type RunKey struct {
	Bench   string
	Model   sim.Model
	Variant Variant
}

func (k RunKey) String() string {
	return fmt.Sprintf("%s/%s/%s", k.Bench, k.Model, k.Variant)
}

// Suite caches built programs, profiles, adaptations, and simulation results
// so the experiment drivers, the tuner, and the serving layer share work.
// The zero Suite is not usable; construct one with NewSuite. All methods are
// safe for concurrent use, and results are deterministic: a run maps to the
// same *sim.Result no matter how many goroutines race to compute it.
type Suite struct {
	Scale Scale

	// Workers bounds how many machines the suite runs at once, for every
	// caller alike (RunAll, the tuner, served jobs, Simulate): a simulation
	// holds one of Workers slots only while its machine runs (execute). It
	// is also the pool size the figure drivers hand to RunAll. NewSuite
	// defaults it to runtime.GOMAXPROCS(0); below 1 acts as 1. It is read
	// at the first simulation, so set it before first use.
	Workers int

	// Progress, when non-nil, is called once per simulation the suite
	// performs, with the key of the request that performed it, the result,
	// and the simulation's wall time, which excludes the wait for a slot.
	// Cached hits, and requests whose image was already simulated, do not
	// fire it; a simulation the budget evicted fires it again when
	// recomputed. It may be called from many goroutines at once.
	Progress func(key RunKey, res *sim.Result, wall time.Duration)

	// Budget, when positive, bounds the approximate bytes the completed
	// cells of every stage (and of every Memo over the suite) keep
	// resident: past it, cells are evicted by recency (cache.go). Zero,
	// NewSuite's default, keeps every cell for the suite's life. Set it
	// before the suite's first use.
	Budget int64

	// One cell stage per pipeline step, each keyed by the step's inputs:
	// programs by benchmark name or source hash, binaries by program and
	// treatment ("base", "hand", or the canonical ssp.Options.Key() — never
	// a summary of it, so configurations differing in any knob never share
	// a cell), runs by binary, model, and memory treatment, and simulations
	// by the content of what they execute (simKey). mu guards every stage
	// and the CLOCK queue (clock from index hand on) of the cells charged
	// against Budget, which hold used bytes.
	mu     sync.Mutex
	progs  *stage[string, *program]
	bins   *stage[binKey, *binary]
	runs   *stage[runKey, run]
	sims   *stage[simKey, *sim.Result]
	stages []interface{ stats() (string, StageStats) }
	clock  []resident
	hand   int
	used   int64

	// slots holds one token per running machine, Workers of them; slotsOnce
	// makes it at the first simulation.
	slotsOnce sync.Once
	slots     chan struct{}

	// pool recycles machines across runs: Machine.Reset rebinds a machine
	// to a new (config, program) while reusing its memory pages, hierarchy,
	// predictor tables, and per-thread buffers. Safe because Run detaches
	// each Result's statistics from the machine. Only machines from clean
	// completions go back (sim.Pool's discipline); a cancelled, failed, or
	// panicked run's machine is dropped instead.
	pool sim.Pool
}

// Binary treatments no tool options describe.
const (
	treatBase = "base"
	treatHand = "hand"
)

// binKey identifies one binary: a program and its treatment. Machine models
// are deliberately absent — the predecoded image is config-independent, so
// the in-order and OOO runs (and the perfect-memory treatments, which only
// alter the hierarchy) all share one adaptation and one decode.
type binKey struct{ prog, treat string }

// runKey identifies one simulation: a binary on a model under a memory
// treatment ("", VarPerfMem, or VarPerfDel).
type runKey struct {
	binKey
	model sim.Model
	mem   Variant
}

// simKey identifies one simulation by what it executes: the predecoded
// image's digest (decode.Program.Digest), the model, the memory treatment
// ("", "perfmem", or "perfdel" with its delinquent load IDs), and the answer
// checksum the run must leave when check is set. How the image was produced
// — benchmark, variant, options, tuner round — is not part of it, so
// identical images share one simulation.
type simKey struct {
	image [sha256.Size]byte
	model sim.Model
	mem   string
	want  uint64
	check bool
}

// request is one resolved trip through the pipeline: the stage keys plus
// what computing them needs.
type request struct {
	runKey
	bench, src string       // the program: a built-in benchmark or source text
	parsed     *ir.Program  // src already parsed, when the caller has it
	opt        *ssp.Options // the tool's options when treat is their key
	variant    Variant      // the named variant requested, if any
}

// newRequest resolves a run of a built-in benchmark (bench) or a program in
// the ir syntax (src) on model, as-is (opt nil) or adapted with opt.
func newRequest(bench, src string, model sim.Model, opt *ssp.Options) request {
	r := request{runKey: runKey{binKey{bench, treatBase}, model, ""}, bench: bench, src: src, opt: opt}
	if src != "" {
		sum := sha256.Sum256([]byte(src))
		r.prog = "sha256:" + hex.EncodeToString(sum[:])
	}
	if opt != nil {
		r.treat = opt.Key()
	}
	return r
}

// label names the run in progress lines and errors. An options treatment
// requested by options reads "ssp@" plus the first 8 hex digits of the
// option key's SHA-256; cache maps always use the full key.
func (r request) label() RunKey {
	k := RunKey{r.bench, r.model, r.variant}
	if r.src != "" {
		k.Bench = "source"
	}
	switch {
	case k.Variant != "":
	case r.opt != nil:
		sum := sha256.Sum256([]byte(r.treat))
		k.Variant = Variant("ssp@" + hex.EncodeToString(sum[:4]))
	default:
		k.Variant = VarBase
	}
	return k
}

// variantRequest resolves a named variant onto its preset treatments.
func variantRequest(bench string, model sim.Model, v Variant) (request, error) {
	r := newRequest(bench, "", model, nil)
	r.variant = v
	switch v {
	case VarBase:
	case VarPerfMem, VarPerfDel:
		r.mem = v
	case VarHand:
		r.treat = treatHand
	default:
		opt, ok := variantOptions(v)
		if !ok {
			return r, fmt.Errorf("exp: unknown variant %q", v)
		}
		r.opt, r.treat = &opt, opt.Key()
	}
	return r, nil
}

// variantOptions maps an adaptation variant to tool options.
func variantOptions(v Variant) (ssp.Options, bool) {
	opt := ssp.DefaultOptions()
	switch v {
	case VarSSP:
	case VarNoChain:
		opt.Chaining = false
	case VarNoRotate:
		opt.LoopRotation = false
	case VarNoPred:
		opt.CondPrediction = false
	case VarNoSpec:
		opt.SpeculativeSlicing = false
	case VarUnroll:
		opt.ChainUnroll = 2
	default:
		return opt, false
	}
	return opt, true
}

// program is the program stage's value: one program built (or parsed),
// predecoded, and profiled at the suite's scale, shared by every treatment
// and model over it. want is the expected final-answer checksum when check
// is set (built-in benchmarks; source programs carry none). dp and image are
// the original's predecoded image and digest, which the base treatment's
// binary reuses.
type program struct {
	orig  *ir.Program
	want  uint64
	check bool
	prof  *profile.Profile
	dp    *decode.Program
	image [sha256.Size]byte
}

// delinquent is the program's delinquent-load set under the default tool
// options (the perfect-delinquent bound and Figure 9 use it).
func (p *program) delinquent() []int {
	return ssp.RankTargets(p.orig, p.prof, ssp.DefaultOptions())
}

// binary is the binary stage's value: one treatment of a program, linked and
// predecoded, with the image's digest and the tool report that produced it
// (nil for the original program and the hand adaptation).
type binary struct {
	prog  *ir.Program
	rep   *ssp.Report
	dp    *decode.Program
	image [sha256.Size]byte
}

// run is the run stage's value: the result and its binary's tool report.
type run struct {
	res *sim.Result
	rep *ssp.Report
}

// NewSuite returns an empty suite at the given scale.
func NewSuite(s Scale) *Suite {
	suite := &Suite{Scale: s, Workers: runtime.GOMAXPROCS(0)}
	suite.progs = newStage[string, *program](suite, "program")
	suite.bins = newStage[binKey, *binary](suite, "binary")
	suite.runs = newStage[runKey, run](suite, "run")
	suite.sims = newStage[simKey, *sim.Result](suite, "sim")
	suite.sims.chances = simChances
	return suite
}

// PoolStats reports the suite's machine-reuse counters.
func (s *Suite) PoolStats() sim.PoolStats { return s.pool.Stats() }

// Cells reports how many run-stage cells the suite holds.
func (s *Suite) Cells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs.cells)
}

// MachineConfig returns the simulator configuration every run of the suite
// uses at its scale — profiling, cached cells, served jobs, and the tuner's
// re-profiling rounds alike — so all of them are comparable.
func (s *Suite) MachineConfig(model sim.Model) sim.Config {
	var c sim.Config
	if model == sim.InOrder {
		c = sim.DefaultInOrder()
	} else {
		c = sim.DefaultOOO()
	}
	if s.Scale == ScaleTest {
		c.UseTinyMem()
	}
	c.MaxCycles = 4_000_000_000
	// Runs use the stall-jump timing core: results are bit-for-bit
	// identical to per-cycle simulation (check.StrategyEquivalence gates
	// this), and the paper-scale benchmarks spend most of their cycles
	// fully stalled, so regeneration gets several times faster for free.
	c.FastForward = true
	return c
}

// program builds or parses r's program, predecodes it, and profiles it, once
// per program. The program is published already numbered: analyses that
// build CFGs over it (cfg.Build renumbers blocks) then only read it, so
// concurrent adaptations of one shared program never write to it. The
// program cell, and the profiling run's sim cell when this call computes
// it, stay pinned on l.
func (s *Suite) program(ctx context.Context, r request, l *lease) (*program, error) {
	p, _, err := do(ctx, s, lookup(s, s.progs, r.prog, l), programBytes, func(ctx context.Context) (*program, error) {
		p := new(program)
		var err error
		switch {
		case r.parsed != nil:
			p.orig = r.parsed
		case r.src == "":
			p.orig, p.want, err = Build(r.bench, s.Scale)
			p.check = true
		default:
			p.orig, err = ir.Parse(r.src)
		}
		if err != nil {
			return nil, err
		}
		for _, f := range p.orig.Funcs {
			f.Renumber()
		}
		if err := s.profile(ctx, r.label().Bench, p, s.MachineConfig(sim.InOrder), l); err != nil {
			return nil, err
		}
		return p, nil
	})
	return p, err
}

// profile predecodes p's original and derives its profile from one
// profiling run on cfg, the in-order model: Figure 1's profiling pass,
// which feeds every treatment. That run is the in-order baseline cell
// itself. It goes through the simulation stage under the base cell's key
// and label, so it gets the machine lifecycle, the answer check and the
// conservation layer of any cell, and every later request for the baseline
// — matrix, served job, or tuner — hits it instead of simulating the
// original again. Errors read "<bench>: profile: ...".
func (s *Suite) profile(ctx context.Context, bench string, p *program, cfg sim.Config, l *lease) error {
	var err error
	if p.dp, p.image, err = predecode(p.orig); err != nil {
		return fmt.Errorf("%s: profile: %w", bench, err)
	}
	label := RunKey{bench, sim.InOrder, VarBase}
	k := simKey{image: p.image, model: sim.InOrder, want: p.want, check: p.check}
	cfg.Profile = true
	_, res, err := s.simulate(ctx, k, label, cfg, p.dp, nil, l)
	if err == nil && res == nil {
		// The cell already held an unprofiled run of this image (another
		// program with the same image got there first): profile outside
		// the cache.
		if res, _, err = s.execute(ctx, label, k, cfg, p.dp, nil); err == nil {
			err = check.Conservation(res)
		}
	}
	if err != nil {
		return fmt.Errorf("%s: profile: %w", bench, err)
	}
	p.prof = profile.FromResult(p.orig, p.dp.Img, cfg.Mem, res)
	return nil
}

// binary adapts (for the hand and tool treatments, both certified
// speculation-safe), links, and predecodes r's binary once per (program,
// treatment). The binary cell and the program cell it reads stay pinned on
// l.
func (s *Suite) binary(ctx context.Context, r request, l *lease) (*binary, error) {
	size := binaryBytes
	if r.treat == treatBase {
		size = func(*binary) int64 { return cellBytes } // the program's own image
	}
	b, _, err := do(ctx, s, lookup(s, s.bins, r.binKey, l), size, func(ctx context.Context) (*binary, error) {
		p, err := s.program(ctx, r, l)
		if err != nil {
			return nil, err
		}
		b := &binary{prog: p.orig}
		switch {
		case r.treat == treatBase:
			b.dp, b.image = p.dp, p.image
			return b, nil
		case r.treat == treatHand:
			// Certified like the tool's output (ssp.Adapt).
			if b.prog, err = handtuned.Adapt(r.bench, p.orig); err == nil {
				err = ssp.AnalyzeSafety(b.prog, ssp.DefaultSafetyCeiling).Err()
			}
		case r.opt != nil:
			l := r.label()
			if b.prog, b.rep, err = ssp.Adapt(p.orig, p.prof, *r.opt, l.Bench); err != nil {
				err = fmt.Errorf("%s/%s: adapt: %w", l.Bench, l.Variant, err)
			}
		}
		if err != nil {
			return nil, err
		}
		b.dp, b.image, err = predecode(b.prog)
		return b, err
	})
	return b, err
}

// predecode links, predecodes, and digests p: the one path from a program to
// what the simulation stage executes and keys on. The data image's hash is
// computed once per sealed image, so an adapted program, which shares its
// original's image, pays here only for its code.
func predecode(p *ir.Program) (*decode.Program, [sha256.Size]byte, error) {
	img, err := ir.Link(p)
	if err != nil {
		return nil, [sha256.Size]byte{}, err
	}
	dp := sim.Predecode(img)
	return dp, dp.Digest(), nil
}

// run resolves the run cell c of request r, computing it on first use and
// reporting whether this caller computed it. When served is set and the
// caller that computes the cell also performs the simulation, it publishes
// the cell's live cycle count through sim.ProgressHooks, a clock observer
// that cannot change the Result. The computation pins every cell it
// resolves until it ends.
func (s *Suite) run(ctx context.Context, c *cell[runKey, run], r request, served bool) (run, bool, error) {
	return do(ctx, s, c, runBytes, func(ctx context.Context) (run, error) {
		var setup func(*sim.Machine)
		if served {
			setup = func(m *sim.Machine) { m.SetCycleHooks(sim.ProgressHooks{C: &c.cycles}) }
		}
		var l lease
		defer s.release(&l)
		b, k, cfg, err := s.prepare(ctx, r, &l)
		if err != nil {
			return run{}, err
		}
		res, _, err := s.simulate(ctx, k, r.label(), cfg, b.dp, setup, &l)
		if served && err == nil {
			// The observer publishes every 64th cycle; the last cycles
			// are published here.
			c.cycles.Store(res.Cycles)
		}
		return run{res, b.rep}, err
	})
}

// resolve returns r's run-stage value through its cell.
func (s *Suite) resolve(ctx context.Context, r request) (run, error) {
	v, _, err := s.run(ctx, lookup(s, s.runs, r.runKey, nil), r, false)
	return v, err
}

// prepare resolves r through the program and binary stages to the
// simulation it asks for: the binary, the simulation's key, and its machine
// configuration. Both cells stay pinned on l.
func (s *Suite) prepare(ctx context.Context, r request, l *lease) (*binary, simKey, sim.Config, error) {
	p, err := s.program(ctx, r, l)
	if err != nil {
		return nil, simKey{}, sim.Config{}, err
	}
	b, err := s.binary(ctx, r, l)
	if err != nil {
		return nil, simKey{}, sim.Config{}, err
	}
	k := simKey{image: b.image, model: r.model, mem: string(r.mem), want: p.want, check: p.check}
	cfg := s.MachineConfig(r.model)
	switch r.mem {
	case VarPerfMem:
		cfg.Mem.PerfectMemory = true
	case VarPerfDel:
		ids := p.delinquent()
		cfg.Mem.PerfectDelinquent = true
		cfg.Mem.DelinquentIDs = mem.NewIDSet(ids...)
		k.mem = fmt.Sprint(VarPerfDel, ids)
	}
	return b, k, cfg, nil
}

// simulate resolves the sim-stage cell k: its first caller runs dp on cfg
// and validates the result; concurrent and later callers with the same
// content share it. Every cached result passed the conservation layer.
// The simulation is narrated to Progress under the label of the caller that
// performed it. setup, when non-nil, instruments the machine; it must leave
// the Result bit-for-bit what an uninstrumented run produces.
//
// full is the Result of the simulation this caller performed, nil for every
// other caller. With cfg.Profile set, the cell caches and narrates a copy
// without PCCount and CallEdges: the Result an unprofiled run of the image
// gives (check.StrategyEquivalence gates this), so a profiling run can
// stand as the cell. The sim cell stays pinned on l when l is non-nil.
func (s *Suite) simulate(ctx context.Context, k simKey, label RunKey, cfg sim.Config, dp *decode.Program, setup func(*sim.Machine), l *lease) (cached, full *sim.Result, err error) {
	cached, _, err = do(ctx, s, lookup(s, s.sims, k, l), resultBytes, func(ctx context.Context) (*sim.Result, error) {
		// Warm the closure-threaded compile before the timed run: every
		// machine over this image shares the sidecar.
		sim.ThreadedProgram(dp)
		res, wall, err := s.execute(ctx, label, k, cfg, dp, setup)
		if err != nil {
			return nil, err
		}
		// Every cached result must be internally consistent; a violation
		// here means a simulator accounting bug, not a bad treatment.
		if err := check.Conservation(res); err != nil {
			return nil, fmt.Errorf("%s: %w", label, err)
		}
		full = res
		if cfg.Profile {
			base := *res
			base.PCCount, base.CallEdges = nil, nil
			res = &base
		}
		if s.Progress != nil {
			s.Progress(label, res, wall)
		}
		return res, nil
	})
	return cached, full, err
}

// execute runs one simulation of k under the suite's machine-lifecycle
// discipline and returns its result and wall time. It is the one place a
// machine runs, so it holds one of the suite's Workers slots from before it
// takes a machine until the run returns: a request waiting on a cell or an
// identical image holds none, and a slot holder waits on nothing. The wall
// time starts once the slot is taken.
//
// The machine goes back to the pool only after a clean completion — Run
// returned, the watchdog did not fire, the main thread did not kill itself,
// and the answer checksum matched (when the program has one). Every other
// exit (simulation error, cancellation, watchdog, a main-thread kill,
// checksum mismatch, or a panic out of an instrumentation hook)
// discards it, so a poisoned machine can never resurface under a later run.
// A panic is recovered and reported as the run's error rather than unwinding
// into a worker pool: one bad hook or one simulator bug fails its own cell
// (and, in the serving layer, its own request) instead of the whole process.
func (s *Suite) execute(ctx context.Context, label RunKey, k simKey, cfg sim.Config, dp *decode.Program, setup func(*sim.Machine)) (res *sim.Result, wall time.Duration, err error) {
	s.slotsOnce.Do(func() { s.slots = make(chan struct{}, max(s.Workers, 1)) })
	select {
	case s.slots <- struct{}{}:
	case <-ctx.Done():
		return nil, 0, ctx.Err()
	}
	defer func() { <-s.slots }()
	m := s.pool.Get(cfg, dp)
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, fmt.Errorf("%s: panic during simulation: %v", label, r)
		}
	}()
	if setup != nil {
		setup(m)
	}
	start := time.Now()
	res, err = m.RunContext(ctx)
	wall = time.Since(start)
	if err != nil {
		return nil, 0, err
	}
	if err := res.Err(); err != nil {
		return nil, 0, fmt.Errorf("%s: %w", label, err)
	}
	if got := m.Mem.Load(workloads.ResultAddr); k.check && got != k.want {
		return nil, 0, fmt.Errorf("%s: checksum %d, want %d", label, got, k.want)
	}
	// Clean completion: the Result is detached from the machine, so the
	// machine can go back to the pool before the result is validated or
	// cached.
	s.pool.Put(m)
	return res, wall, nil
}

// Run simulates a benchmark variant on a model, caching and checksum-
// verifying the result. Concurrent calls with the same key coalesce onto a
// single simulation and share its result.
func (s *Suite) Run(bench string, model sim.Model, v Variant) (*sim.Result, error) {
	return s.RunContext(context.Background(), bench, model, v)
}

// RunContext is Run under a context: a cancelled simulation, or one still
// waiting for a slot, stops promptly and returns ctx.Err(). Cancellation
// does not poison the cell — the outcome is not cached (flight.Cell resets
// on context errors), coalesced waiters with live contexts retry, and a
// later call with a fresh context recomputes the cell. The abandoned
// machine is discarded rather than pooled.
func (s *Suite) RunContext(ctx context.Context, bench string, model sim.Model, v Variant) (*sim.Result, error) {
	r, err := variantRequest(bench, model, v)
	if err != nil {
		return nil, err
	}
	out, err := s.resolve(ctx, r)
	return out.res, err
}

// RunOptions simulates a benchmark adapted with an arbitrary option set
// through the same run cells as RunContext: the binary is keyed on
// Options.Key(), so configurations differing in any single knob get
// distinct cells, and options equal to a preset variant's share its cell.
func (s *Suite) RunOptions(ctx context.Context, bench string, model sim.Model, opt ssp.Options) (*sim.Result, error) {
	out, err := s.resolve(ctx, newRequest(bench, "", model, &opt))
	return out.res, err
}

// Report returns the tool report for an adapted variant, adapting if needed.
// Variants with no tool run behind them (base, perfmem, perfdel, and the
// hand adaptation) have no report; asking for one is an error rather than a
// silent nil.
func (s *Suite) Report(bench string, v Variant) (*ssp.Report, error) {
	r, err := variantRequest(bench, sim.InOrder, v)
	if err != nil {
		return nil, err
	}
	var l lease
	defer s.release(&l)
	b, err := s.binary(context.Background(), r, &l)
	if err != nil {
		return nil, err
	}
	if b.rep == nil {
		return nil, fmt.Errorf("exp: %s/%s has no tool report (only the ssp-adapted variants produce one)", bench, v)
	}
	return b.rep, nil
}

// Original returns the program cell of a built-in benchmark (bench) or a
// program in the ir syntax (src), the identity a served job names: the
// original program, its expected final-answer checksum (0 for a source
// program), its in-order profile, and its predecoded image. It builds or
// parses and profiles on first use; the profiling run also fills the
// in-order baseline cell. The returned structures are shared with the
// suite's caches — callers must treat them as read-only.
func (s *Suite) Original(ctx context.Context, bench, src string) (*ir.Program, uint64, *profile.Profile, *decode.Program, error) {
	p, err := s.program(ctx, newRequest(bench, src, sim.InOrder, nil), nil)
	if err != nil {
		return nil, 0, nil, nil, err
	}
	return p.orig, p.want, p.prof, p.dp, nil
}

// Adapted returns the binary cell of a built-in benchmark (bench) or a
// program in the ir syntax (src) adapted with opt: the adapted program and
// its tool report, shared with RunOptions, served jobs and any preset
// variant of equal options.
func (s *Suite) Adapted(ctx context.Context, bench, src string, opt ssp.Options) (*ir.Program, *ssp.Report, error) {
	var l lease
	defer s.release(&l)
	b, err := s.binary(ctx, newRequest(bench, src, sim.InOrder, &opt), &l)
	if err != nil {
		return nil, nil, err
	}
	return b.prog, b.rep, nil
}

// ProgramOptions is Adapted for a built-in benchmark.
func (s *Suite) ProgramOptions(ctx context.Context, bench string, opt ssp.Options) (*ir.Program, *ssp.Report, error) {
	return s.Adapted(ctx, bench, "", opt)
}

// Served is a served job's handle on its run-stage cell (see Suite.Served).
type Served struct {
	s *Suite
	r request
	c *cell[runKey, run]
}

// Served returns the run-stage cell of one served job: a built-in benchmark
// (bench) or a program in the ir syntax (src), run on model as-is (opt nil)
// or adapted with opt. It is the cell Run, RunOptions, and the tuner resolve
// for the same program, treatment, and model, so served jobs and experiment
// cells answer from one cache. parsed, when non-nil, is src already parsed
// (the serving layer parses a source once, to vet it): the program stage
// takes it instead of parsing src again and renumbers it, so the caller
// hands it over. The program cell is keyed by src's hash either way.
func (s *Suite) Served(bench, src string, parsed *ir.Program, model sim.Model, opt *ssp.Options) Served {
	r := newRequest(bench, src, model, opt)
	r.parsed = parsed
	return Served{s, r, lookup(s, s.runs, r.runKey, nil)}
}

// Cycles is the live cycle count of the cell's served computation; requests
// coalesced onto it all watch the one simulation actually running. It stays
// 0 while a matrix or tuner run, which attaches no observer, computes the
// cell, and when the cell's image was already simulated.
func (h Served) Cycles() int64 { return h.c.cycles.Load() }

// Cached returns the served cell's outcome when the cell already holds one,
// without waiting or computing: ok is false while the cell is empty or in
// flight, and the caller goes on to Do. The report is as for Do.
func (h Served) Cached() (res *sim.Result, rep *ssp.Report, ok bool, err error) {
	v, ok, err := h.c.Peek()
	return v.res, v.rep, ok, err
}

// Do resolves the served cell and reports whether this request computed it.
// A simulation it performs publishes its live cycle count to Cycles, and
// runs in one of the suite's Workers slots like any other. The report is
// the binary's tool report (nil for an unadapted run).
func (h Served) Do(ctx context.Context) (*sim.Result, *ssp.Report, bool, error) {
	v, ran, err := h.s.run(ctx, h.c, h.r, true)
	return v.res, v.rep, ran, err
}

// Simulate runs an arbitrary program on model under the suite's
// machine-lifecycle and validation discipline (pooled machine, watchdog,
// answer checksum against want, conservation) through the simulation stage:
// the linked image's content is the key, so a program whose image the suite
// already simulated with the same answer check — an earlier call's, or any
// run cell's — returns that result without simulating again, and concurrent
// identical calls coalesce. A simulation it performs is narrated to
// Progress as label/model/external. The closed-loop tuner runs its
// re-adapted round images through here.
func (s *Suite) Simulate(ctx context.Context, label string, model sim.Model, p *ir.Program, want uint64) (*sim.Result, error) {
	dp, digest, err := predecode(p)
	if err != nil {
		return nil, fmt.Errorf("%s: link: %w", label, err)
	}
	k := simKey{image: digest, model: model, want: want, check: true}
	res, _, err := s.simulate(ctx, k, RunKey{label, model, "external"}, s.MachineConfig(model), dp, nil, nil)
	return res, err
}

// Speedup returns cycles(reference)/cycles(treatment).
func (s *Suite) Speedup(bench string, refModel sim.Model, refVar Variant, model sim.Model, v Variant) (float64, error) {
	ref, err := s.Run(bench, refModel, refVar)
	if err != nil {
		return 0, err
	}
	r, err := s.Run(bench, model, v)
	if err != nil {
		return 0, err
	}
	return float64(ref.Cycles) / float64(r.Cycles), nil
}

// Benchmarks returns every benchmark name: the paper's seven kernels first,
// then the multi-phase portfolio benchmarks. Table 2, the golden-stats
// matrix, and the serving layer cover all of them.
func Benchmarks() []string {
	var names []string
	for _, s := range workloads.All() {
		names = append(names, s.Name)
	}
	return names
}

// PaperBenchmarks returns the seven single-phase kernels matching the
// paper's Table 1 rows. The figure drivers (Figures 2 and 8-10) iterate
// these so their averages stay comparable with the paper's; the multi-phase
// benchmarks (Spec.MinSlices >= 2) exist to exercise the slice portfolio
// and are reported through Table 2 instead.
func PaperBenchmarks() []string {
	var names []string
	for _, s := range workloads.All() {
		if s.MinSlices < 2 {
			names = append(names, s.Name)
		}
	}
	return names
}
