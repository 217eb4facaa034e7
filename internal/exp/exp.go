// Package exp regenerates every table and figure of the paper's evaluation
// (§4): Figure 2 (perfect-memory and perfect-delinquent-load speedup
// bounds), Table 2 (slice characteristics), Figure 8 (SSP speedups on the
// in-order and OOO models), Figure 9 (where delinquent loads are satisfied),
// Figure 10 (cycle breakdowns), the §4.5 automatic-vs-hand comparison, and
// the ablations of the design choices called out in DESIGN.md.
//
// A Suite is the one cache of the profile → adapt → relink → run flow
// (Figure 1): three content-keyed stages of singleflight cells — program,
// binary, run — that the figure drivers, the closed-loop tuner, and the
// serving layer all resolve through, so duplicate in-flight requests
// coalesce onto one computation instead of racing or double-simulating.
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
	"sync/atomic"
	"time"

	"ssp/internal/check"
	"ssp/internal/flight"
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

	// Workers is the concurrency the figure drivers hand to RunAll.
	// NewSuite defaults it to runtime.GOMAXPROCS(0); set it to 1 for a
	// fully serial suite.
	Workers int

	// Progress, when non-nil, is called once per newly simulated cell with
	// the cell's key, its result, and the simulation's wall time. Cached
	// hits do not fire it. It may be called from many goroutines at once.
	Progress func(key RunKey, res *sim.Result, wall time.Duration)

	// One cell map per stage, each keyed by the stage's inputs: programs by
	// benchmark name or source hash, binaries by program and treatment
	// ("base", "hand", or the canonical ssp.Options.Key() — never a summary
	// of it, so configurations differing in any knob never share a cell),
	// runs by binary, model, and memory treatment.
	mu    sync.Mutex
	progs map[string]*flight.Cell[*program]
	bins  map[binKey]*flight.Cell[*binary]
	runs  map[runKey]*runCell

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

// request is one resolved trip through the pipeline: the stage keys plus
// what computing them needs.
type request struct {
	runKey
	bench, src string       // the program: a built-in benchmark or source text
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

// program is the program stage's value: one program built (or parsed) and
// profiled at the suite's scale, shared by every treatment and model over
// it. want is the expected final-answer checksum when check is set (built-in
// benchmarks; source programs carry none).
type program struct {
	orig  *ir.Program
	want  uint64
	check bool
	prof  *profile.Profile
}

// delinquent is the program's delinquent-load set under the default tool
// options (the perfect-delinquent bound and Figure 9 use it).
func (p *program) delinquent() []int {
	return ssp.RankTargets(p.orig, p.prof, ssp.DefaultOptions())
}

// binary is the binary stage's value: one treatment of a program, linked and
// predecoded with its chains compiled, plus the tool report that produced it
// (nil for the original program and the hand adaptation).
type binary struct {
	prog *ir.Program
	rep  *ssp.Report
	dp   *decode.Program
}

// runCell is one run-stage cell. cycles is the live cycle count a served
// computation publishes (sim.ProgressHooks) for coalesced requests to watch.
type runCell struct {
	flight.Cell[run]
	cycles atomic.Int64
}

// run is the run stage's value: the result and its binary's tool report.
type run struct {
	res *sim.Result
	rep *ssp.Report
}

// NewSuite returns an empty suite at the given scale.
func NewSuite(s Scale) *Suite {
	return &Suite{
		Scale:   s,
		Workers: runtime.GOMAXPROCS(0),
		progs:   make(map[string]*flight.Cell[*program]),
		bins:    make(map[binKey]*flight.Cell[*binary]),
		runs:    make(map[runKey]*runCell),
	}
}

// PoolStats reports the suite's machine-reuse counters.
func (s *Suite) PoolStats() sim.PoolStats { return s.pool.Stats() }

// Cells reports how many run-stage cells the suite holds.
func (s *Suite) Cells() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.runs)
}

// cellOf returns m's cell for k, creating it on first use.
func cellOf[K comparable, C any](mu *sync.Mutex, m map[K]*C, k K) *C {
	mu.Lock()
	defer mu.Unlock()
	c, ok := m[k]
	if !ok {
		c = new(C)
		m[k] = c
	}
	return c
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
	// identical to per-cycle simulation (check.FastForwardEquivalence gates
	// this), and the paper-scale benchmarks spend most of their cycles
	// fully stalled, so regeneration gets several times faster for free.
	c.FastForward = true
	return c
}

// program builds or parses r's program and profiles it, once per program.
// The program is published already numbered: analyses that build CFGs over
// it (cfg.Build renumbers blocks) then only read it, so concurrent
// adaptations of one shared program never write to it.
func (s *Suite) program(ctx context.Context, r request) (*program, error) {
	return cellOf(&s.mu, s.progs, r.prog).Do(ctx, func(ctx context.Context) (*program, error) {
		p := new(program)
		if r.src == "" {
			spec, err := workloads.ByName(r.bench)
			if err != nil {
				return nil, err
			}
			scale := spec.Scale
			if s.Scale == ScaleTest {
				scale = spec.TestScale
			}
			p.orig, p.want = spec.Build(scale)
			p.check = true
		} else {
			orig, err := ir.Parse(r.src)
			if err != nil {
				return nil, err
			}
			p.orig = orig
		}
		for _, f := range p.orig.Funcs {
			f.Renumber()
		}
		// One profiling run on the in-order model feeds every treatment.
		prof, err := profile.CollectContext(ctx, p.orig, s.MachineConfig(sim.InOrder))
		if err != nil {
			return nil, fmt.Errorf("%s: profile: %w", r.label().Bench, err)
		}
		p.prof = prof
		return p, nil
	})
}

// binary adapts (for the hand and tool treatments), links, and predecodes
// r's binary once per (program, treatment).
func (s *Suite) binary(ctx context.Context, r request) (*binary, error) {
	return cellOf(&s.mu, s.bins, r.binKey).Do(ctx, func(ctx context.Context) (*binary, error) {
		p, err := s.program(ctx, r)
		if err != nil {
			return nil, err
		}
		b := &binary{prog: p.orig}
		switch {
		case r.treat == treatHand:
			b.prog, err = handtuned.Adapt(r.bench, p.orig)
		case r.opt != nil:
			l := r.label()
			if b.prog, b.rep, err = ssp.Adapt(p.orig, p.prof, *r.opt, l.Bench); err != nil {
				err = fmt.Errorf("%s/%s: adapt: %w", l.Bench, l.Variant, err)
			}
		}
		if err != nil {
			return nil, err
		}
		img, err := ir.Link(b.prog)
		if err != nil {
			return nil, err
		}
		b.dp = sim.Predecode(img)
		// Warm the closure-threaded chain compile inside the coalesced
		// cell: every machine over this image shares the sidecar, so no
		// run pays the compile inside a timed simulation.
		sim.ThreadedProgram(b.dp)
		return b, nil
	})
}

// do resolves the run cell c of request r, computing it on first use and
// reporting whether this caller computed it. Every cached result passed the
// conservation layer and was narrated to Progress once. admit, when non-nil,
// marks a served run: only the caller that computes the cell calls it (the
// serving layer's worker slot; hits and coalesced waiters never do), and the
// run publishes the cell's live cycle count through sim.ProgressHooks, which
// keeps the default accounting bit-for-bit.
func (c *runCell) do(ctx context.Context, s *Suite, r request, admit func(context.Context) (func(), error)) (run, bool, error) {
	ran := false
	v, err := c.Do(ctx, func(ctx context.Context) (run, error) {
		ran = true
		var setup func(*sim.Machine)
		if admit != nil {
			release, err := admit(ctx)
			if err != nil {
				return run{}, err
			}
			defer release()
			setup = func(m *sim.Machine) { m.SetCycleHooks(sim.ProgressHooks{C: &c.cycles}) }
		}
		v, wall, err := s.compute(ctx, r, setup)
		if err != nil {
			return run{}, err
		}
		// Every cached result must be internally consistent; a violation
		// here means a simulator accounting bug, not a bad treatment.
		if err := check.Conservation(v.res); err != nil {
			return run{}, fmt.Errorf("%s: %w", r.label(), err)
		}
		if s.Progress != nil {
			s.Progress(r.label(), v.res, wall)
		}
		return v, nil
	})
	return v, ran, err
}

// resolve returns r's run-stage value through its cell.
func (s *Suite) resolve(ctx context.Context, r request) (run, error) {
	v, _, err := cellOf(&s.mu, s.runs, r.runKey).do(ctx, s, r, nil)
	return v, err
}

// compute runs r through the program and binary stages and simulates the
// binary (no caching; the run stage wraps it, and RunInstrumented calls it
// directly). setup, when non-nil, instruments the machine first.
func (s *Suite) compute(ctx context.Context, r request, setup func(*sim.Machine)) (run, time.Duration, error) {
	p, err := s.program(ctx, r)
	if err != nil {
		return run{}, 0, err
	}
	b, err := s.binary(ctx, r)
	if err != nil {
		return run{}, 0, err
	}
	cfg := s.MachineConfig(r.model)
	switch r.mem {
	case VarPerfMem:
		cfg.Mem.PerfectMemory = true
	case VarPerfDel:
		cfg.Mem.PerfectDelinquent = true
		cfg.Mem.DelinquentIDs = mem.NewIDSet(p.delinquent()...)
	}
	res, wall, err := s.execute(ctx, r.label(), cfg, b.dp, p, setup)
	return run{res, b.rep}, wall, err
}

// execute runs one simulation under the suite's machine-lifecycle discipline
// and returns its result and wall time.
//
// The machine goes back to the pool only after a clean completion — Run
// returned, the watchdog did not fire, and the answer checksum matched (when
// the program has one). Every other exit (simulation error, cancellation,
// watchdog, checksum mismatch, or a panic out of an instrumentation hook)
// discards it, so a poisoned machine can never resurface under a later run.
// A panic is recovered and reported as the run's error rather than unwinding
// into a worker pool: one bad hook or one simulator bug fails its own cell
// (and, in the serving layer, its own request) instead of the whole process.
func (s *Suite) execute(ctx context.Context, label RunKey, cfg sim.Config, dp *decode.Program, p *program, setup func(*sim.Machine)) (res *sim.Result, wall time.Duration, err error) {
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
	if res.TimedOut {
		return nil, 0, fmt.Errorf("%s: watchdog expired after %d cycles", label, res.Cycles)
	}
	if got := m.Mem.Load(workloads.ResultAddr); p.check && got != p.want {
		return nil, 0, fmt.Errorf("%s: checksum %d, want %d", label, got, p.want)
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

// RunContext is Run under a context: a cancelled simulation stops within one
// cycle-loop iteration and returns ctx.Err(). Cancellation does not poison
// the cell — the outcome is not cached (flight.Cell resets on context
// errors), coalesced waiters with live contexts retry, and a later call with
// a fresh context recomputes the cell. The abandoned machine is discarded
// rather than pooled.
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

// RunInstrumented simulates a benchmark variant on a fresh machine with the
// given instrumentation installed (tracers, external profilers, per-cycle
// observers — anything that calls AttachExec or SetCycleHooks). The result is
// computed outside the memoization layer and never enters it: an instrumented
// rerun of a cached cell must not poison the cache (a hook can legitimately
// change what the Result carries — DisableStats empties the breakdown — and a
// per-cycle hook without bulk-skip support turns the fast-forward core off,
// changing the strategy counters), and conversely a cached hit must not
// silently skip the caller's hooks. Progress does not fire and the
// conservation layer is not applied, since instrumentation may detach the
// stats recorder that upholds it.
func (s *Suite) RunInstrumented(bench string, model sim.Model, v Variant, instrument func(*sim.Machine)) (*sim.Result, error) {
	if instrument == nil {
		return nil, fmt.Errorf("exp: RunInstrumented without an instrument function (use Run)")
	}
	r, err := variantRequest(bench, model, v)
	if err != nil {
		return nil, err
	}
	out, _, err := s.compute(context.Background(), r, instrument)
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
	b, err := s.binary(context.Background(), r)
	if err != nil {
		return nil, err
	}
	if b.rep == nil {
		return nil, fmt.Errorf("exp: %s/%s has no tool report (only the ssp-adapted variants produce one)", bench, v)
	}
	return b.rep, nil
}

// ProgramOptions returns the binary and tool report of a benchmark adapted
// with an arbitrary option set: the binary stage's cell, shared with
// RunOptions and with any preset variant of equal options.
func (s *Suite) ProgramOptions(ctx context.Context, bench string, opt ssp.Options) (*ir.Program, *ssp.Report, error) {
	b, err := s.binary(ctx, newRequest(bench, "", sim.InOrder, &opt))
	if err != nil {
		return nil, nil, err
	}
	return b.prog, b.rep, nil
}

// Workload exposes a benchmark's built program, its expected final-answer
// checksum, and the offline profile (building and profiling on first use).
// The returned structures are shared with the suite's caches — callers must
// treat them as read-only. The closed-loop tuner re-adapts from these.
func (s *Suite) Workload(ctx context.Context, bench string) (*ir.Program, uint64, *profile.Profile, error) {
	p, err := s.program(ctx, newRequest(bench, "", sim.InOrder, nil))
	if err != nil {
		return nil, 0, nil, err
	}
	return p.orig, p.want, p.prof, nil
}

// Served is a served job's handle on its run-stage cell (see Suite.Served).
type Served struct {
	s *Suite
	r request
	c *runCell
}

// Served returns the run-stage cell of one served job: a built-in benchmark
// (bench) or a program in the ir syntax (src), run on model as-is (opt nil)
// or adapted with opt. It is the cell Run, RunOptions, and the tuner resolve
// for the same program, treatment, and model, so served jobs and experiment
// cells answer from one cache.
func (s *Suite) Served(bench, src string, model sim.Model, opt *ssp.Options) Served {
	r := newRequest(bench, src, model, opt)
	return Served{s, r, cellOf(&s.mu, s.runs, r.runKey)}
}

// Cycles is the live cycle count of the cell's served computation; requests
// coalesced onto it all watch the one simulation actually running. It stays
// 0 while a matrix or tuner run, which keeps the default stats hook,
// computes the cell.
func (h Served) Cycles() int64 { return h.c.cycles.Load() }

// Do resolves the served cell and reports whether this request computed it.
// Only the computing request calls admit, before any work, and releases what
// it acquired when done. The report is the binary's tool report (nil for an
// unadapted run).
func (h Served) Do(ctx context.Context, admit func(context.Context) (release func(), err error)) (*sim.Result, *ssp.Report, bool, error) {
	v, ran, err := h.c.do(ctx, h.s, h.r, admit)
	return v.res, v.rep, ran, err
}

// Simulate runs an arbitrary program under the suite's machine-lifecycle and
// validation discipline (pooled machine, watchdog, answer checksum against
// want, conservation) without entering any cache: the program is the
// caller's own, so the suite has no key for it. Progress does not fire. The
// closed-loop tuner runs its re-adapted round images through here.
func (s *Suite) Simulate(ctx context.Context, label string, model sim.Model, p *ir.Program, want uint64) (*sim.Result, error) {
	img, err := ir.Link(p)
	if err != nil {
		return nil, fmt.Errorf("%s: link: %w", label, err)
	}
	rk := RunKey{label, model, "external"}
	res, _, err := s.execute(ctx, rk, s.MachineConfig(model), sim.Predecode(img), &program{want: want, check: true}, nil)
	if err != nil {
		return nil, err
	}
	if err := check.Conservation(res); err != nil {
		return nil, fmt.Errorf("%s: %w", rk, err)
	}
	return res, nil
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
