package sim

import (
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
	"ssp/internal/workloads"
)

// benchNamed links and predecodes one named benchmark workload at the given
// scale. The decode (and the memoized threaded compile) happens once, outside
// the timed loop — the pattern every real consumer (exp.Suite, check)
// follows. BENCH_sim.json tracks the benchmarks across refactors of the
// execution core.
func benchNamed(b testing.TB, name string, scale int) *decode.Program {
	b.Helper()
	spec, err := workloads.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	p, _ := spec.Build(scale)
	img, err := ir.Link(p)
	if err != nil {
		b.Fatal(err)
	}
	return Predecode(img)
}

// benchProgram is the fixed primary microbenchmark workload: the mcf kernel
// at a scale that runs long enough to amortize setup but finishes in well
// under a second per iteration on the tiny memory system. All engine
// microbenchmarks share it so their numbers are comparable.
func benchProgram(b testing.TB) *decode.Program {
	return benchNamed(b, "mcf", 3000)
}

// aluProgram builds the non-memory-bound microbenchmark: a tight loop of
// integer ALU work (an add/xor/shift body and a cmp, which the threaded
// compiler fuses into one run, then the br) with four independent
// dependency chains, so the in-order
// model sustains its full four-integer-unit issue rate and no loads ever
// stall it. It is the workload where execution dispatch — not the memory
// hierarchy — dominates, so it isolates the cycle engines' per-instruction
// issue cost and the interpreter's dispatch cost; TestThreadedSpeedupGate
// measures its ratios here.
func aluProgram(b testing.TB) *decode.Program {
	b.Helper()
	p := ir.NewProgram("main")
	f := ir.NewFunc(p, "main")
	e := f.Block("entry")
	e.MovI(14, 0) // i
	chains := []ir.Reg{15, 20, 25, 30}
	for j, r := range chains {
		e.MovI(r, int64(j+1))
	}
	e.MovI(16, 0x9e37) // mix constant
	loop := f.Block("loop")
	// Three rounds over the four chains, round-robin, so consecutive
	// instructions are independent and a round issues in one cycle.
	for _, r := range chains {
		loop.Add(r, r, 16)
	}
	for _, r := range chains {
		loop.XorI(r, r, 0x5bd1)
	}
	for _, r := range chains {
		loop.ShlI(r, r, 3)
	}
	loop.AddI(14, 14, 1)
	loop.CmpI(ir.CondLT, 6, 7, 14, 300_000)
	loop.On(6).Br("loop")
	x := f.Block("exit")
	x.Halt()
	img, err := ir.Link(p)
	if err != nil {
		b.Fatal(err)
	}
	return Predecode(img)
}

// randomProgram predecodes the fixed seeded random pointer-chasing workload,
// wiring the check/fuzz program family into the benchmark surface.
func randomProgram(b testing.TB) *decode.Program {
	b.Helper()
	img, err := ir.Link(workloads.RandomProgram(42))
	if err != nil {
		b.Fatal(err)
	}
	return Predecode(img)
}

func withFF(cfg Config) Config {
	cfg.FastForward = true
	return cfg
}

// interpretFn is one of the interpreter's two execution strategies:
// InterpretPredecoded (with fused runs) or InterpretStepwise (the per-PC
// loop).
type interpretFn func(Config, *decode.Program, int64) (*InterpResult, error)

// benchInterp measures the functional interpreter on one workload: pure
// architectural execution, no timing model.
func benchInterp(b *testing.B, interp interpretFn, dp *decode.Program) {
	cfg := DefaultInOrder()
	cfg.UseTinyMem()
	b.ResetTimer()
	var instrs int64
	for i := 0; i < b.N; i++ {
		r, err := interp(cfg, dp, 1<<40)
		if err != nil {
			b.Fatal(err)
		}
		instrs += r.Instrs
	}
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkInterpret measures the functional interpreter with its fused runs
// on the primary workload.
func BenchmarkInterpret(b *testing.B) { benchInterp(b, InterpretPredecoded, benchProgram(b)) }

// BenchmarkInterpretStepwise is the same interpretation through the per-PC
// loop.
func BenchmarkInterpretStepwise(b *testing.B) {
	benchInterp(b, InterpretStepwise, benchProgram(b))
}

// BenchmarkInterpretMulti measures the interpreter on the multi-phase mcf
// variant: several hot regions.
func BenchmarkInterpretMulti(b *testing.B) {
	benchInterp(b, InterpretPredecoded, benchNamed(b, "mcf.multi", 2000))
}

// BenchmarkInterpretRandom measures the interpreter on the seeded random
// program family the check and fuzz layers sweep.
func BenchmarkInterpretRandom(b *testing.B) {
	benchInterp(b, InterpretPredecoded, randomProgram(b))
}

// BenchmarkInterpretALU measures the interpreter on the non-memory-bound ALU
// loop, where fused runs pay off most.
func BenchmarkInterpretALU(b *testing.B) { benchInterp(b, InterpretPredecoded, aluProgram(b)) }

// BenchmarkInterpretALUStepwise is the ALU loop through the per-PC loop —
// the pair behind TestThreadedSpeedupGate's interpreter ratio, and the
// yardstick of TestEngineCostGate.
func BenchmarkInterpretALUStepwise(b *testing.B) {
	benchInterp(b, InterpretStepwise, aluProgram(b))
}

// benchEngine measures one cycle-level engine on a workload, reporting
// simulated cycles and retired instructions per host second. One machine is
// built outside the loop and Reset per iteration — the steady state every
// real consumer reaches through exp.Suite's machine pool, and the regime the
// allocs/op column tracks (alloc_test.go pins the ceilings).
func benchEngine(b *testing.B, cfg Config, dp *decode.Program) {
	cfg.UseTinyMem()
	m := NewPredecoded(cfg, dp)
	b.ResetTimer()
	var cycles, instrs int64
	for i := 0; i < b.N; i++ {
		m.Reset(cfg, dp)
		res, err := m.Run()
		if err != nil {
			b.Fatal(err)
		}
		if res.TimedOut {
			b.Fatal("watchdog expired")
		}
		cycles += res.Cycles
		instrs += res.MainInstrs + res.SpecInstrs
	}
	b.ReportMetric(float64(cycles)/b.Elapsed().Seconds(), "cycles/s")
	b.ReportMetric(float64(instrs)/b.Elapsed().Seconds(), "instrs/s")
}

// BenchmarkInOrder measures the 12-stage in-order pipeline model.
func BenchmarkInOrder(b *testing.B) { benchEngine(b, DefaultInOrder(), benchProgram(b)) }

// BenchmarkOOO measures the 16-stage out-of-order pipeline model.
func BenchmarkOOO(b *testing.B) { benchEngine(b, DefaultOOO(), benchProgram(b)) }

// BenchmarkInOrderALU / BenchmarkOOOALU measure the cycle engines on the
// non-memory-bound ALU loop, where nearly every instruction is a pure step:
// the engines' per-instruction issue cost, with in-order batch issue at work
// (see TestThreadedSpeedupGate and TestEngineCostGate).
func BenchmarkInOrderALU(b *testing.B) { benchEngine(b, DefaultInOrder(), aluProgram(b)) }

// BenchmarkOOOALU is the ALU loop on the OOO model.
func BenchmarkOOOALU(b *testing.B) { benchEngine(b, DefaultOOO(), aluProgram(b)) }

// BenchmarkInOrderMulti measures the in-order model on the multi-phase mcf
// variant, covering multi-region adapted-style control flow.
func BenchmarkInOrderMulti(b *testing.B) {
	benchEngine(b, DefaultInOrder(), benchNamed(b, "mcf.multi", 2000))
}

// BenchmarkInOrderRandom measures the in-order model on the seeded random
// program family.
func BenchmarkInOrderRandom(b *testing.B) { benchEngine(b, DefaultInOrder(), randomProgram(b)) }

// BenchmarkInOrderFF measures the in-order model with the stall-aware
// fast-forward timing core on: bit-identical results (the
// check.StrategyEquivalence gate), far fewer simulated-one-at-a-time
// cycles on this memory-bound workload.
func BenchmarkInOrderFF(b *testing.B) { benchEngine(b, withFF(DefaultInOrder()), benchProgram(b)) }

// BenchmarkOOOFF measures the out-of-order model with fast-forward on.
func BenchmarkOOOFF(b *testing.B) { benchEngine(b, withFF(DefaultOOO()), benchProgram(b)) }
