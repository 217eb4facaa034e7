package sim

import (
	"encoding/json"
	"os"
	"testing"
	"time"

	"ssp/internal/sim/decode"
)

// TestThreadedSpeedupGate is the benchstat-style regression gate on the
// closure-threaded execution core's two fast paths, run by `make bench-gate`
// (and the CI bench-smoke job) with SSP_BENCH_GATE=1; it skips otherwise so
// ordinary `go test` runs stay free of timing-sensitive assertions.
//
// Absolute ns/op is machine-dependent, so the committed baseline in
// BENCH_sim.json ("threaded".gate) records speedup *ratios*, each measured
// in the same process, same machine, interleaved, which port across hosts:
//   - "BenchmarkInterpret", "BenchmarkInterpretALU": the interpreter's chain
//     walker (block chains, superinstruction fusion) over its per-PC loop
//     (InterpretStepwise), on mcf and on the ALU loop;
//   - "BenchmarkInOrderALU": the in-order engine at full issue width over
//     the same engine at issue width 1, on the ALU loop. At width 1 every
//     issue call issues one instruction, so batch issue has nothing to
//     amortize; at full width one call issues the loop's four integer
//     operations of a cycle as one batch of pure steps. Issuing one pure
//     step per call at full width takes the ratio from ~1.45 to ~1.12.
//
// The gate re-measures each ratio (median of interleaved trials, to shrug
// off scheduler noise) and fails if one regressed more than 10% below its
// committed value: the benchstat significance rule, applied to the numbers
// the fast paths exist to move.
func TestThreadedSpeedupGate(t *testing.T) {
	if os.Getenv("SSP_BENCH_GATE") == "" {
		t.Skip("set SSP_BENCH_GATE=1 to run the timing gate (make bench-gate)")
	}
	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Threaded struct {
			Gate map[string]float64 `json:"gate"`
		} `json:"threaded"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Threaded.Gate) == 0 {
		t.Fatal("BENCH_sim.json has no threaded.gate baseline ratios")
	}

	alu := aluProgram(t)
	mcf := benchNamed(t, "mcf", 3000)
	interp := func(run interpretFn, dp *decode.Program, reps int) func() {
		cfg := DefaultInOrder()
		cfg.UseTinyMem()
		return func() {
			for i := 0; i < reps; i++ {
				if _, err := run(cfg, dp, 1<<40); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	engine := func(cfg Config, dp *decode.Program, reps int) func() {
		cfg.UseTinyMem()
		m := NewPredecoded(cfg, dp)
		return func() {
			for i := 0; i < reps; i++ {
				m.Reset(cfg, dp)
				if _, err := m.Run(); err != nil {
					t.Fatal(err)
				}
			}
		}
	}

	oneWide := DefaultInOrder()
	oneWide.IssueWidth = 1
	// Every pair takes the same fifteen interleaved trials, and the
	// interpreter trials repeat their runs so that each lasts tens of
	// milliseconds: fewer or shorter trials on a shared host let a median
	// swing past the 10% band.
	const trials = 15
	measured := map[string]float64{
		"BenchmarkInterpretALU": ratio(trials,
			interp(InterpretPredecoded, alu, 3),
			interp(InterpretStepwise, alu, 3)),
		"BenchmarkInOrderALU": ratio(trials,
			engine(DefaultInOrder(), alu, 1),
			engine(oneWide, alu, 1)),
		"BenchmarkInterpret": ratio(trials,
			interp(InterpretPredecoded, mcf, 60),
			interp(InterpretStepwise, mcf, 60)),
	}
	for name, committed := range bench.Threaded.Gate {
		got, ok := measured[name]
		if !ok {
			t.Errorf("%s: baseline ratio committed but not measured by the gate", name)
			continue
		}
		floor := committed * 0.9
		if got < floor {
			t.Errorf("%s: speedup %.2fx regressed >10%% below the committed %.2fx (floor %.2fx)",
				name, got, committed, floor)
		} else {
			t.Logf("%s: %.2fx (committed %.2fx)", name, got, committed)
		}
	}
}

// ratio returns median(ref time) / median(fast time) over the given number
// of interleaved trials. Interleaving (fast, ref, fast, ...) rather than
// back-to-back blocks keeps slow drifts in machine load from biasing one
// side.
func ratio(trials int, fast, ref func()) float64 {
	fast() // warm both paths (chain compile, page faults, caches)
	ref()
	ft := make([]time.Duration, 0, trials)
	rt := make([]time.Duration, 0, trials)
	for i := 0; i < trials; i++ {
		start := time.Now()
		fast()
		ft = append(ft, time.Since(start))
		start = time.Now()
		ref()
		rt = append(rt, time.Since(start))
	}
	return float64(median(rt)) / float64(median(ft))
}

func median(ds []time.Duration) time.Duration {
	for i := 1; i < len(ds); i++ {
		for j := i; j > 0 && ds[j] < ds[j-1]; j-- {
			ds[j], ds[j-1] = ds[j-1], ds[j]
		}
	}
	return ds[len(ds)/2]
}

// TestOOOCostGate is the regression gate on the out-of-order engine's
// per-cycle cost, run by `make bench-gate` beside TestThreadedSpeedupGate
// and skipped the same way without SSP_BENCH_GATE=1.
//
// It measures what the OOO wakeup/select machinery costs relative to the
// in-order engine on the same host: OOO ns per simulated cycle over in-order
// ns per simulated cycle, both engines timed in one process with
// interleaved trials. Two regimes are gated:
//   - "mcf-ff": the memory-bound mcf kernel with fast-forward on, where
//     stall detection and jump length dominate (the experiment matrix's
//     regime);
//   - "alu": the dense-issue ALU loop, where nearly every cycle selects and
//     wakes several records and there is little stall to skip.
//
// The committed baselines are BENCH_sim.json's "ooo".gate; a ratio more than
// 10% above its baseline fails.
func TestOOOCostGate(t *testing.T) {
	if os.Getenv("SSP_BENCH_GATE") == "" {
		t.Skip("set SSP_BENCH_GATE=1 to run the timing gate (make bench-gate)")
	}
	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		OOO struct {
			Gate map[string]float64 `json:"gate"`
		} `json:"ooo"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.OOO.Gate) == 0 {
		t.Fatal("BENCH_sim.json has no ooo.gate baseline ratios")
	}
	measured := map[string]float64{
		"mcf-ff": oooCostRatio(t, 9, 5, withFF(DefaultOOO()), withFF(DefaultInOrder()), benchNamed(t, "mcf", 3000)),
		"alu":    oooCostRatio(t, 7, 1, DefaultOOO(), DefaultInOrder(), aluProgram(t)),
	}
	for name, committed := range bench.OOO.Gate {
		got, ok := measured[name]
		if !ok {
			t.Errorf("%s: baseline ratio committed but not measured by the gate", name)
			continue
		}
		ceiling := committed * 1.1
		if got > ceiling {
			t.Errorf("%s: OOO/in-order ns per cycle %.2fx regressed >10%% above the committed %.2fx (ceiling %.2fx)",
				name, got, committed, ceiling)
		} else {
			t.Logf("%s: %.2fx (committed %.2fx)", name, got, committed)
		}
	}
}

// oooCostRatio returns the OOO engine's ns per simulated cycle over the
// in-order engine's on one program, from the medians of interleaved trials,
// each trial running its engine reps times on one Reset machine.
func oooCostRatio(t *testing.T, trials, reps int, ooo, inorder Config, dp *decode.Program) float64 {
	var cycles [2]int64
	engine := func(cfg Config, cyc *int64) func() {
		cfg.UseTinyMem()
		m := NewPredecoded(cfg, dp)
		return func() {
			for i := 0; i < reps; i++ {
				m.Reset(cfg, dp)
				res, err := m.Run()
				if err != nil {
					t.Fatal(err)
				}
				*cyc = res.Cycles
			}
		}
	}
	// ratio is median(second)/median(first): OOO time over in-order time.
	r := ratio(trials, engine(inorder, &cycles[0]), engine(ooo, &cycles[1]))
	return r * float64(cycles[0]) / float64(cycles[1])
}
