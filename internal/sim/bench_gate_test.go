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
//   - "BenchmarkInterpretALU": the interpreter with its fused runs
//     (InterpretPredecoded) over its per-PC loop (InterpretStepwise), on
//     the ALU loop;
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
	fast() // warm both paths (the compile, page faults, caches)
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

// TestEngineCostGate is the regression gate on each cycle engine's
// per-cycle cost, run by `make bench-gate` beside TestThreadedSpeedupGate
// and skipped the same way without SSP_BENCH_GATE=1.
//
// Each row measures one engine's ns per simulated cycle on a program over
// the per-PC interpreter loop's (InterpretStepwise) ns per instruction on
// the ALU loop, both timed in one process with interleaved trials. The
// yardstick moves with neither engine, so a change that speeds one engine up
// cannot trip the other's row, and it is one fixed loop on one fixed
// program: no per-run setup it pays, and no interpreter fast path, can move
// it. Two regimes per engine:
//   - "mcf-ff": the memory-bound mcf kernel with fast-forward on, where
//     stall detection and jump length dominate (the experiment matrix's
//     regime);
//   - "alu": the dense-issue ALU loop, where nearly every cycle selects and
//     issues and there is little stall to skip.
//
// The committed baselines are BENCH_sim.json's "ooo".cost_gate and
// "inorder".cost_gate; a ratio more than 10% above its baseline fails.
// Each baseline is the largest value seen in the calibration runs, rounded
// up (BENCH_sim.json "inorder".cost_gate_note), so the ceiling passes the
// spread of single runs on a shared host and catches gross regressions — a
// per-cycle scoreboard rescan reads far above its row — not a few percent.
func TestEngineCostGate(t *testing.T) {
	if os.Getenv("SSP_BENCH_GATE") == "" {
		t.Skip("set SSP_BENCH_GATE=1 to run the timing gate (make bench-gate)")
	}
	raw, err := os.ReadFile("../../BENCH_sim.json")
	if err != nil {
		t.Fatal(err)
	}
	type row struct {
		Gate map[string]float64 `json:"cost_gate"`
	}
	var bench struct {
		OOO     row `json:"ooo"`
		InOrder row `json:"inorder"`
	}
	if err := json.Unmarshal(raw, &bench); err != nil {
		t.Fatal(err)
	}
	mcf, alu := benchNamed(t, "mcf", 3000), aluProgram(t)
	for _, e := range []struct {
		name string
		gate map[string]float64
		cfg  Config
	}{
		{"inorder", bench.InOrder.Gate, DefaultInOrder()},
		{"ooo", bench.OOO.Gate, DefaultOOO()},
	} {
		if len(e.gate) == 0 {
			t.Fatalf("BENCH_sim.json has no %s.cost_gate baselines", e.name)
		}
		measured := map[string]float64{
			"mcf-ff": engineCost(t, 15, 5, 2, withFF(e.cfg), mcf, alu),
			"alu":    engineCost(t, 15, 1, 3, e.cfg, alu, alu),
		}
		for name, committed := range e.gate {
			got, ok := measured[name]
			if !ok {
				t.Errorf("%s/%s: baseline committed but not measured by the gate", e.name, name)
				continue
			}
			ceiling := committed * 1.1
			if got > ceiling {
				t.Errorf("%s/%s: ns per cycle over per-PC ns per instruction %.2fx regressed >10%% above the committed %.2fx (ceiling %.2fx)",
					e.name, name, got, committed, ceiling)
			} else {
				t.Logf("%s/%s: %.2fx (committed %.2fx)", e.name, name, got, committed)
			}
		}
	}
}

// engineCost returns an engine's ns per simulated cycle on dp over the
// per-PC interpreter loop's (InterpretStepwise) ns per instruction on alu,
// from the medians of interleaved trials: each trial runs the engine reps
// times on one Reset machine, and the interpreter walkReps times on alu.
func engineCost(t *testing.T, trials, reps, walkReps int, cfg Config, dp, alu *decode.Program) float64 {
	cfg.UseTinyMem()
	var cycles, instrs int64
	m := NewPredecoded(cfg, dp)
	engine := func() {
		for i := 0; i < reps; i++ {
			m.Reset(cfg, dp)
			res, err := m.Run()
			if err != nil {
				t.Fatal(err)
			}
			cycles = res.Cycles
		}
	}
	walk := func() {
		for i := 0; i < walkReps; i++ {
			res, err := InterpretStepwise(cfg, alu, 1<<40)
			if err != nil {
				t.Fatal(err)
			}
			instrs = res.Instrs
		}
	}
	// ratio is median(second)/median(first): engine time over walker time.
	r := ratio(trials, walk, engine)
	return r * float64(int64(walkReps)*instrs) / float64(int64(reps)*cycles)
}
