package threaded_test

import (
	"errors"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/threaded"
	"ssp/internal/workloads"
)

const maxInstrs = 100_000_000

// interp runs sim's interpreter loop with the image's runs (InterpretPredecoded)
// or per PC (InterpretStepwise, the reference).
func interp(t *testing.T, runs bool, dp *decode.Program, limit int64) (*sim.InterpResult, error) {
	t.Helper()
	cfg := sim.DefaultInOrder()
	cfg.UseTinyMem()
	if runs {
		return sim.InterpretPredecoded(cfg, dp, limit)
	}
	return sim.InterpretStepwise(cfg, dp, limit)
}

// TestChainsMatchTableInterpreter: the interpreter with its fused runs
// (chains of pure steps between handler-table instructions) agrees with the
// per-PC loop on final registers, instruction count, and memory checksum,
// over random programs and every paper benchmark.
func TestChainsMatchTableInterpreter(t *testing.T) {
	var dps []*decode.Program
	for seed := int64(0); seed < 8; seed++ {
		img, err := ir.Link(workloads.RandomProgram(seed))
		if err != nil {
			t.Fatal(err)
		}
		dps = append(dps, decode.Predecode(img))
	}
	for _, spec := range workloads.All() {
		p, _ := spec.Build(spec.TestScale)
		img, err := ir.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		dps = append(dps, decode.Predecode(img))
	}
	for i, dp := range dps {
		ref, err := interp(t, false, dp, maxInstrs)
		if err != nil {
			t.Fatalf("program %d: per-PC: %v", i, err)
		}
		got, err := interp(t, true, dp, maxInstrs)
		if err != nil {
			t.Fatalf("program %d: runs: %v", i, err)
		}
		if got.Instrs != ref.Instrs {
			t.Fatalf("program %d: runs retired %d instrs, per-PC %d", i, got.Instrs, ref.Instrs)
		}
		if got.Regs != ref.Regs {
			t.Fatalf("program %d: final registers diverge:\nruns   %v\nper-PC %v", i, got.Regs, ref.Regs)
		}
		if got.Mem.Checksum() != ref.Mem.Checksum() {
			t.Fatalf("program %d: memory checksum %#x, per-PC %#x", i, got.Mem.Checksum(), ref.Mem.Checksum())
		}
	}
}

// TestLimitBoundaryExact: the instruction ceiling trips at exactly the same
// boundary with runs as per PC — a limit of N-1 errors, a limit of exactly N
// (the program's dynamic length, whose final instruction is halt) succeeds.
func TestLimitBoundaryExact(t *testing.T) {
	img, err := ir.Link(workloads.RandomProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	dp := decode.Predecode(img)
	ref, err := interp(t, false, dp, maxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	n := ref.Instrs
	for _, limit := range []int64{1, n / 2, n - 1, n, n + 1} {
		refR, refErr := interp(t, false, dp, limit)
		got, gotErr := interp(t, true, dp, limit)
		if (refErr == nil) != (gotErr == nil) {
			t.Fatalf("limit %d: per-PC err %v, runs err %v", limit, refErr, gotErr)
		}
		if refErr != nil {
			var re *sim.RunError
			if !errors.As(gotErr, &re) || re.Reason != "instr-limit" || gotErr.Error() != refErr.Error() {
				t.Fatalf("limit %d: runs error %v, per-PC %v, want instr-limit", limit, gotErr, refErr)
			}
			continue
		}
		if got.Instrs != refR.Instrs {
			t.Fatalf("limit %d: runs retired %d, per-PC %d", limit, got.Instrs, refR.Instrs)
		}
	}
}

// TestKillReportsPC: a main-thread kill right after a run fails both loops
// with the same error, naming the kill's PC.
func TestKillReportsPC(t *testing.T) {
	p := ir.NewProgram("main")
	f := ir.NewFunc(p, "main")
	b := f.Block("entry")
	b.MovI(14, 7)
	b.Kill()
	img, err := ir.Link(p)
	if err != nil {
		t.Fatal(err)
	}
	dp := decode.Predecode(img)
	_, refErr := interp(t, false, dp, maxInstrs)
	_, gotErr := interp(t, true, dp, maxInstrs)
	const want = "sim: main thread executed kill at pc 1"
	if refErr == nil || gotErr == nil || refErr.Error() != want || gotErr.Error() != want {
		t.Fatalf("per-PC error %v, runs error %v, want %q", refErr, gotErr, want)
	}
	if img.Code[1].I.Op != ir.OpKill {
		t.Fatalf("pc 1 is %v, not the kill", img.Code[1].I.Op)
	}
}

// TestCompileCoverage pins the compile's contract with sim's handler table
// and with the interpreter loop: exactly the instructions without a memory
// or control handler get a step, and the trap index at len(code) has
// neither a step nor a run; every run covers pure PCs only, within one
// linked block, and starts at a block start or after a memory or control
// instruction, and every such pure PC starts one. So the runs partition the
// pure PCs. The benchmarks' ALU-dense inner loops must fuse.
func TestCompileCoverage(t *testing.T) {
	for _, spec := range workloads.All() {
		p, _ := spec.Build(spec.TestScale)
		img, err := ir.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		dp := decode.Predecode(img)
		tp := threaded.Compile(dp)
		n := len(dp.Code)
		if len(tp.Steps) != n+1 || len(tp.Runs) != n+1 || tp.Steps[n] != nil || tp.Runs[n].N != 0 {
			t.Fatalf("%s: the trap index %d has a step or a run (%d steps, %d runs)", spec.Name, n, len(tp.Steps), len(tp.Runs))
		}
		steps := 0
		for pc := range dp.Code {
			h := dp.Code[pc].H
			if want := !memOrControl(h); (tp.Steps[pc] != nil) != want {
				t.Fatalf("%s: pc %d (%v): step present %v, want %v", spec.Name, pc, dp.Code[pc].Op, !want, want)
			}
			if tp.Steps[pc] != nil {
				steps++
			}
		}
		if steps == 0 || steps != tp.NSteps {
			t.Fatalf("%s: %d pure steps, NSteps %d", spec.Name, steps, tp.NSteps)
		}
		covered, fused := 0, 0
		for pc := 0; pc < n; pc++ {
			pure := tp.Steps[pc] != nil
			starts := pure && (pc == 0 || img.BlockOf[pc] != img.BlockOf[pc-1] || tp.Steps[pc-1] == nil)
			r := tp.Runs[pc]
			if (r.N != 0) != starts {
				t.Fatalf("%s: pc %d: run of %d, want a run %v", spec.Name, pc, r.N, starts)
			}
			if r.N == 0 {
				continue
			}
			if r.Step == nil {
				t.Fatalf("%s: pc %d: run of %d has no step", spec.Name, pc, r.N)
			}
			for q := pc; q < pc+r.N; q++ {
				if tp.Steps[q] == nil || (q > pc && img.BlockOf[q] != img.BlockOf[pc]) {
					t.Fatalf("%s: run at pc %d covers pc %d, impure or in another block", spec.Name, pc, q)
				}
			}
			covered += r.N
			if r.N >= 2 {
				fused++
			}
		}
		if covered != tp.NSteps {
			t.Fatalf("%s: runs cover %d pure PCs, NSteps %d", spec.Name, covered, tp.NSteps)
		}
		if fused == 0 {
			t.Fatalf("%s: no run fuses two or more steps", spec.Name)
		}
	}
}

// memOrControl reports whether a handler kind executes through sim's handler
// table rather than a compiled step.
func memOrControl(h decode.Handler) bool {
	switch h {
	case decode.HLd, decode.HLdPI, decode.HSt, decode.HLfetch, decode.HFLd, decode.HFSt,
		decode.HBr, decode.HCall, decode.HCallB, decode.HRet, decode.HChk, decode.HSpawn,
		decode.HKill, decode.HHalt:
		return true
	}
	return false
}

// TestCtxHardwired: the architectural register conventions hold — r0 writes
// are dropped, f0/f1 read as the hardwired constants and refuse writes.
func TestCtxHardwired(t *testing.T) {
	var x threaded.Ctx
	x.SetReg(ir.RegZero, 42)
	if x.Regs[ir.RegZero] != 0 {
		t.Fatal("r0 accepted a write")
	}
	x.SetFR(ir.FZero, 3.5)
	x.SetFR(ir.FOne, 3.5)
	if x.FR(ir.FZero) != 0 || x.FR(ir.FOne) != 1 {
		t.Fatalf("hardwired FPs read %v/%v, want 0/1", x.FR(ir.FZero), x.FR(ir.FOne))
	}
}
