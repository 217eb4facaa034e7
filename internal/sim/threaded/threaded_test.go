package threaded_test

import (
	"strings"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim"
	"ssp/internal/sim/decode"
	"ssp/internal/sim/mem"
	"ssp/internal/sim/threaded"
	"ssp/internal/workloads"
)

const maxInstrs = 100_000_000

// stepwiseInterp runs the reference interpreter: sim's per-PC loop, which
// executes pure instructions through their steps and memory and control
// instructions through sim's handler table, one PC at a time.
func stepwiseInterp(t *testing.T, dp *decode.Program, limit int64) (*sim.InterpResult, error) {
	t.Helper()
	cfg := sim.DefaultInOrder()
	cfg.UseTinyMem()
	return sim.InterpretStepwise(cfg, dp, limit)
}

// runChains compiles and executes the chains directly, bypassing sim's
// interpreter gate, so the test exercises the package's own surface.
func runChains(t *testing.T, dp *decode.Program, limit int64) (*threaded.Ctx, int64, error) {
	t.Helper()
	tp := threaded.Compile(dp)
	if tp.Unthreadable {
		t.Fatal("compile marked a linked image unthreadable")
	}
	x := &threaded.Ctx{Mem: mem.NewMemory()}
	x.Mem.Install(dp.Img.Data)
	n, err := tp.Run(x, dp.Img.Entry, limit)
	return x, n, err
}

// TestChainsMatchTableInterpreter: direct chain execution agrees with the
// per-PC interpreter loop on final registers, instruction count, and
// memory checksum, over random programs and every paper benchmark.
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
		ref, err := stepwiseInterp(t, dp, maxInstrs)
		if err != nil {
			t.Fatalf("program %d: per-PC: %v", i, err)
		}
		x, n, err := runChains(t, dp, maxInstrs)
		if err != nil {
			t.Fatalf("program %d: chains: %v", i, err)
		}
		if n != ref.Instrs {
			t.Fatalf("program %d: chains retired %d instrs, per-PC %d", i, n, ref.Instrs)
		}
		if x.Regs != ref.Regs {
			t.Fatalf("program %d: final registers diverge:\nchains %v\nper-PC %v", i, x.Regs, ref.Regs)
		}
		if x.Mem.Checksum() != ref.Mem.Checksum() {
			t.Fatalf("program %d: memory checksum %#x, per-PC %#x", i, x.Mem.Checksum(), ref.Mem.Checksum())
		}
	}
}

// TestLimitBoundaryExact: the instruction ceiling trips at exactly the same
// boundary as the per-PC interpreter loop — a limit of N-1 errors, a limit of
// exactly N (the program's dynamic length, whose final instruction is halt)
// succeeds — including when the final block's exit is a fused two-instruction
// cmp+br (covered by whichever programs fuse their latch; the equality with
// the per-PC loop holds regardless).
func TestLimitBoundaryExact(t *testing.T) {
	img, err := ir.Link(workloads.RandomProgram(3))
	if err != nil {
		t.Fatal(err)
	}
	dp := decode.Predecode(img)
	ref, err := stepwiseInterp(t, dp, maxInstrs)
	if err != nil {
		t.Fatal(err)
	}
	n := ref.Instrs
	for _, limit := range []int64{1, n / 2, n - 1, n, n + 1} {
		refR, refErr := stepwiseInterp(t, dp, limit)
		_, cn, chErr := runChains(t, dp, limit)
		if (refErr == nil) != (chErr == nil) {
			t.Fatalf("limit %d: per-PC err %v, chains err %v", limit, refErr, chErr)
		}
		if refErr != nil {
			if _, ok := chErr.(*threaded.LimitError); !ok {
				t.Fatalf("limit %d: chains error %v, want LimitError", limit, chErr)
			}
			continue
		}
		if cn != refR.Instrs {
			t.Fatalf("limit %d: chains retired %d, per-PC %d", limit, cn, refR.Instrs)
		}
	}
}

// TestKillReportsPC: a main-thread kill surfaces as KillError carrying the
// faulting PC, and sim's interpreter converts it to the per-PC loop's exact
// error string.
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
	_, _, chErr := runChains(t, dp, maxInstrs)
	ke, ok := chErr.(*threaded.KillError)
	if !ok {
		t.Fatalf("chains error %v, want KillError", chErr)
	}
	_, refErr := stepwiseInterp(t, dp, maxInstrs)
	if refErr == nil {
		t.Fatal("per-PC interpreter accepted a kill")
	}
	cfg := sim.DefaultInOrder()
	cfg.UseTinyMem()
	_, thrErr := sim.InterpretPredecoded(cfg, dp, maxInstrs)
	if thrErr == nil || thrErr.Error() != refErr.Error() {
		t.Fatalf("chain interpreter error %q, per-PC %q", thrErr, refErr)
	}
	if !strings.Contains(refErr.Error(), "kill") {
		t.Fatalf("unexpected kill error: %v", refErr)
	}
	if ke.PC < 0 || ke.PC >= len(img.Code) || img.Code[ke.PC].I.Op != ir.OpKill {
		t.Fatalf("KillError.PC = %d, not the kill instruction", ke.PC)
	}
}

// TestCompileCoverage: the compile stage accounts for every static
// instruction exactly once — the per-block constituent counts (body chain
// plus exit) sum to the image size — and actually fuses: the benchmarks'
// ALU-dense inner loops must produce multi-constituent superinstructions. It
// also pins the steps' contract with sim's handler table: exactly the
// instructions without a memory or control handler get a step.
func TestCompileCoverage(t *testing.T) {
	for _, spec := range workloads.All() {
		p, _ := spec.Build(spec.TestScale)
		img, err := ir.Link(p)
		if err != nil {
			t.Fatal(err)
		}
		dp := decode.Predecode(img)
		tp := threaded.Compile(dp)
		if tp.Unthreadable {
			t.Fatalf("%s: unthreadable", spec.Name)
		}
		if tp.NInstrs != len(img.Code) {
			t.Fatalf("%s: compiled %d instrs, image has %d", spec.Name, tp.NInstrs, len(img.Code))
		}
		var covered int32
		for bi := range tp.Blocks {
			b := &tp.Blocks[bi]
			var body int32
			for _, nd := range b.Body() {
				if nd.N <= 0 || nd.PC < b.Start || nd.PC >= b.End {
					t.Fatalf("%s: block %d has malformed node %+v", spec.Name, bi, nd)
				}
				body += nd.N
			}
			if body != b.NBody {
				t.Fatalf("%s: block %d NBody %d, nodes sum to %d", spec.Name, bi, b.NBody, body)
			}
			covered += b.NBody
			for i, pc := range b.LoadPCs {
				d := &dp.Code[pc]
				if d.H != decode.HLd && d.H != decode.HLdPI && d.H != decode.HFLd {
					t.Fatalf("%s: block %d LoadPCs[%d]=%d is not a load", spec.Name, bi, i, pc)
				}
				if b.LoadIDs[i] != d.ID {
					t.Fatalf("%s: block %d load %d: ID %d, decode says %d", spec.Name, bi, pc, b.LoadIDs[i], d.ID)
				}
			}
		}
		// Exits: every block contributes End-Start instructions in total.
		for bi := range tp.Blocks {
			b := &tp.Blocks[bi]
			exitN := b.End - b.Start - b.NBody
			if exitN < 0 || exitN > 2 {
				t.Fatalf("%s: block %d: exit covers %d instrs", spec.Name, bi, exitN)
			}
			covered += exitN
		}
		if int(covered) != tp.NInstrs {
			t.Fatalf("%s: blocks cover %d instrs, image has %d", spec.Name, covered, tp.NInstrs)
		}
		if tp.Supers == 0 || tp.Fused == 0 {
			t.Fatalf("%s: no fusion happened (supers=%d fused=%d)", spec.Name, tp.Supers, tp.Fused)
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
