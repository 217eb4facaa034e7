package sim

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"ssp/internal/ir"
	"ssp/internal/sim/decode"
)

// pcRangeProbes parses the two programs whose control leaves the image:
// a ret through a branch register past the code, and a loop whose exit
// falls through past the last instruction.
func pcRangeProbes(t *testing.T) map[string]*ir.Program {
	t.Helper()
	probes := map[string]*ir.Program{}
	for _, name := range []string{"pcrange_ret.ssp", "pcrange_falloff.ssp"} {
		src, err := os.ReadFile(filepath.Join("testdata", name))
		if err != nil {
			t.Fatal(err)
		}
		p, err := ir.Parse(string(src))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		probes[name] = p
	}
	return probes
}

// TestPCRangeIsRunError: control that leaves the image reaches the trap
// record at len(code), and a main thread there fails the run with a
// *RunError of reason pc-range on both interpreter paths and both engines,
// with and without fast-forward.
func TestPCRangeIsRunError(t *testing.T) {
	for name, p := range pcRangeProbes(t) {
		dp := Predecode(mustLink(t, p))
		interps := map[string]interpretFn{"runs": InterpretPredecoded, "stepwise": InterpretStepwise}
		for path, run := range interps {
			_, err := run(testInOrder(), dp, 1000)
			if re := (*RunError)(nil); !errors.As(err, &re) || re.Reason != "pc-range" {
				t.Errorf("%s/%s: err = %v, want a pc-range RunError", name, path, err)
			}
		}
		for _, cfg := range []Config{testInOrder(), testOOO(), withFF(testInOrder()), withFF(testOOO())} {
			res, err := NewPredecoded(cfg, dp).Run()
			if err != nil {
				t.Fatal(err)
			}
			if re := (*RunError)(nil); !errors.As(res.Err(), &re) || re.Reason != "pc-range" || !res.PCRange || res.MainKilled || res.TimedOut {
				t.Errorf("%s/%v ff=%v: Err() = %v (PCRange %v), want a pc-range RunError", name, cfg.Model, cfg.FastForward, res.Err(), res.PCRange)
			}
		}
	}
}

// TestSpecPCRangeDiesLikeKill: a speculative thread whose control leaves the
// image dies there as if it ran kill: a slice that falls off the end of the
// code runs exactly as the same slice ending in kill, on both engines, and
// the main thread's run succeeds.
func TestSpecPCRangeDiesLikeKill(t *testing.T) {
	build := func(kill bool) *ir.Program {
		p := ir.NewProgram("main")
		f := ir.NewFunc(p, "main")
		e := f.Block("entry")
		e.MovI(14, 0)
		e.Spawn("slice")
		loop := f.Block("loop")
		loop.AddI(14, 14, 1)
		loop.CmpI(ir.CondLT, 6, 7, 14, 50)
		loop.On(6).Br("loop")
		f.Block("exit").Halt()
		s := f.Block("slice")
		s.MovI(30, 7)
		s.AddI(31, 30, 1)
		if kill {
			s.Kill()
		}
		return p
	}
	for _, cfg := range []Config{testInOrder(), testOOO()} {
		off, err := runProgram(cfg, build(false))
		if err != nil {
			t.Fatalf("%v: falling slice: %v", cfg.Model, err)
		}
		killed, err := runProgram(cfg, build(true))
		if err != nil {
			t.Fatalf("%v: killed slice: %v", cfg.Model, err)
		}
		if off.Spawns != 1 || off.SpecInstrs == 0 {
			t.Fatalf("%v: the slice never ran (spawns %d, spec instrs %d)", cfg.Model, off.Spawns, off.SpecInstrs)
		}
		if off.Cycles != killed.Cycles || off.MainInstrs != killed.MainInstrs || off.SpecInstrs != killed.SpecInstrs ||
			off.FinalRegs != killed.FinalRegs || off.Breakdown != killed.Breakdown {
			t.Errorf("%v: falling off the end differs from kill: cycles %d/%d, main %d/%d, spec %d/%d",
				cfg.Model, off.Cycles, killed.Cycles, off.MainInstrs, killed.MainInstrs, off.SpecInstrs, killed.SpecInstrs)
		}
	}
}

// TestIndirectLandingMidRun: a ret or callb through movbr b = r may land
// inside a run, where no run starts, or on a linked-block start, where one
// does. Either way the interpreter with runs agrees with the per-PC loop on
// the instruction count, registers, memory and errors, including at every
// instruction limit up to the program's length.
func TestIndirectLandingMidRun(t *testing.T) {
	build := func(callb bool, target string, off int) *decode.Program {
		p := ir.NewProgram("main")
		f := ir.NewFunc(p, "main")
		e := f.Block("entry")
		e.MovI(4, 1)
		tgt := e.MovI(3, 0) // the landing PC, patched below
		e.MovBR(1, 3)
		if callb {
			e.CallB(2, 1)
		} else {
			e.Ret(1)
		}
		body := f.Block("body")
		body.AddI(4, 4, 10)
		body.AddI(5, 4, 20)
		body.AddI(6, 5, 30)
		next := f.Block("next")
		next.AddI(7, 6, 40)
		next.Add(8, 7, 5)
		next.MovI(9, 0x1000)
		next.St(9, 0, 8)
		next.AddI(10, 8, 1)
		next.Halt()
		img := mustLink(t, p)
		tgt.Imm = int64(img.BlockStarts["main."+target] + off)
		return Predecode(mustLink(t, p))
	}
	for _, c := range []struct {
		name   string
		target string
		off    int
		run    bool   // a run starts at the landing PC
		r10    uint64 // the landing code's result
	}{
		// From body+1: r5 = 1+20, r6 = r5+30, r7 = r6+40, r10 = r7+r5+1.
		{"mid-run", "body", 1, false, 113},
		// From next: r5 = r6 = 0, r7 = 40, r10 = r7+1.
		{"block start", "next", 0, true, 41},
	} {
		for _, callb := range []bool{false, true} {
			dp := build(callb, c.target, c.off)
			land := dp.Img.BlockStarts["main."+c.target] + c.off
			if got := ThreadedProgram(dp).Runs[land].N != 0; got != c.run {
				t.Fatalf("%s callb=%v: a run starts at the landing pc %d: %v, want %v", c.name, callb, land, got, c.run)
			}
			ref, err := InterpretStepwise(testInOrder(), dp, 1000)
			if err != nil {
				t.Fatal(err)
			}
			for limit := int64(1); limit <= ref.Instrs+1; limit++ {
				want, wantErr := InterpretStepwise(testInOrder(), dp, limit)
				got, gotErr := InterpretPredecoded(testInOrder(), dp, limit)
				if (wantErr == nil) != (gotErr == nil) || (wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("%s callb=%v limit %d: runs err %v, per-PC err %v", c.name, callb, limit, gotErr, wantErr)
				}
				if wantErr != nil {
					continue
				}
				if got.Instrs != want.Instrs || got.Regs != want.Regs || got.Mem.Checksum() != want.Mem.Checksum() {
					t.Fatalf("%s callb=%v limit %d: runs %d instrs, regs %v, checksum %#x; per-PC %d, %v, %#x", c.name, callb, limit,
						got.Instrs, got.Regs[:11], got.Mem.Checksum(), want.Instrs, want.Regs[:11], want.Mem.Checksum())
				}
			}
			if ref.Regs[10] != c.r10 {
				t.Fatalf("%s callb=%v: r10 = %d: the landing code did not run as written", c.name, callb, ref.Regs[10])
			}
		}
	}
}
