package ssp

import (
	"strings"
	"testing"

	"ssp/internal/handtuned"
	"ssp/internal/ir"
	"ssp/internal/workloads"
)

func TestVerifyAcceptsToolOutput(t *testing.T) {
	for _, name := range []string{"mcf", "em3d", "treeadd.df", "health"} {
		_, enh, _, _ := adaptWorkload(t, name, DefaultOptions())
		if _, err := VerifyAttachments(enh); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestVerifyAcceptsHandAdaptations(t *testing.T) {
	for _, name := range []string{"mcf", "health"} {
		spec, _ := workloads.ByName(name)
		orig, _ := spec.Build(spec.TestScale)
		hand, err := handtuned.Adapt(name, orig)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := VerifyAttachments(hand); err != nil {
			t.Errorf("%s hand: %v", name, err)
		}
	}
}

// corrupt applies fn to a fresh adapted mcf and expects verification to
// fail.
func corrupt(t *testing.T, what string, fn func(*ir.Program)) {
	t.Helper()
	_, enh, _, _ := adaptWorkload(t, "mcf", DefaultOptions())
	fn(enh)
	if _, err := VerifyAttachments(enh); err == nil {
		t.Errorf("%s: verification accepted a corrupted binary", what)
	}
}

func TestVerifyRejectsCorruptions(t *testing.T) {
	corrupt(t, "store in slice", func(p *ir.Program) {
		f := p.FuncByName("main")
		b := f.BlockByLabel("ssp_slice_0")
		st := &ir.Instr{Op: ir.OpSt, Ra: 21, Rb: 21}
		p.Assign(st)
		b.InsertAt(1, st)
	})
	corrupt(t, "call in slice", func(p *ir.Program) {
		f := p.FuncByName("main")
		b := f.BlockByLabel("ssp_slice_0")
		c := &ir.Instr{Op: ir.OpCall, Target: "main", Bd: 0}
		p.Assign(c)
		b.InsertAt(1, c)
	})
	corrupt(t, "missing kill", func(p *ir.Program) {
		f := p.FuncByName("main")
		b := f.BlockByLabel("ssp_slice_0")
		for _, in := range b.Instrs {
			if in.Op == ir.OpKill {
				in.Op = ir.OpNop
			}
		}
	})
	corrupt(t, "stub without spawn", func(p *ir.Program) {
		f := p.FuncByName("main")
		b := f.BlockByLabel("ssp_stub_0")
		b.Terminator().Op = ir.OpNop
		b.Terminator().Target = ""
	})
	corrupt(t, "uninitialized live-in slot", func(p *ir.Program) {
		f := p.FuncByName("main")
		b := f.BlockByLabel("ssp_slice_0")
		for _, in := range b.Instrs {
			if in.Op == ir.OpLir {
				in.Imm = 13 // a slot the stub never writes
				break
			}
		}
	})
	// Regression: a lir after the first non-lir instruction used to bypass
	// the subset check entirely (the scan broke at the end of the
	// prologue).
	corrupt(t, "post-prologue lir reads unwritten slot", func(p *ir.Program) {
		f := p.FuncByName("main")
		b := f.BlockByLabel("ssp_slice_0")
		lir := &ir.Instr{Op: ir.OpLir, Rd: 30, Imm: 13}
		p.Assign(lir)
		b.InsertAt(len(b.Instrs)-1, lir)
	})
	// Regression: continuation blocks (ssp_slice_N_*) were never scanned,
	// so a lir there could read a slot no spawner writes.
	corrupt(t, "continuation-block lir reads unwritten slot", func(p *ir.Program) {
		f := p.FuncByName("main")
		cont := f.AddBlock("ssp_slice_0_cont")
		lir := &ir.Instr{Op: ir.OpLir, Rd: 30, Imm: 13}
		p.Assign(lir)
		cont.Append(lir)
	})
	corrupt(t, "liw slot outside the live-in buffer", func(p *ir.Program) {
		f := p.FuncByName("main")
		b := f.BlockByLabel("ssp_stub_0")
		for _, in := range b.Instrs {
			if in.Op == ir.OpLiw {
				in.Imm = int64(ir.LIBSlots) // hardware would wrap to slot 0
				break
			}
		}
	})
	corrupt(t, "chk to non-stub", func(p *ir.Program) {
		f := p.FuncByName("main")
		f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
			if in.Op == ir.OpChk {
				in.Target = "loop"
			}
		})
	})
}

// TestVerifyRejectsKillOnOneBranchArm is the regression for the weak kill
// check: the old scan accepted a slice as terminated if *any* kill appeared
// anywhere in its region, so a kill reachable on only one branch arm passed.
// The all-paths analysis must reject the arm that leaves the region without
// one.
func TestVerifyRejectsKillOnOneBranchArm(t *testing.T) {
	_, enh, _, _ := adaptWorkload(t, "mcf", DefaultOptions())
	f := enh.FuncByName("main")
	b := f.BlockByLabel("ssp_slice_0")
	// Branch around the region's tail (where the kill lives) on one arm:
	// the fall-through arm still kills, the taken arm falls off the region.
	stray := f.AddBlock("ssp_slice_0_stray")
	_ = stray // deliberately empty: the arm exits the region without kill
	br := &ir.Instr{Op: ir.OpBr, Qp: 1, Target: "ssp_slice_0_stray"}
	enh.Assign(br)
	b.InsertAt(0, br)
	f.Renumber()
	_, err := VerifyAttachments(enh)
	if err == nil {
		t.Fatal("verification accepted a slice whose kill is on only one branch arm")
	}
	if !strings.Contains(err.Error(), string(SafetyNoKill)) {
		t.Fatalf("rejected for the wrong reason: %v", err)
	}
}
