package ssp

import (
	"fmt"
	"math/bits"

	"ssp/internal/ir"
)

// This file is the adversarial half of the speculation-safety verifier: a
// deterministic mutator that manufactures exactly one violation per safety
// class in an otherwise-safe adapted binary. The negative corpus it
// generates keeps the verifier honest — every class is exercised against
// every adapted benchmark, so a regression that silently accepts a stray
// store or an unbounded backedge fails a test instead of shipping. It lives
// in the package proper (not a _test file) so both the ssp test suite and
// the check package's adversarial sweep (check.Seed, make sspcheck) share one
// mutator.

// UnsafeClasses lists the violation classes InjectUnsafe can manufacture,
// in a fixed order for deterministic sweeps.
var UnsafeClasses = []SafetyClass{
	SafetyStore,
	SafetyNoKill,
	SafetyUnboundedLoop,
	SafetyUnboundedChain,
	SafetyLiveInRange,
	SafetyEscape,
	SafetyTrigger,
	SafetyLiveIn,
}

// InjectUnsafe clones the program and injects one violation of the given
// class into its first slice region, or for the trigger class into that
// slice's stub. It returns the mutant and true, or (nil, false) when the
// program has no slice to corrupt. Every mutation is applicable to any
// program with at least one slice spawned from a stub and a live-in slot
// left free, so a sweep over the classes never passes vacuously.
func InjectUnsafe(p *ir.Program, class SafetyClass) (*ir.Program, bool) {
	m := p.Clone()
	f, root := firstSlice(m)
	if root == "" {
		return nil, false
	}
	rb := f.BlockByLabel(root)
	switch class {
	case SafetyStore:
		// A stray store at the head of the slice: reachable on every path.
		st := &ir.Instr{Op: ir.OpSt, Ra: 1, Rb: 1}
		m.Assign(st)
		rb.InsertAt(0, st)
	case SafetyNoKill:
		// A kill on only one branch arm: the taken arm reaches the region's
		// kill, the new arm branches to an empty continuation that falls off
		// the region (and the function) without one.
		f.AddBlock(root + "_stray") // empty: idx past end falls off immediately
		br := &ir.Instr{Op: ir.OpBr, Qp: 1, Target: root + "_stray"}
		m.Assign(br)
		rb.InsertAt(0, br)
	case SafetyUnboundedLoop:
		// An unconditional backedge shadowing the kill: every path now
		// cycles forever.
		kb := killBlock(f, root)
		if kb == nil {
			return nil, false
		}
		for i, in := range kb.Instrs {
			if in.Op == ir.OpKill {
				br := &ir.Instr{Op: ir.OpBr, Target: root}
				m.Assign(br)
				kb.InsertAt(i, br)
				break
			}
		}
	case SafetyUnboundedChain:
		// An unguarded chained spawn: every activation respawns itself.
		sp := &ir.Instr{Op: ir.OpSpawn, Target: root}
		m.Assign(sp)
		rb.InsertAt(0, sp)
	case SafetyLiveInRange:
		// A live-in read past the buffer: the hardware would wrap the slot,
		// silently aliasing two live-ins.
		lir := &ir.Instr{Op: ir.OpLir, Rd: 1, Imm: ir.LIBSlots + 7}
		m.Assign(lir)
		rb.InsertAt(0, lir)
	case SafetyEscape:
		// A branch out of the region into main-program code.
		br := &ir.Instr{Op: ir.OpBr, Target: f.Blocks[0].Label}
		m.Assign(br)
		rb.InsertAt(0, br)
	case SafetyTrigger:
		// A main-thread register write in the slice's stub, after its
		// live-in copies: the main thread runs the stub, so the write
		// changes its architectural state.
		stub := stubOf(f, root)
		if stub == nil {
			return nil, false
		}
		mv := &ir.Instr{Op: ir.OpMovI, Rd: 1, Imm: 99}
		m.Assign(mv)
		stub.InsertAt(len(stub.Instrs)-1, mv)
	case SafetyLiveIn:
		// A slice read of an in-range slot no liw in the function writes,
		// so no spawner hands it over.
		var written uint64
		for _, b := range f.Blocks {
			written |= slots(b.Instrs, ir.OpLiw)
		}
		slot := bits.TrailingZeros64(^written)
		if slot >= ir.LIBSlots {
			return nil, false
		}
		lir := &ir.Instr{Op: ir.OpLir, Rd: 1, Imm: int64(slot)}
		m.Assign(lir)
		rb.InsertAt(0, lir)
	default:
		return nil, false
	}
	f.Renumber()
	return m, true
}

// firstSlice returns the first function holding a slice root and that
// root's label, or ("", nil) when the program has none.
func firstSlice(p *ir.Program) (*ir.Func, string) {
	for _, f := range p.Funcs {
		for _, b := range f.Blocks {
			if isSliceRoot(b.Label) {
				return f, b.Label
			}
		}
	}
	return nil, ""
}

// stubOf returns the stub that spawns the slice root in f: a block a chk.c
// targets whose last instruction spawns root.
func stubOf(f *ir.Func, root string) *ir.Block {
	var stub *ir.Block
	f.Instrs(func(_ *ir.Block, _ int, in *ir.Instr) {
		if in.Op != ir.OpChk {
			return
		}
		if b := f.BlockByLabel(in.Target); b != nil {
			if sp := b.Terminator(); sp != nil && sp.Op == ir.OpSpawn && sp.Target == root {
				stub = b
			}
		}
	})
	return stub
}

// killBlock returns the first region block of the slice containing a kill.
func killBlock(f *ir.Func, root string) *ir.Block {
	for _, b := range sliceRegionBlocks(f, root) {
		for _, in := range b.Instrs {
			if in.Op == ir.OpKill {
				return b
			}
		}
	}
	return nil
}

// CheckUnsafe sweeps every violation class over the program: each mutant
// must be rejected by the safety verifier with violations of exactly the
// injected class and no other. It returns an error naming the class that
// slipped through (a vacuous pass) or was rejected for another reason too.
func CheckUnsafe(p *ir.Program, ceiling int64) error {
	for _, class := range UnsafeClasses {
		m, ok := InjectUnsafe(p, class)
		if !ok {
			return fmt.Errorf("ssp: no slice to inject %q into (vacuous negative sweep)", class)
		}
		rep := AnalyzeSafety(m, ceiling)
		if len(rep.Violations) == 0 {
			return fmt.Errorf("ssp: verifier accepted a program with an injected %q violation", class)
		}
		for _, v := range rep.Violations {
			if v.Class != class {
				return fmt.Errorf("ssp: injected %q but verifier reported %v — wrong rejection reason", class, rep.Violations)
			}
		}
	}
	return nil
}
