// Package threaded is the closure-threaded execution core: a compile stage
// that lowers the immutable predecoded image (decode.Program) into a per-PC
// array of pure steps, each closure specialized at compile time on handler
// kind, operand registers and pre-masked immediates, and a per-PC array of
// runs, the pure steps from one PC fused into one closure.
//
// The compiled Program is config-independent and immutable, like the
// decode.Program it is built from: any number of machines, across models and
// goroutines, may execute it concurrently. decode.Program memoizes one
// compile per image (Program.Threaded), so exp.Suite's per-(benchmark,
// variant) predecode memoization covers the threaded sidecar for free.
//
// Steps cover exactly the instructions with no memory, control, or
// machine-level effect, and are the only definition of those opcodes: the
// cycle-level engines and the interpreter run them under their own timing
// and accounting. Memory and control instructions have no step; sim's
// handler table is their only definition. Runs are how the functional
// interpreter dispatches pure code: one call and one instruction-count
// check per run instead of one per instruction, and nothing else, so a
// run's count is exactly what the per-PC loop would execute over the same
// PCs.
package threaded

import "ssp/internal/ir"

// Ctx is the architectural state a step executes against: the register
// files, predicate registers, branch registers, and live-in buffers of one
// hardware thread context. sim.Thread embeds it, so the closures write
// thread state directly.
type Ctx struct {
	Regs  [ir.NumRegs]uint64
	Preds [ir.NumPreds]bool
	BRs   [ir.NumBRs]uint64
	FRegs [ir.NumFRs]float64

	InLIB  [ir.LIBSlots]uint64
	OutLIB [ir.LIBSlots]uint64
}

// SetReg writes a general register; writes to the hardwired r0 are dropped.
// Compiled closures never call it — r0 destinations are specialized away at
// compile time — but the embedding machine uses it for generic writes.
func (x *Ctx) SetReg(r ir.Reg, v uint64) {
	if r != ir.RegZero {
		x.Regs[r] = v
	}
}

// FR reads an FP register, honoring the hardwired f0 = +0.0 and f1 = +1.0.
func (x *Ctx) FR(f ir.FR) float64 {
	switch f {
	case ir.FZero:
		return 0
	case ir.FOne:
		return 1
	}
	return x.FRegs[f]
}

// SetFR writes an FP register; writes to the hardwired f0/f1 are dropped.
func (x *Ctx) SetFR(f ir.FR, v float64) {
	if f != ir.FZero && f != ir.FOne {
		x.FRegs[f] = v
	}
}

// Step is one specialized per-PC closure of the pure-step array.
type Step func(x *Ctx)

// Run is the pure steps from one PC fused into one closure: Step executes
// the N instructions at PCs [pc, pc+N), all pure, and the next instruction
// is at pc+N.
type Run struct {
	Step Step
	N    int
}

// Program is a compiled image. Both arrays have one entry per PC plus one
// for the trap record at len(code) (decode.Program.Exec), which has neither.
type Program struct {
	// Steps is the per-PC pure-step array; a nil entry means the
	// instruction has memory, control, or machine-level effects and is
	// executed by sim's handler table instead.
	Steps []Step
	// NSteps counts the PCs with a step.
	NSteps int

	// Runs holds a run at every PC where one starts, and a zero Run (N 0)
	// elsewhere. A run starts at each pure PC that begins a linked block or
	// follows a memory or control instruction, and extends over the pure
	// PCs after it up to the next linked-block start. Control can reach a
	// PC inside a run only through a ret or callb target; from there the
	// interpreter runs per PC up to the next run start.
	Runs []Run
}
