// Package threaded is the closure-threaded execution core: a compile stage
// that lowers the immutable predecoded image (decode.Program) into per-basic-
// block handler chains — one funcval array per block, each closure specialized
// at compile time on handler kind, operand registers, and pre-masked
// immediates, with straight-line runs of instructions fused into
// superinstructions and block exits that return the successor block index
// directly instead of re-dispatching per PC.
//
// The compiled Program is config-independent and immutable, like the
// decode.Program it is built from: any number of machines, across models and
// goroutines, may execute it concurrently. decode.Program memoizes one
// compile per image (Program.Threaded), so exp.Suite's per-(benchmark,
// variant) predecode memoization covers the threaded sidecar for free.
//
// Two consumers, two products:
//
//   - Chains (Blocks): the functional interpreter executes them directly,
//     block to block. Chains model main-thread no-speculation semantics only
//     (chk.c falls through, spawn is a nop, stores execute) — exactly the
//     interpreter's contract.
//   - Steps: a per-PC array of pure-step closures, one for every instruction
//     with no memory, control, or machine-level effect. They are the only
//     definition of those opcodes: the cycle-level engines and the per-PC
//     interpreter loop run them under their own timing and accounting, and
//     only memory and control instructions reach sim's handler table.
//
// Chains and steps are built by the same specializer (stepFor), so the chain
// body of a pure instruction is its step. Fused superinstructions report
// their constituent instruction count (node.n, Block.NBody) and the static
// IDs of any folded loads (Block.LoadIDs), so instruction-exact accounting —
// the interpreter's maxInstrs ceiling in particular — never drifts from the
// per-PC loop. check.StrategyEquivalence holds the chain walker to
// bit-identical results against that loop.
package threaded

import (
	"errors"
	"fmt"

	"ssp/internal/ir"
	"ssp/internal/sim/mem"
)

// Ctx is the architectural state a chain or step closure executes against:
// the register files, predicate registers, branch registers, and live-in
// buffers of one hardware thread context. sim.Thread embeds it, so the
// closures write engine thread state directly; the interpreter runs a
// standalone Ctx with Mem attached.
type Ctx struct {
	Regs  [ir.NumRegs]uint64
	Preds [ir.NumPreds]bool
	BRs   [ir.NumBRs]uint64
	FRegs [ir.NumFRs]float64

	InLIB  [ir.LIBSlots]uint64
	OutLIB [ir.LIBSlots]uint64

	// Mem is the data memory chain closures load from and store to. Only
	// the chain walker attaches one; engine threads leave it nil (their
	// memory instructions go through sim's handlers, where timing lives).
	Mem *mem.Memory

	// Dyn receives the dynamic target PC of a ret/callb block exit; Run
	// maps it back onto a block. TrapPC records the PC of a kill exit for
	// the error message.
	Dyn    uint64
	TrapPC int32
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

// Step is one specialized per-PC closure of the engines' pure-step array.
type Step func(x *Ctx)

// node is one superinstruction of a block's body chain: a fused run of up to
// fuseWidth constituent instructions with no control transfer among them.
type node struct {
	run Step  // nil when every constituent is effect-free (nops, r0 sinks)
	n   int32 // constituent dynamic instruction count
	pc  int32 // PC of the first constituent
}

// Block is one compiled basic block: the body chain plus a single exit
// closure that returns the successor block index (or a negative exit code).
type Block struct {
	Start, End int32

	body []node
	exit func(x *Ctx) int32
	// exitN is the exit's constituent count: 1 for a real terminator, 2
	// when the trailing cmp+br latch idiom is fused into the exit, 0 for a
	// synthetic fall-through (the block ends because its successor is a
	// jump target, not because it transfers control).
	exitN  int32
	exitPC int32

	// NBody is the body chain's total constituent count; NBody plus exitN
	// is the exact number of dynamic instructions one traversal executes.
	NBody int32
	// LoadPCs/LoadIDs identify the loads folded into the body chain (PC
	// and static instruction ID), so fused execution stays attributable
	// per load.
	LoadPCs []int32
	LoadIDs []int32
}

// Body returns the block's superinstruction chain as (constituents, firstPC)
// pairs, for reports and tests.
func (b *Block) Body() []struct{ N, PC int32 } {
	out := make([]struct{ N, PC int32 }, len(b.body))
	for i, nd := range b.body {
		out[i] = struct{ N, PC int32 }{nd.n, nd.pc}
	}
	return out
}

// Program is a compiled image: the block chains, the PC→block maps, and the
// engines' per-PC pure-step array.
type Program struct {
	Blocks []Block
	// BlockOf maps a PC to its block index; BlockStart marks PCs control
	// may enter a chain at.
	BlockOf    []int32
	BlockStart []bool

	// Steps is the per-PC pure-step array; a nil entry means the
	// instruction has memory, control, or machine-level effects and is
	// executed by sim's handler table instead.
	Steps []Step

	// Unthreadable marks an image whose chains could not be built (a
	// control transfer not at a block boundary — impossible for linked
	// programs, possible for hand-built images). Steps is still valid.
	Unthreadable bool

	// Compile-time fusion statistics, for reports and the coverage tests.
	NInstrs int // static instructions compiled
	NSteps  int // PCs with an engine pure step
	Supers  int // superinstructions with >= 2 constituents
	Fused   int // instructions folded into those superinstructions
}

// Exit codes returned by block exits (>= 0 is a successor block index).
const (
	ecHalt int32 = -1 // main thread executed halt
	ecKill int32 = -2 // kill reached (TrapPC holds the PC)
	ecDyn  int32 = -3 // dynamic target in Ctx.Dyn (ret, callb)
	ecOff  int32 = -4 // control ran off the end of the image
)

// ErrUnthreadable reports that chain execution cannot (or can no longer)
// represent the program's control flow — an unthreadable image, an entry
// that is not a block start, or a dynamic jump to mid-block. The caller
// falls back to the per-PC loop; the Ctx is dead.
var ErrUnthreadable = errors.New("threaded: program not chain-executable")

// LimitError reports that execution would exceed the instruction ceiling —
// the same condition, at the same instruction boundary, as the per-PC
// interpreter loop's limit.
type LimitError struct{ Max int64 }

func (e *LimitError) Error() string {
	return fmt.Sprintf("threaded: execution exceeded %d instructions", e.Max)
}

// KillError reports that the main thread executed kill.
type KillError struct{ PC int }

func (e *KillError) Error() string {
	return fmt.Sprintf("threaded: kill at pc %d", e.PC)
}

// Run executes the chains from entry until halt, kill, or the instruction
// ceiling, and returns the number of dynamic instructions executed. The
// count — and the halt/kill/limit outcome — is bit-identical to the per-PC
// interpreter loop on the same image: superinstructions carry
// their constituent counts, and a chain can never cross the ceiling
// mid-node without erroring exactly where the per-PC loop would have.
func (p *Program) Run(x *Ctx, entry int, maxInstrs int64) (int64, error) {
	if p.Unthreadable || entry < 0 || entry >= len(p.BlockStart) || !p.BlockStart[entry] {
		return 0, ErrUnthreadable
	}
	b := p.BlockOf[entry]
	var n int64
	for {
		blk := &p.Blocks[b]
		for i := range blk.body {
			nd := &blk.body[i]
			if n+int64(nd.n) > maxInstrs {
				return n, &LimitError{Max: maxInstrs}
			}
			if nd.run != nil {
				nd.run(x)
			}
			n += int64(nd.n)
		}
		if blk.exitN != 0 && n+int64(blk.exitN) > maxInstrs {
			return n, &LimitError{Max: maxInstrs}
		}
		c := blk.exit(x)
		n += int64(blk.exitN)
		if c >= 0 {
			b = c
			continue
		}
		switch c {
		case ecHalt:
			return n, nil
		case ecKill:
			return n, &KillError{PC: int(x.TrapPC)}
		case ecDyn:
			tgt := x.Dyn
			if tgt >= uint64(len(p.BlockStart)) || !p.BlockStart[tgt] {
				return n, ErrUnthreadable
			}
			b = p.BlockOf[tgt]
		default: // ecOff
			return n, ErrUnthreadable
		}
	}
}
