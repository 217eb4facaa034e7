package threaded

import (
	"math"

	"ssp/internal/cfg"
	"ssp/internal/ir"
	"ssp/internal/sim/decode"
)

// fuseWidth bounds how many constituent instructions one superinstruction
// fuses. Eight covers every latch/body idiom the adapter emits while keeping
// the interpreter's instruction-ceiling check within one bundle of the
// per-PC loop's boundary (the check can only fire between nodes; no node
// contains a halt, so the halt-vs-limit outcome is still exact).
const fuseWidth = 8

// Compile lowers a predecoded image into its closure-threaded form: blocks
// recovered by cfg.ImageBlocks, one specialized closure per instruction,
// straight-line runs fused into superinstructions, and exits resolved to
// successor block indexes. The result is immutable and goroutine-safe.
func Compile(dp *decode.Program) *Program {
	n := len(dp.Code)
	blocks, blockOf := cfg.ImageBlocks(dp.Img)
	p := &Program{
		BlockOf:    blockOf,
		BlockStart: make([]bool, n),
		Steps:      make([]Step, n),
		NInstrs:    n,
	}
	for _, b := range blocks {
		if b.Start < n {
			p.BlockStart[b.Start] = true
		}
	}
	// Per-PC pure steps: specialized architectural execution for every
	// instruction with no memory, control, or machine-level effect. Valid
	// even when the chains are not.
	for pc := range dp.Code {
		d := &dp.Code[pc]
		if s, pure, ok := stepFor(d); ok && pure {
			s = guard(d.Qp, s)
			if s == nil {
				s = nopStep // effect-free either way: nop, hardwired sink
			}
			p.Steps[pc] = s
			p.NSteps++
		}
	}
	p.Blocks = make([]Block, 0, len(blocks))
	for _, ib := range blocks {
		blk, ok := p.compileBlock(dp, ib)
		if !ok {
			p.Unthreadable = true
			p.Blocks = nil
			return p
		}
		p.Blocks = append(p.Blocks, blk)
	}
	return p
}

// nopStep is the shared closure for pure instructions with no architectural
// effect, so every pure PC has a step.
func nopStep(*Ctx) {}

// guard wraps a step with its qualifying predicate, specialized away for the
// always-true p0 and for effect-free steps.
func guard(qp ir.PR, s Step) Step {
	if s == nil || qp == ir.PTrue {
		return s
	}
	return func(x *Ctx) {
		if x.Preds[qp] {
			s(x)
		}
	}
}

// fuse composes non-nil steps into one superinstruction closure, unrolled
// for short runs and tree-composed for longer ones.
func fuse(ss []Step) Step {
	switch len(ss) {
	case 0:
		return nil
	case 1:
		return ss[0]
	case 2:
		a, b := ss[0], ss[1]
		return func(x *Ctx) { a(x); b(x) }
	case 3:
		a, b, c := ss[0], ss[1], ss[2]
		return func(x *Ctx) { a(x); b(x); c(x) }
	case 4:
		a, b, c, d := ss[0], ss[1], ss[2], ss[3]
		return func(x *Ctx) { a(x); b(x); c(x); d(x) }
	default:
		h := len(ss) / 2
		a, b := fuse(ss[:h]), fuse(ss[h:])
		return func(x *Ctx) { a(x); b(x) }
	}
}

// compileBlock builds one block's body chain and exit closure.
func (p *Program) compileBlock(dp *decode.Program, ib cfg.ImageBlock) (Block, bool) {
	n := len(dp.Code)
	blk := Block{Start: int32(ib.Start), End: int32(ib.End)}
	term := &dp.Code[ib.End-1]
	hasTerm := term.Op.Control() != ir.CtlNone
	bodyEnd := ib.End
	if hasTerm {
		bodyEnd--
	}
	// Peephole: fuse a trailing unpredicated cmp feeding a conditional br
	// into the exit itself (the addI+cmp+br latch idiom) — the exit writes
	// both predicates and branches directly, one closure for two
	// instructions.
	fuseCmp := false
	if hasTerm && term.H == decode.HBr && term.Qp != ir.PTrue && bodyEnd > ib.Start {
		c := &dp.Code[bodyEnd-1]
		if (c.H == decode.HCmp || c.H == decode.HCmpI) && c.Qp == ir.PTrue &&
			(c.Pd1 == term.Qp || c.Pd2 == term.Qp) {
			fuseCmp = true
			bodyEnd--
		}
	}
	// Body chain: one specialized closure per instruction, chunked into
	// superinstructions of at most fuseWidth constituents. Effect-free
	// constituents (nops, hardwired sinks) contribute to a node's count but
	// not its closure.
	start := ib.Start
	var chunk []Step
	flush := func(end int) {
		if end == start {
			return
		}
		run := fuse(chunk)
		blk.body = append(blk.body, node{run: run, n: int32(end - start), pc: int32(start)})
		if end-start >= 2 && run != nil {
			p.Supers++
			p.Fused += end - start
		}
		chunk = nil
		start = end
	}
	for pc := ib.Start; pc < bodyEnd; pc++ {
		d := &dp.Code[pc]
		s, _, ok := stepFor(d)
		if !ok {
			return blk, false // control transfer mid-block: not threadable
		}
		if s = guard(d.Qp, s); s != nil {
			chunk = append(chunk, s)
		}
		switch d.H {
		case decode.HLd, decode.HLdPI, decode.HFLd:
			blk.LoadPCs = append(blk.LoadPCs, int32(pc))
			blk.LoadIDs = append(blk.LoadIDs, d.ID)
		}
		if pc+1-start == fuseWidth {
			flush(pc + 1)
		}
	}
	flush(bodyEnd)
	blk.NBody = int32(bodyEnd - ib.Start)
	// Exit closure.
	fallIdx := ecOff
	if ib.End < n {
		fallIdx = p.BlockOf[ib.End]
	}
	tgtOK := term.Tgt >= 0 && int(term.Tgt) < n && p.BlockStart[term.Tgt]
	blk.exitPC = int32(ib.End - 1)
	blk.exitN = 1
	if !hasTerm {
		blk.exitN = 0
		f := fallIdx
		blk.exit = func(*Ctx) int32 { return f }
		return blk, true
	}
	qp := term.Qp
	switch term.H {
	case decode.HBr:
		if !tgtOK {
			return blk, false
		}
		tgt := p.BlockOf[term.Tgt]
		switch {
		case qp == ir.PTrue:
			blk.exit = func(*Ctx) int32 { return tgt }
		case fuseCmp:
			blk.exitN = 2
			blk.exit = fusedCmpBr(&dp.Code[bodyEnd], qp, tgt, fallIdx)
		default:
			f := fallIdx
			blk.exit = func(x *Ctx) int32 {
				if x.Preds[qp] {
					return tgt
				}
				return f
			}
		}
	case decode.HCall:
		if !tgtOK {
			return blk, false
		}
		tgt := p.BlockOf[term.Tgt]
		bd, ret := term.Bd, uint64(ib.End)
		blk.exit = guardExit(qp, fallIdx, func(x *Ctx) int32 {
			x.BRs[bd] = ret
			return tgt
		})
	case decode.HCallB:
		bs, bd, ret := term.Bs, term.Bd, uint64(ib.End)
		blk.exit = guardExit(qp, fallIdx, func(x *Ctx) int32 {
			tgt := x.BRs[bs]
			x.BRs[bd] = ret
			x.Dyn = tgt
			return ecDyn
		})
	case decode.HRet:
		bs := term.Bs
		blk.exit = guardExit(qp, fallIdx, func(x *Ctx) int32 {
			x.Dyn = x.BRs[bs]
			return ecDyn
		})
	case decode.HChk, decode.HSpawn:
		// Chains model the interpreter's no-speculation semantics: chk.c
		// never raises its exception and spawn binds nothing, so both fall
		// through — nullified or not.
		f := fallIdx
		blk.exit = func(*Ctx) int32 { return f }
	case decode.HKill:
		pc := int32(ib.End - 1)
		blk.exit = guardExit(qp, fallIdx, func(x *Ctx) int32 {
			x.TrapPC = pc
			return ecKill
		})
	case decode.HHalt:
		blk.exit = guardExit(qp, fallIdx, func(*Ctx) int32 { return ecHalt })
	default:
		return blk, false
	}
	return blk, true
}

// guardExit wraps an exit closure with its qualifying predicate: a nullified
// terminator falls through.
func guardExit(qp ir.PR, fall int32, core func(x *Ctx) int32) func(x *Ctx) int32 {
	if qp == ir.PTrue {
		return core
	}
	return func(x *Ctx) int32 {
		if x.Preds[qp] {
			return core(x)
		}
		return fall
	}
}

// fusedCmpBr builds the fused cmp+br exit: evaluate the comparison, write
// both architectural predicates, and branch on the one qualifying the br —
// negated when the br reads the complement output.
func fusedCmpBr(c *decode.Decoded, qp ir.PR, tgt, fall int32) func(x *Ctx) int32 {
	cond, ra := c.Cond, c.Ra
	pd1, pd2 := c.Pd1, c.Pd2
	// Taken sense: the br reads Preds[qp] after the cmp writes pd1 = r and
	// pd2 = !r (in that order, so pd2 wins if they alias).
	neg := qp == pd2
	if c.H == decode.HCmpI {
		imm := uint64(c.Imm)
		return func(x *Ctx) int32 {
			r := cmpResult(cond, x.Regs[ra], imm)
			if pd1 != ir.PTrue {
				x.Preds[pd1] = r
			}
			if pd2 != ir.PTrue {
				x.Preds[pd2] = !r
			}
			if r != neg {
				return tgt
			}
			return fall
		}
	}
	rb := c.Rb
	return func(x *Ctx) int32 {
		r := cmpResult(cond, x.Regs[ra], x.Regs[rb])
		if pd1 != ir.PTrue {
			x.Preds[pd1] = r
		}
		if pd2 != ir.PTrue {
			x.Preds[pd2] = !r
		}
		if r != neg {
			return tgt
		}
		return fall
	}
}

// cmpResult evaluates an integer comparison.
func cmpResult(cond ir.Cond, a, b uint64) bool {
	switch cond {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT:
		return int64(a) < int64(b)
	case ir.CondLE:
		return int64(a) <= int64(b)
	case ir.CondGT:
		return int64(a) > int64(b)
	case ir.CondGE:
		return int64(a) >= int64(b)
	case ir.CondLTU:
		return a < b
	case ir.CondGEU:
		return a >= b
	}
	return false
}

// frRead specializes an FP register read on the hardwired f0/f1.
func frRead(f ir.FR) func(x *Ctx) float64 {
	switch f {
	case ir.FZero:
		return func(*Ctx) float64 { return 0 }
	case ir.FOne:
		return func(*Ctx) float64 { return 1 }
	}
	return func(x *Ctx) float64 { return x.FRegs[f] }
}

// frWritable reports whether fd is a real (non-hardwired) FP destination.
func frWritable(f ir.FR) bool { return f != ir.FZero && f != ir.FOne }

// stepFor builds the unpredicated specialized closure for one instruction:
// the one definition of every pure opcode's semantics. It returns the
// closure (nil when the instruction has no architectural effect), whether
// the instruction is pure — no memory, control, or machine-level effect, so
// the cycle engines may execute the closure under their own timing — and
// whether a body closure exists at all (false for control transfers, which
// compile to block exits instead).
func stepFor(d *decode.Decoded) (s Step, pure bool, ok bool) {
	rd, ra, rb := d.Rd, d.Ra, d.Rb
	imm := uint64(d.Imm)
	switch d.H {
	case decode.HNop:
		return nil, true, true
	case decode.HAdd:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] + x.Regs[rb] }, true, true
	case decode.HAddI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] + imm }, true, true
	case decode.HSub:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] - x.Regs[rb] }, true, true
	case decode.HSubI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] - imm }, true, true
	case decode.HMul:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] * x.Regs[rb] }, true, true
	case decode.HMulI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] * imm }, true, true
	case decode.HAnd:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] & x.Regs[rb] }, true, true
	case decode.HAndI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] & imm }, true, true
	case decode.HOr:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] | x.Regs[rb] }, true, true
	case decode.HOrI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] | imm }, true, true
	case decode.HXor:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] ^ x.Regs[rb] }, true, true
	case decode.HXorI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] ^ imm }, true, true
	case decode.HShl:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] << (x.Regs[rb] & 63) }, true, true
	case decode.HShlI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		sh := imm & 63
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] << sh }, true, true
	case decode.HShr:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] >> (x.Regs[rb] & 63) }, true, true
	case decode.HShrI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		sh := imm & 63
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] >> sh }, true, true
	case decode.HMov:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Regs[ra] }, true, true
	case decode.HMovI:
		if rd == ir.RegZero {
			return nil, true, true
		}
		return func(x *Ctx) { x.Regs[rd] = imm }, true, true
	case decode.HCmp, decode.HCmpI:
		return cmpStep(d), true, true
	case decode.HMovBR:
		bd := d.Bd
		return func(x *Ctx) { x.BRs[bd] = x.Regs[ra] }, true, true
	case decode.HMovBRFunc:
		bd, tgt := d.Bd, uint64(d.Tgt)
		return func(x *Ctx) { x.BRs[bd] = tgt }, true, true
	case decode.HMovFromBR:
		if rd == ir.RegZero {
			return nil, true, true
		}
		bs := d.Bs
		return func(x *Ctx) { x.Regs[rd] = x.BRs[bs] }, true, true
	case decode.HLiw:
		slot := int(d.Imm) // pre-masked at decode
		return func(x *Ctx) { x.OutLIB[slot] = x.Regs[ra] }, true, true
	case decode.HLir:
		if rd == ir.RegZero {
			return nil, true, true
		}
		slot := int(d.Imm)
		return func(x *Ctx) { x.Regs[rd] = x.InLIB[slot] }, true, true
	case decode.HSetF:
		if !frWritable(d.Fd) {
			return nil, true, true
		}
		fd := d.Fd
		return func(x *Ctx) { x.FRegs[fd] = math.Float64frombits(x.Regs[ra]) }, true, true
	case decode.HGetF:
		if rd == ir.RegZero {
			return nil, true, true
		}
		fa := frRead(d.Fa)
		return func(x *Ctx) { x.Regs[rd] = math.Float64bits(fa(x)) }, true, true
	case decode.HFAdd:
		if !frWritable(d.Fd) {
			return nil, true, true
		}
		fd, fa, fb := d.Fd, frRead(d.Fa), frRead(d.Fb)
		return func(x *Ctx) { x.FRegs[fd] = fa(x) + fb(x) }, true, true
	case decode.HFSub:
		if !frWritable(d.Fd) {
			return nil, true, true
		}
		fd, fa, fb := d.Fd, frRead(d.Fa), frRead(d.Fb)
		return func(x *Ctx) { x.FRegs[fd] = fa(x) - fb(x) }, true, true
	case decode.HFMul:
		if !frWritable(d.Fd) {
			return nil, true, true
		}
		fd, fa, fb := d.Fd, frRead(d.Fa), frRead(d.Fb)
		return func(x *Ctx) { x.FRegs[fd] = fa(x) * fb(x) }, true, true
	case decode.HFMA:
		if !frWritable(d.Fd) {
			return nil, true, true
		}
		fd, fa, fb, fc := d.Fd, frRead(d.Fa), frRead(d.Fb), frRead(d.Fc)
		return func(x *Ctx) { x.FRegs[fd] = fa(x)*fb(x) + fc(x) }, true, true
	case decode.HFCmp:
		return fcmpStep(d), true, true

	// Memory instructions: chain-executable (the interpreter is main-only,
	// no-speculation, so stores are architectural), but not pure — the
	// engines execute them through sim's handlers, where the hierarchy
	// timing and speculative-store suppression live.
	case decode.HLd:
		disp := uint64(d.Disp)
		if rd == ir.RegZero {
			return func(x *Ctx) { x.Mem.Load(x.Regs[ra] + disp) }, false, true
		}
		return func(x *Ctx) { x.Regs[rd] = x.Mem.Load(x.Regs[ra] + disp) }, false, true
	case decode.HLdPI:
		disp := uint64(d.Disp)
		stride := imm
		switch {
		case rd != ir.RegZero && ra != ir.RegZero:
			return func(x *Ctx) {
				x.Regs[rd] = x.Mem.Load(x.Regs[ra] + disp)
				x.Regs[ra] += stride
			}, false, true
		case rd != ir.RegZero:
			return func(x *Ctx) { x.Regs[rd] = x.Mem.Load(x.Regs[ra] + disp) }, false, true
		case ra != ir.RegZero:
			return func(x *Ctx) {
				x.Mem.Load(x.Regs[ra] + disp)
				x.Regs[ra] += stride
			}, false, true
		default:
			return func(x *Ctx) { x.Mem.Load(disp) }, false, true
		}
	case decode.HSt:
		disp := uint64(d.Disp)
		return func(x *Ctx) { x.Mem.Store(x.Regs[ra]+disp, x.Regs[rb]) }, false, true
	case decode.HLfetch:
		// No architectural effect without a cache model; the chain only
		// has to count it.
		return nil, false, true
	case decode.HFLd:
		disp := uint64(d.Disp)
		if !frWritable(d.Fd) {
			return func(x *Ctx) { x.Mem.Load(x.Regs[ra] + disp) }, false, true
		}
		fd := d.Fd
		return func(x *Ctx) {
			x.FRegs[fd] = math.Float64frombits(x.Mem.Load(x.Regs[ra] + disp))
		}, false, true
	case decode.HFSt:
		disp := uint64(d.Disp)
		fa := frRead(d.Fa)
		return func(x *Ctx) { x.Mem.Store(x.Regs[ra]+disp, math.Float64bits(fa(x))) }, false, true
	}
	return nil, false, false // control transfer: compiles to a block exit
}

// cmpStep specializes an integer compare on its addressing form and live
// predicate destinations.
func cmpStep(d *decode.Decoded) Step {
	cond, ra := d.Cond, d.Ra
	pd1, pd2 := d.Pd1, d.Pd2
	if pd1 == ir.PTrue && pd2 == ir.PTrue {
		return nil // both destinations hardwired: architecturally dead
	}
	if d.H == decode.HCmpI {
		imm := uint64(d.Imm)
		switch {
		case pd1 != ir.PTrue && pd2 != ir.PTrue:
			return func(x *Ctx) {
				r := cmpResult(cond, x.Regs[ra], imm)
				x.Preds[pd1] = r
				x.Preds[pd2] = !r
			}
		case pd1 != ir.PTrue:
			return func(x *Ctx) { x.Preds[pd1] = cmpResult(cond, x.Regs[ra], imm) }
		default:
			return func(x *Ctx) { x.Preds[pd2] = !cmpResult(cond, x.Regs[ra], imm) }
		}
	}
	rb := d.Rb
	switch {
	case pd1 != ir.PTrue && pd2 != ir.PTrue:
		return func(x *Ctx) {
			r := cmpResult(cond, x.Regs[ra], x.Regs[rb])
			x.Preds[pd1] = r
			x.Preds[pd2] = !r
		}
	case pd1 != ir.PTrue:
		return func(x *Ctx) { x.Preds[pd1] = cmpResult(cond, x.Regs[ra], x.Regs[rb]) }
	default:
		return func(x *Ctx) { x.Preds[pd2] = !cmpResult(cond, x.Regs[ra], x.Regs[rb]) }
	}
}

// fcmpStep specializes an FP compare on its live predicate destinations.
func fcmpStep(d *decode.Decoded) Step {
	cond := d.Cond
	pd1, pd2 := d.Pd1, d.Pd2
	if pd1 == ir.PTrue && pd2 == ir.PTrue {
		return nil
	}
	fa, fb := frRead(d.Fa), frRead(d.Fb)
	return func(x *Ctx) {
		r := fcmpResult(cond, fa(x), fb(x))
		if pd1 != ir.PTrue {
			x.Preds[pd1] = r
		}
		if pd2 != ir.PTrue {
			x.Preds[pd2] = !r
		}
	}
}

// fcmpResult evaluates an FP comparison. Floats have no unsigned order, so
// LTU and GEU fold onto LT and GE; every relation but NE is false on NaN.
func fcmpResult(cond ir.Cond, a, b float64) bool {
	switch cond {
	case ir.CondEQ:
		return a == b
	case ir.CondNE:
		return a != b
	case ir.CondLT, ir.CondLTU:
		return a < b
	case ir.CondLE:
		return a <= b
	case ir.CondGT:
		return a > b
	case ir.CondGE, ir.CondGEU:
		return a >= b
	}
	return false
}
